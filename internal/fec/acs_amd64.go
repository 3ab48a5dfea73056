package fec

// acsKernels on amd64: the AVX2 kernel first when the CPU has AVX2 and the
// operating system saves the YMM registers, then the portable one.
var acsKernels = func() []namedKernel {
	k := []namedKernel{{"go", acsGo}}
	if hasAVX2() {
		k = append([]namedKernel{{"avx2", acsAVX2}}, k...)
	}
	return k
}()

// acsSigns holds, for each group g of eight butterflies j = 8g+i, the lane
// signs sp and sq with which acsAVX2 forms butterfly j's branch metric
// b = sign(sp)·p + sign(sq)·q (VPSIGND): b is p, −q, q or −p as the coded
// pair butterflyOut[j] is 00, 01, 10 or 11.
var acsSigns = func() (t [numStates / 16][2][8]int32) {
	for j, o := range butterflyOut {
		sp, sq := &t[j/8][0][j%8], &t[j/8][1][j%8]
		switch o {
		case 0:
			*sp = 1
		case 1:
			*sq = -1
		case 2:
			*sq = 1
		case 3:
			*sp = -1
		}
	}
	return t
}()

// acsAVX2 is the acsKernel in acs_amd64.s.
//
//go:noescape
func acsAVX2(m *[numStates]int32, pq [][2]int32, surv []uint64)

// cpuid executes CPUID for the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv0 returns the low word of XCR0, the register-state components the
// operating system saves.
func xgetbv0() uint32

// hasAVX2 reports whether the CPU supports AVX2 and the operating system
// has enabled the XMM and YMM register state.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}
