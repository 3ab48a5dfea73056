// Code generated by "go test -run TestACSStepUpToDate -update"; DO NOT EDIT.

package fec

// acsStep runs the 32 add-compare-select butterflies of one trellis step
// from cur into nxt and returns the step's packed survivor bits. p and q
// are la+lb and la−lb for the step's quantised LLRs. Butterfly j (states
// 2j, 2j+1 → j, j+32) adds b to the 2j→j and 2j+1→j+32 edges and −b to the
// other two, where b is the correlation of butterflyOut[j] with (la, lb);
// the survivor bit is the sign of the exact metric difference, 1 iff the
// odd predecessor strictly wins. The select is branchless (max compiles to
// a conditional move) because channel noise decides the survivors, so a
// branch would mispredict about half the time.
func acsStep(cur, nxt *[numStates]int64, p, q int64) (surv uint64) {
	var m0, m1, a, c, d, e int64

	m0, m1 = cur[0], cur[1]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	nxt[0], nxt[32] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63 | uint64(d-e)>>63<<32

	m0, m1 = cur[2], cur[3]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	nxt[1], nxt[33] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<1 | uint64(d-e)>>63<<33

	m0, m1 = cur[4], cur[5]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	nxt[2], nxt[34] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<2 | uint64(d-e)>>63<<34

	m0, m1 = cur[6], cur[7]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	nxt[3], nxt[35] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<3 | uint64(d-e)>>63<<35

	m0, m1 = cur[8], cur[9]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	nxt[4], nxt[36] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<4 | uint64(d-e)>>63<<36

	m0, m1 = cur[10], cur[11]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	nxt[5], nxt[37] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<5 | uint64(d-e)>>63<<37

	m0, m1 = cur[12], cur[13]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	nxt[6], nxt[38] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<6 | uint64(d-e)>>63<<38

	m0, m1 = cur[14], cur[15]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	nxt[7], nxt[39] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<7 | uint64(d-e)>>63<<39

	m0, m1 = cur[16], cur[17]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	nxt[8], nxt[40] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<8 | uint64(d-e)>>63<<40

	m0, m1 = cur[18], cur[19]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	nxt[9], nxt[41] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<9 | uint64(d-e)>>63<<41

	m0, m1 = cur[20], cur[21]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	nxt[10], nxt[42] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<10 | uint64(d-e)>>63<<42

	m0, m1 = cur[22], cur[23]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	nxt[11], nxt[43] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<11 | uint64(d-e)>>63<<43

	m0, m1 = cur[24], cur[25]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	nxt[12], nxt[44] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<12 | uint64(d-e)>>63<<44

	m0, m1 = cur[26], cur[27]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	nxt[13], nxt[45] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<13 | uint64(d-e)>>63<<45

	m0, m1 = cur[28], cur[29]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	nxt[14], nxt[46] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<14 | uint64(d-e)>>63<<46

	m0, m1 = cur[30], cur[31]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	nxt[15], nxt[47] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<15 | uint64(d-e)>>63<<47

	m0, m1 = cur[32], cur[33]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	nxt[16], nxt[48] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<16 | uint64(d-e)>>63<<48

	m0, m1 = cur[34], cur[35]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	nxt[17], nxt[49] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<17 | uint64(d-e)>>63<<49

	m0, m1 = cur[36], cur[37]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	nxt[18], nxt[50] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<18 | uint64(d-e)>>63<<50

	m0, m1 = cur[38], cur[39]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	nxt[19], nxt[51] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<19 | uint64(d-e)>>63<<51

	m0, m1 = cur[40], cur[41]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	nxt[20], nxt[52] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<20 | uint64(d-e)>>63<<52

	m0, m1 = cur[42], cur[43]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	nxt[21], nxt[53] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<21 | uint64(d-e)>>63<<53

	m0, m1 = cur[44], cur[45]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	nxt[22], nxt[54] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<22 | uint64(d-e)>>63<<54

	m0, m1 = cur[46], cur[47]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	nxt[23], nxt[55] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<23 | uint64(d-e)>>63<<55

	m0, m1 = cur[48], cur[49]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	nxt[24], nxt[56] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<24 | uint64(d-e)>>63<<56

	m0, m1 = cur[50], cur[51]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	nxt[25], nxt[57] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<25 | uint64(d-e)>>63<<57

	m0, m1 = cur[52], cur[53]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	nxt[26], nxt[58] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<26 | uint64(d-e)>>63<<58

	m0, m1 = cur[54], cur[55]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	nxt[27], nxt[59] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<27 | uint64(d-e)>>63<<59

	m0, m1 = cur[56], cur[57]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	nxt[28], nxt[60] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<28 | uint64(d-e)>>63<<60

	m0, m1 = cur[58], cur[59]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	nxt[29], nxt[61] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<29 | uint64(d-e)>>63<<61

	m0, m1 = cur[60], cur[61]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	nxt[30], nxt[62] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<30 | uint64(d-e)>>63<<62

	m0, m1 = cur[62], cur[63]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	nxt[31], nxt[63] = max(a, c), max(d, e)
	surv |= uint64(a-c)>>63<<31 | uint64(d-e)>>63<<63
	return surv
}
