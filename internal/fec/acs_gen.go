// Code generated by "go test -run TestACSStepUpToDate -update"; DO NOT EDIT.

package fec

// acsStep runs the 32 add-compare-select butterflies of one trellis step
// from cur into nxt and returns the step's packed survivor bits. p and q
// are la+lb and la−lb for the step's quantised LLRs. Butterfly j (states
// 2j, 2j+1 → j, j+32) adds b to the 2j→j and 2j+1→j+32 edges and −b to the
// other two, where b is the correlation of butterflyOut[j] with (la, lb).
// The metrics wrap around int32: each pair of candidates is compared by
// the sign of its wrapped difference x, exact while the true difference is
// below 2^31, and the survivor bit is that sign, 1 iff the odd predecessor
// strictly wins. The selects compile to conditional moves, not branches,
// since channel noise decides the survivors and a branch would mispredict
// about half the time. The low and high survivor halves (states 0–31 and
// 32–63) accumulate in 32-bit words. This is the step the AVX2 kernel runs
// eight lanes at a time.
func acsStep(cur, nxt *[numStates]int32, p, q int32) uint64 {
	var m0, m1, a, c, d, e, x, y int32
	var lo, hi uint32

	m0, m1 = cur[0], cur[1]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[0], nxt[32] = a, d
	lo |= uint32(x) >> 31
	hi |= uint32(y) >> 31

	m0, m1 = cur[2], cur[3]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[1], nxt[33] = a, d
	lo |= uint32(x) >> 31 << 1
	hi |= uint32(y) >> 31 << 1

	m0, m1 = cur[4], cur[5]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[2], nxt[34] = a, d
	lo |= uint32(x) >> 31 << 2
	hi |= uint32(y) >> 31 << 2

	m0, m1 = cur[6], cur[7]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[3], nxt[35] = a, d
	lo |= uint32(x) >> 31 << 3
	hi |= uint32(y) >> 31 << 3

	m0, m1 = cur[8], cur[9]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[4], nxt[36] = a, d
	lo |= uint32(x) >> 31 << 4
	hi |= uint32(y) >> 31 << 4

	m0, m1 = cur[10], cur[11]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[5], nxt[37] = a, d
	lo |= uint32(x) >> 31 << 5
	hi |= uint32(y) >> 31 << 5

	m0, m1 = cur[12], cur[13]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[6], nxt[38] = a, d
	lo |= uint32(x) >> 31 << 6
	hi |= uint32(y) >> 31 << 6

	m0, m1 = cur[14], cur[15]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[7], nxt[39] = a, d
	lo |= uint32(x) >> 31 << 7
	hi |= uint32(y) >> 31 << 7

	m0, m1 = cur[16], cur[17]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[8], nxt[40] = a, d
	lo |= uint32(x) >> 31 << 8
	hi |= uint32(y) >> 31 << 8

	m0, m1 = cur[18], cur[19]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[9], nxt[41] = a, d
	lo |= uint32(x) >> 31 << 9
	hi |= uint32(y) >> 31 << 9

	m0, m1 = cur[20], cur[21]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[10], nxt[42] = a, d
	lo |= uint32(x) >> 31 << 10
	hi |= uint32(y) >> 31 << 10

	m0, m1 = cur[22], cur[23]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[11], nxt[43] = a, d
	lo |= uint32(x) >> 31 << 11
	hi |= uint32(y) >> 31 << 11

	m0, m1 = cur[24], cur[25]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[12], nxt[44] = a, d
	lo |= uint32(x) >> 31 << 12
	hi |= uint32(y) >> 31 << 12

	m0, m1 = cur[26], cur[27]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[13], nxt[45] = a, d
	lo |= uint32(x) >> 31 << 13
	hi |= uint32(y) >> 31 << 13

	m0, m1 = cur[28], cur[29]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[14], nxt[46] = a, d
	lo |= uint32(x) >> 31 << 14
	hi |= uint32(y) >> 31 << 14

	m0, m1 = cur[30], cur[31]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[15], nxt[47] = a, d
	lo |= uint32(x) >> 31 << 15
	hi |= uint32(y) >> 31 << 15

	m0, m1 = cur[32], cur[33]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[16], nxt[48] = a, d
	lo |= uint32(x) >> 31 << 16
	hi |= uint32(y) >> 31 << 16

	m0, m1 = cur[34], cur[35]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[17], nxt[49] = a, d
	lo |= uint32(x) >> 31 << 17
	hi |= uint32(y) >> 31 << 17

	m0, m1 = cur[36], cur[37]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[18], nxt[50] = a, d
	lo |= uint32(x) >> 31 << 18
	hi |= uint32(y) >> 31 << 18

	m0, m1 = cur[38], cur[39]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[19], nxt[51] = a, d
	lo |= uint32(x) >> 31 << 19
	hi |= uint32(y) >> 31 << 19

	m0, m1 = cur[40], cur[41]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[20], nxt[52] = a, d
	lo |= uint32(x) >> 31 << 20
	hi |= uint32(y) >> 31 << 20

	m0, m1 = cur[42], cur[43]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[21], nxt[53] = a, d
	lo |= uint32(x) >> 31 << 21
	hi |= uint32(y) >> 31 << 21

	m0, m1 = cur[44], cur[45]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[22], nxt[54] = a, d
	lo |= uint32(x) >> 31 << 22
	hi |= uint32(y) >> 31 << 22

	m0, m1 = cur[46], cur[47]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[23], nxt[55] = a, d
	lo |= uint32(x) >> 31 << 23
	hi |= uint32(y) >> 31 << 23

	m0, m1 = cur[48], cur[49]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[24], nxt[56] = a, d
	lo |= uint32(x) >> 31 << 24
	hi |= uint32(y) >> 31 << 24

	m0, m1 = cur[50], cur[51]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[25], nxt[57] = a, d
	lo |= uint32(x) >> 31 << 25
	hi |= uint32(y) >> 31 << 25

	m0, m1 = cur[52], cur[53]
	a, c, d, e = m0-q, m1+q, m0+q, m1-q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[26], nxt[58] = a, d
	lo |= uint32(x) >> 31 << 26
	hi |= uint32(y) >> 31 << 26

	m0, m1 = cur[54], cur[55]
	a, c, d, e = m0+p, m1-p, m0-p, m1+p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[27], nxt[59] = a, d
	lo |= uint32(x) >> 31 << 27
	hi |= uint32(y) >> 31 << 27

	m0, m1 = cur[56], cur[57]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[28], nxt[60] = a, d
	lo |= uint32(x) >> 31 << 28
	hi |= uint32(y) >> 31 << 28

	m0, m1 = cur[58], cur[59]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[29], nxt[61] = a, d
	lo |= uint32(x) >> 31 << 29
	hi |= uint32(y) >> 31 << 29

	m0, m1 = cur[60], cur[61]
	a, c, d, e = m0+q, m1-q, m0-q, m1+q
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[30], nxt[62] = a, d
	lo |= uint32(x) >> 31 << 30
	hi |= uint32(y) >> 31 << 30

	m0, m1 = cur[62], cur[63]
	a, c, d, e = m0-p, m1+p, m0+p, m1-p
	x, y = a-c, d-e
	if x < 0 {
		a = c
	}
	if y < 0 {
		d = e
	}
	nxt[31], nxt[63] = a, d
	lo |= uint32(x) >> 31 << 31
	hi |= uint32(y) >> 31 << 31
	return uint64(lo) | uint64(hi)<<32
}
