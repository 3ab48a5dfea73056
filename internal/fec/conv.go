// Package fec implements the forward-error-correction pipeline the paper
// concatenates into its packet construction: the 802.11 rate-1/2
// constraint-length-7 convolutional code (generators 133/171 octal),
// puncturing to rates 2/3, 3/4 and 5/6, hard- and soft-decision Viterbi
// decoding, and the per-spatial-stream BCC interleaver of 802.11n.
package fec

import "fmt"

const (
	// ConstraintLength is K for the 802.11 BCC.
	ConstraintLength = 7
	numStates        = 1 << (ConstraintLength - 1) // 64
	// Generator polynomials, octal 133 and 171 (IEEE 802.11-2012 §18.3.5.6).
	genA = 0o133
	genB = 0o171
)

// Rate identifies a coding rate of the punctured BCC.
type Rate int

// Supported coding rates.
const (
	Rate1_2 Rate = iota
	Rate2_3
	Rate3_4
	Rate5_6
)

func (r Rate) String() string {
	switch r {
	case Rate1_2:
		return "1/2"
	case Rate2_3:
		return "2/3"
	case Rate3_4:
		return "3/4"
	case Rate5_6:
		return "5/6"
	}
	return fmt.Sprintf("Rate(%d)", int(r))
}

// Fraction returns the numerator and denominator of the rate.
func (r Rate) Fraction() (num, den int) {
	switch r {
	case Rate1_2:
		return 1, 2
	case Rate2_3:
		return 2, 3
	case Rate3_4:
		return 3, 4
	case Rate5_6:
		return 5, 6
	default:
		panic(fmt.Sprintf("fec: unknown rate %d", int(r)))
	}
}

// puncturePattern returns the keep-mask over the mother-code output, as
// (A-branch mask, B-branch mask) per input-bit period (IEEE 802.11-2012
// §18.3.5.6 figures; the 5/6 pattern is from §20.3.11.6).
func (r Rate) puncturePattern() (a, b []bool) {
	switch r {
	case Rate1_2:
		return []bool{true}, []bool{true}
	case Rate2_3:
		return []bool{true, true}, []bool{true, false}
	case Rate3_4:
		return []bool{true, true, false}, []bool{true, false, true}
	case Rate5_6:
		return []bool{true, true, false, true, false}, []bool{true, false, true, false, true}
	default:
		panic(fmt.Sprintf("fec: unknown rate %d", int(r)))
	}
}

// parity64 returns the parity of the set bits of x.
func parity64(x uint32) byte {
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return byte(x & 1)
}

// outputs[state][input] packs the two coded bits (A in bit 0, B in bit 1)
// produced when `input` is shifted into `state`; nextState[state][input] is
// the successor register state.
var outputs, nextState = trellis()

// butterflyOut[j] is the coded-bit pair emitted on the state-2j, input-0
// edge of trellis butterfly j (states 2j, 2j+1 → j, j+32). Because both
// generators tap the newest and oldest register bits, the other three edges
// of the butterfly emit either the same pair or its complement o^3, which
// is what lets the Viterbi ACS loop process four edges per table load.
var butterflyOut = func() (b [numStates / 2]byte) {
	for j := range b {
		b[j] = outputs[2*j][0]
	}
	return b
}()

// trellis derives the encoder's output and next-state tables from the
// generator polynomials. The tables are package variables initialised in
// dependency order, so the ACS kernels' tables may be derived from them.
func trellis() (out [numStates][2]byte, next [numStates][2]int) {
	for s := 0; s < numStates; s++ {
		for in := 0; in < 2; in++ {
			// Register holds the K-1 previous bits; the full window is the
			// input bit followed by the state (input = most recent).
			window := uint32(in)<<(ConstraintLength-1) | uint32(s)
			a := parity64(window & genA)
			b := parity64(window & genB)
			out[s][in] = a | b<<1
			next[s][in] = int(window >> 1)
		}
	}
	return out, next
}

// Encode convolutionally encodes data bits (one bit per byte) with the
// rate-1/2 mother code and punctures to the requested rate. The encoder
// starts in the all-zero state; callers append 6 tail zero bits to the data
// if they need the trellis terminated (the PHY's SERVICE+tail framing does
// this).
//
// The returned slice contains the surviving coded bits in transmission
// order (A then B within each period, punctured positions skipped).
func Encode(data []byte, rate Rate) []byte {
	pa, pb := rate.puncturePattern()
	period := len(pa)
	out := make([]byte, 0, codedLen(len(data), rate))
	state := 0
	for i, bit := range data {
		in := int(bit & 1)
		o := outputs[state][in]
		p := i % period
		if pa[p] {
			out = append(out, o&1)
		}
		if pb[p] {
			out = append(out, (o>>1)&1)
		}
		state = nextState[state][in]
	}
	return out
}

// CompareMother re-encodes data bits (one bit per byte) with the rate-1/2
// mother code from the zero state and compares each coded bit with the hard
// decision (1 iff the value is negative) of the matching value of llr, a
// depunctured stream of two values per data bit. Zero values — the
// erasures at punctured positions — are skipped, and so is anything past
// the shorter of the two streams. It returns the disagreements and the
// number of bits compared. It walks the encoder trellis in place and
// allocates nothing.
func CompareMother(data []byte, llr []float64) (errs, bits int) {
	state := 0
	for i, bit := range data[:min(len(data), (len(llr)+1)/2)] {
		in := int(bit & 1)
		o := outputs[state][in]
		state = nextState[state][in]
		for k, x := range llr[2*i : min(2*i+2, len(llr))] {
			if x == 0 {
				continue
			}
			bits++
			if (x < 0) != (o>>k&1 == 1) {
				errs++
			}
		}
	}
	return errs, bits
}

// codedLen returns the number of coded bits produced by encoding n data bits
// at the given rate. n must be a multiple of the puncture period for the
// count to be exact at punctured rates; the PHY padding guarantees this.
func codedLen(n int, rate Rate) int {
	pa, pb := rate.puncturePattern()
	period := len(pa)
	full := n / period
	kept := 0
	for i := 0; i < period; i++ {
		if pa[i] {
			kept++
		}
		if pb[i] {
			kept++
		}
	}
	total := full * kept
	for i := 0; i < n%period; i++ {
		if pa[i] {
			total++
		}
		if pb[i] {
			total++
		}
	}
	return total
}

// CodedLen is the exported form of codedLen for the PHY's symbol budgeting.
func CodedLen(dataBits int, rate Rate) int { return codedLen(dataBits, rate) }

// DataLen returns the number of data bits that produce codedBits coded bits
// at the given rate, or an error if codedBits does not correspond to a whole
// number of periods.
func DataLen(codedBits int, rate Rate) (int, error) {
	num, den := rate.Fraction()
	// codedBits : dataBits = den : num·? — for the mother code 2 coded per
	// data bit; at rate num/den, den coded bits carry num·? ... simplest:
	// dataBits = codedBits * num / den.
	if codedBits*num%den != 0 {
		return 0, fmt.Errorf("fec: %d coded bits is not a whole block at rate %v", codedBits, rate)
	}
	return codedBits * num / den, nil
}
