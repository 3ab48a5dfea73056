package fec

//go:generate go test -run TestACSStepUpToDate -update .

import (
	"fmt"
	"math"
)

// Viterbi is a reusable maximum-likelihood decoder for the 802.11 BCC. It
// accepts soft inputs as log-likelihood ratios with the convention
// llr > 0 ⇒ the coded bit is more likely 0; the magnitude expresses
// confidence. Hard-decision decoding is the special case llr ∈ {+1, −1}.
//
// A Viterbi value is not safe for concurrent use; create one per goroutine.
// The decoder keeps its path metrics inline and grows its traceback matrix
// on demand, so steady-state decoding does not allocate.
type Viterbi struct {
	// metrics holds the current and next path-metric vectors of the ACS
	// loop, which swaps between them every trellis step.
	metrics [2][numStates]int64
	// survivors[t] packs, one bit per state, the low bit of the best
	// predecessor of each state at trellis step t: bit ns is the survivor
	// decision for state ns. Together with ns it reconstructs the
	// predecessor: with nextState = in<<5 | s>>1, the predecessor is
	// s = (ns&31)<<1 | survivor, and the step-t input bit is ns>>5.
	// One uint64 per step keeps the traceback matrix at 8 bytes/step — a
	// 1500-byte packet's 12k-step traceback stays under 100 KiB and cache
	// resident, where a byte-per-state layout would stream ~770 KiB.
	survivors []uint64
	// hardLLR is the DecodeHard scratch mapping coded bits to ±1 LLRs.
	hardLLR []float64
}

// NewViterbi returns a decoder.
func NewViterbi() *Viterbi {
	return &Viterbi{}
}

// Depuncture expands coded values received at the given rate back to the
// mother-code stream of 2·dataBits values, inserting zeros (erasures) at
// punctured positions. dataBits is the number of trellis steps the decoder
// will run. It allocates the output; hot paths should hold a buffer and use
// DepunctureInto.
func Depuncture(llr []float64, dataBits int, rate Rate) ([]float64, error) {
	return DepunctureInto(nil, llr, dataBits, rate)
}

// DepunctureInto is Depuncture writing into dst, which is grown only when
// its capacity is short and returned resliced to 2·dataBits. Punctured
// positions are explicitly zeroed, so dst may hold stale values. llr and
// dst must not overlap.
func DepunctureInto(dst, llr []float64, dataBits int, rate Rate) ([]float64, error) {
	pa, pb := rate.puncturePattern()
	period := len(pa)
	want := codedLen(dataBits, rate)
	if len(llr) != want {
		return nil, fmt.Errorf("fec: depuncture got %d values, want %d for %d data bits at rate %v",
			len(llr), want, dataBits, rate)
	}
	if cap(dst) < 2*dataBits {
		dst = make([]float64, 2*dataBits)
	}
	dst = dst[:2*dataBits]
	src := 0
	for i := 0; i < dataBits; i++ {
		p := i % period
		if pa[p] {
			dst[2*i] = llr[src]
			src++
		} else {
			dst[2*i] = 0
		}
		if pb[p] {
			dst[2*i+1] = llr[src]
			src++
		} else {
			dst[2*i+1] = 0
		}
	}
	return dst, nil
}

// DecodeSoft runs Viterbi decoding over a depunctured mother-code LLR stream
// (length must be even; 2 values per trellis step) and returns the decoded
// data bits, one per trellis step. If terminated is true the trellis is
// assumed driven back to the all-zero state by tail bits and traceback
// starts from state 0; otherwise traceback starts from the best-metric end
// state. It allocates the output; hot paths should hold a buffer and use
// DecodeSoftInto.
func (v *Viterbi) DecodeSoft(llr []float64, terminated bool) ([]byte, error) {
	return v.DecodeSoftInto(nil, llr, terminated)
}

// DecodeSoftInto is DecodeSoft writing the decoded bits into dst, which is
// grown only when its capacity is short and returned resliced to one byte
// per trellis step.
//
// Path metrics are int64. One scan finds the largest finite |llr|, and each
// step quantises its two LLRs with the power-of-two scale that maps that
// peak into (2^23, 2^24]. A power-of-two scale is exact in float64, so
// hard (±1) and small-integer inputs quantise to exact integer multiples
// and every metric sum and tie is the one float64 arithmetic gives. NaN
// quantises to an erasure (0) and ±Inf to ±2^24, the full scale; neither
// takes part in the peak scan. If the peak is below 2^-999 the scale is
// capped at 2^1023.
//
// Headroom: a quantised LLR is at most 2^24 in magnitude, so a branch
// metric is at most 2^25 and, once the six-step start-up has made every
// state reachable, all metrics of step t lie within ±t·2^25 and every ACS
// difference within ±(t+1)·2^26. That cannot overflow int64 below 2^36
// steps; the largest 802.11n PSDU (65,535 octets) is 524,302 steps, so the
// metrics are never renormalised.
//
// The add-compare-select step runs over 32 radix-2 butterflies rather than
// 128 state×input edges. Both generators (133, 171 octal) include the top
// and bottom taps of the shift register, so flipping either the input bit
// or the oldest state bit complements both coded bits: the four edges of
// butterfly j (states 2j, 2j+1 → j, j+32) add ±b for one branch metric b
// drawn from ±p, ±q, where p = la+lb and q = la−lb (see acsStep). The
// selection is strictly-greater in ascending predecessor order, so the
// decoded bits equal those of the straightforward 128-edge sweep run over
// the quantised LLRs.
//
//mimonet:hot
func (v *Viterbi) DecodeSoftInto(dst []byte, llr []float64, terminated bool) ([]byte, error) {
	if len(llr)%2 != 0 {
		return nil, fmt.Errorf("fec: soft input length %d is odd", len(llr))
	}
	steps := len(llr) / 2
	if steps == 0 {
		return nil, nil
	}
	v.ensureTraceback(steps)
	scale := llrScale(llr)

	const unreachable = math.MinInt64 / 4
	cur, nxt := &v.metrics[0], &v.metrics[1]
	for s := range cur {
		cur[s] = unreachable
	}
	cur[0] = 0 // encoder starts in state 0
	for t := 0; t < steps; t++ {
		la, lb := quantizeLLR(llr[2*t], scale), quantizeLLR(llr[2*t+1], scale)
		v.survivors[t] = acsStep(cur, nxt, la+lb, la-lb)
		cur, nxt = nxt, cur
	}

	state := 0
	if !terminated {
		best := int64(math.MinInt64)
		for s, m := range cur {
			if m > best {
				best, state = m, s
			}
		}
	}
	bits := dst
	if cap(bits) < steps {
		bits = make([]byte, steps)
	}
	bits = bits[:steps]
	for t := steps - 1; t >= 0; t-- {
		bits[t] = uint8(state >> (ConstraintLength - 2)) // input bit sits at the register top
		state = ((state << 1) & (numStates - 1)) | int((v.survivors[t]>>state)&1)
	}
	return bits, nil
}

// llrFullScale is the quantised magnitude of ±Inf and the ceiling for the
// largest finite LLR.
const (
	llrBits      = 24
	llrFullScale = 1 << llrBits
)

// llrScale returns the power of two that maps the largest finite |llr| into
// (llrFullScale/2, llrFullScale], capped at 2^1023.
func llrScale(llr []float64) float64 {
	var peak float64
	for _, x := range llr {
		if a := math.Abs(x); a > peak && a <= math.MaxFloat64 {
			peak = a
		}
	}
	frac, exp := math.Frexp(peak) // peak = frac·2^exp, frac ∈ [½, 1)
	if frac == 0.5 {
		exp-- // an exact power of two maps to full scale itself
	}
	return math.Ldexp(1, min(llrBits-exp, 1023))
}

// quantizeLLR scales x to an integer LLR: NaN is an erasure and values at
// or past full scale (only ±Inf, given llrScale) clamp to it.
func quantizeLLR(x, scale float64) int64 {
	x *= scale
	switch {
	case x != x:
		return 0
	case x >= llrFullScale:
		return llrFullScale
	case x <= -llrFullScale:
		return -llrFullScale
	}
	return int64(math.RoundToEven(x))
}

// DecodeHard decodes hard-decision coded bits (0/1, one per byte) by mapping
// them to unit-confidence LLRs. The scratch LLR buffer is reused across
// calls.
func (v *Viterbi) DecodeHard(coded []byte, terminated bool) ([]byte, error) {
	v.hardLLR = HardToLLR(v.hardLLR, coded)
	return v.DecodeSoft(v.hardLLR, terminated)
}

// Reserve pre-sizes the decoder's metric and traceback storage for a decode
// of the given number of trellis steps, so the subsequent DecodeSoftInto
// performs no allocation. The PHY calls this with the SIG-declared packet
// length as soon as the header is decoded, before the data symbols stream in.
func (v *Viterbi) Reserve(steps int) {
	if steps > 0 {
		v.ensureTraceback(steps)
	}
}

func (v *Viterbi) ensureTraceback(steps int) {
	if cap(v.survivors) < steps {
		v.survivors = make([]uint64, steps)
	}
	v.survivors = v.survivors[:steps]
}

// HardToLLR converts hard bits to ±1 LLRs into dst (allocating if dst is
// short), exposed for the PHY's hard-decision receive path.
func HardToLLR(dst []float64, bits []byte) []float64 {
	if cap(dst) < len(bits) {
		dst = make([]float64, len(bits))
	}
	dst = dst[:len(bits)]
	for i, b := range bits {
		if b&1 == 0 {
			dst[i] = 1
		} else {
			dst[i] = -1
		}
	}
	return dst
}
