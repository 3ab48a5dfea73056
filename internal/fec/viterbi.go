package fec

//go:generate go test -run TestACSStepUpToDate -update .

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/montecarlo"
)

// Viterbi is a reusable maximum-likelihood decoder for the 802.11 BCC. It
// accepts soft inputs as log-likelihood ratios with the convention
// llr > 0 ⇒ the coded bit is more likely 0; the magnitude expresses
// confidence. Hard-decision decoding is the special case llr ∈ {+1, −1}.
//
// A Viterbi value is not safe for concurrent use; create one per goroutine
// with NewViterbi. SetWorkers lets one decode spread its trellis over
// several cores; the decoded bits are the same at every worker count. The
// decoder keeps its path metrics inline and grows its traceback matrix on
// demand, so steady-state decoding does not allocate.
type Viterbi struct {
	// survivors[t] packs, one bit per state, the low bit of the best
	// predecessor of each state at trellis step t: bit ns is the survivor
	// decision for state ns. Together with ns it reconstructs the
	// predecessor: with nextState = in<<5 | s>>1, the predecessor is
	// s = (ns&31)<<1 | survivor, and the step-t input bit is ns>>5.
	// One uint64 per step keeps the traceback matrix at 8 bytes/step — a
	// 1500-byte packet's 12k-step traceback stays under 100 KiB and cache
	// resident, where a byte-per-state layout would stream ~770 KiB.
	survivors []uint64
	// shards holds the per-shard metric state of the sharded decode; the
	// one-shard decode uses shards[0].
	shards []*shard
	// workers is the SetWorkers request: ≤ 0 selects GOMAXPROCS.
	workers int
	// window is the coupling window W in trellis steps, a multiple of
	// checkpointEvery. NewViterbi sets couplingWindow; tests shrink it to
	// force the serial fallback.
	window int
	// fallbacks counts sharded decodes that did not couple within the
	// window and were redone in one shard.
	fallbacks int
	// hardLLR is the DecodeHard scratch mapping coded bits to ±1 LLRs.
	hardLLR []float64
}

// Sharded decode geometry, in trellis steps. A shard after the first starts
// from all-equal metrics and is exact once its normalised metric vector
// equals its predecessor's; the predecessor runs at most couplingWindow
// steps past the boundary looking for that step, comparing every
// checkpointEvery steps. A shard is at least minShardSteps long, so each
// coupling point lies inside the shard it starts and a 200-octet PSDU
// (1,622 steps) decodes in one shard.
const (
	couplingWindow  = 1024
	checkpointEvery = 16
	minShardSteps   = 1024
)

// shard is one contiguous range [lo, hi) of a sharded decode's trellis.
type shard struct {
	lo, hi int
	// metrics is the shard's path-metric vector, advanced in place; after
	// the last shard's run it holds the final metrics.
	metrics [numStates]int32
	// pq is the quantisation chunk: the (p, q) = (la+lb, la−lb) pairs of
	// the next run of steps the ACS kernel takes in one call.
	pq [acsChunk][2]int32
	// head[j] is the shard's normalised metric vector (m[s] − m[0]) at step
	// lo + j·checkpointEvery, recorded over its first window steps (shards
	// after the first); published counts the entries written, so the
	// predecessor may read head[:published] while this shard runs on.
	head      [][numStates]int32
	published atomic.Int32
	// tail[:tailN] are the normalised vectors at hi + j·checkpointEvery as
	// the shard runs on into its successor's range, with that stretch's
	// survivor words in overlap. coupled is the first j whose tail[j]
	// equals the successor's head[j], or −1 while none is known.
	tail    [][numStates]int32
	tailN   int
	overlap []uint64
	coupled int
}

// acsChunk is the number of trellis steps quantised ahead of one call of
// the ACS kernel.
const acsChunk = 64

// acsKernel advances the path metrics m in place over len(surv) trellis
// steps, taking step i's branch inputs (p, q) = (la+lb, la−lb) from pq[i]
// and writing its packed survivor bits to surv[i]. Bit s of a survivor word
// is 1 iff the odd predecessor of state s strictly wins. Every kernel
// computes the same int32 wrap-around arithmetic and so the same metrics
// and survivors, bit for bit.
type acsKernel func(m *[numStates]int32, pq [][2]int32, surv []uint64)

// namedKernel is one entry of acsKernels.
type namedKernel struct {
	name string
	run  acsKernel
}

// acs is the kernel every decode runs: the first of acsKernels, the host's
// fastest, chosen once at package initialisation. acsKernels (one per
// architecture file) lists every kernel the host can run; the tests run
// each decode over each of them.
var acs = acsKernels[0].run

// NewViterbi returns a decoder that decodes on the calling goroutine.
func NewViterbi() *Viterbi {
	return &Viterbi{workers: 1, window: couplingWindow}
}

// SetWorkers bounds how many cores one decode may use: n ≤ 0 selects
// GOMAXPROCS at decode time and 1 decodes on the calling goroutine.
// Trellises shorter than 2·1024 steps always decode in one shard.
func (v *Viterbi) SetWorkers(n int) { v.workers = n }

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
// Path metrics are int32. One scan finds the largest finite |llr|, and each
// step quantises its two LLRs with the power-of-two scale that maps that
// peak into (2^23, 2^24]. A power-of-two scale is exact in float64, so
// hard (±1) and small-integer inputs quantise to exact integer multiples
// and every metric sum and tie is the one float64 arithmetic gives. NaN
// quantises to an erasure (0) and ±Inf to ±2^24, the full scale; neither
// takes part in the peak scan. If the peak is below 2^-999 the scale is
// capped at 2^1023.
//
// Range: the metrics wrap around int32 and are never renormalised; every
// decision compares two metrics by the sign of their wrapped difference,
// which is exact while the true difference is below 2^31 in magnitude. A
// quantised LLR is at most 2^24, so a branch metric is at most 2^25. Once
// the six-step start-up has made every state reachable, any state reaches
// any other in six steps, so the metrics of one step lie within 6·2^26 of
// each other and every ACS difference is below 7·2^26 < 2^29. During the
// start-up the unreachable states carry −2^30 plus branch sums, so a
// reachable candidate beats an unreachable one by 2^30 ± 14·2^25 (between
// about 0.56·2^30 and 1.44·2^30), and two unreachable candidates differ
// exactly as two reachable ones do. The decisions, the normalised
// checkpoint vectors and the unterminated argmax are therefore those of
// exact integer arithmetic at any trellis length.
//
// The add-compare-select step runs over 32 radix-2 butterflies rather than
// 128 state×input edges. Both generators (133, 171 octal) include the top
// and bottom taps of the shift register, so flipping either the input bit
// or the oldest state bit complements both coded bits: the four edges of
// butterfly j (states 2j, 2j+1 → j, j+32) add ±b for one branch metric b
// drawn from ±p, ±q, where p = la+lb and q = la−lb (see acsStep). The
// selection is strictly-greater in ascending predecessor order, so the
// decoded bits equal those of the straightforward 128-edge sweep run over
// the quantised LLRs. Steps are quantised in chunks and handed to the ACS
// kernel (acs), which on amd64 hosts with AVX2 runs all 64 metrics in
// vector registers and otherwise is the generated Go step.
//
// With more than one worker the trellis is split into up to that many
// contiguous shards of at least 1024 steps, run concurrently. The result
// is the one-shard decode's, bit for bit: ACS decisions depend only on the
// differences between path metrics, and those are exact, so a shard
// started from all-equal metrics decides exactly as the full trellis does
// from the first step at which its normalised metric vector equals its
// predecessor's. The predecessor runs on past the boundary to find that
// step and supplies the survivors before it. A boundary that does not
// couple within the window makes the decode run again in one shard.
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

	n := v.layout(steps, v.shardCount(steps))
	if n > 1 && !v.runSharded(llr, scale, n) {
		v.fallbacks++
		n = v.layout(steps, 1)
	}
	if n == 1 {
		v.runShard(0, 1, llr, scale)
	}

	state := 0
	if !terminated {
		m := &v.shards[n-1].metrics
		for s := range m {
			if m[s]-m[state] > 0 { // wrapped difference, exact in range
				state = s
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

// shardCount is the number of shards a steps-long trellis splits into: one
// per worker, but none shorter than minShardSteps.
func (v *Viterbi) shardCount(steps int) int {
	return max(1, min(montecarlo.Workers(v.workers), steps/minShardSteps))
}

// layout splits [0, steps) into n near-equal shard ranges and returns n.
func (v *Viterbi) layout(steps, n int) int {
	v.ensureShards(n)
	for k, s := range v.shards[:n] {
		s.lo, s.hi = k*steps/n, (k+1)*steps/n
		s.published.Store(0)
	}
	return n
}

// runSharded runs the n shards concurrently, then joins them. It reports
// false, leaving the traceback matrix partly overwritten, when some
// boundary did not couple within the window.
func (v *Viterbi) runSharded(llr []float64, scale float64, n int) bool {
	_, err := montecarlo.Run(n, n,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, k int) (struct{}, error) {
			v.runShard(k, n, llr, scale)
			return struct{}{}, nil
		})
	return err == nil && v.join(n)
}

// join completes the traceback matrix of n finished shards: the survivors
// of each boundary stretch [lo, coupling step) come from the predecessor's
// overlap. It reports false when some boundary did not couple.
func (v *Viterbi) join(n int) bool {
	for k := 1; k < n; k++ {
		prev, s := v.shards[k-1], v.shards[k]
		c := prev.coupled
		for j := 0; c < 0 && j < prev.tailN; j++ {
			// Every head entry is published now; the predecessor stopped
			// comparing at the ones it could not see yet.
			if prev.tail[j] == s.head[j] {
				c = j
			}
		}
		if c < 0 {
			return false
		}
		copy(v.survivors[s.lo:], prev.overlap[:c*checkpointEvery])
	}
	return true
}

// runShard runs the ACS over shard k of n. Shard 0 starts from the encoder's
// state 0; a later shard starts from all-zero metrics and publishes its
// normalised vector at each checkpoint of its first window steps. A shard
// with a successor then runs on into the successor's range, writing the
// survivors to its overlap buffer, until its normalised vector equals the
// successor's at a checkpoint or the window is spent.
//
//mimonet:hot
func (v *Viterbi) runShard(k, n int, llr []float64, scale float64) {
	const unreachable = -1 << 30
	s := v.shards[k]
	s.metrics = [numStates]int32{}
	if k == 0 {
		for i := 1; i < numStates; i++ {
			s.metrics[i] = unreachable
		}
	}
	t := s.lo
	if k > 0 {
		for j := 0; ; j++ {
			normalise(&s.head[j], &s.metrics)
			s.published.Store(int32(j + 1))
			if j*checkpointEvery == v.window {
				break
			}
			s.advance(v.survivors[t:t+checkpointEvery], llr, t, scale)
			t += checkpointEvery
		}
	}
	s.advance(v.survivors[t:s.hi], llr, t, scale)
	if k+1 == n {
		return // the final metrics stay in s.metrics
	}
	next := v.shards[k+1]
	s.coupled, s.tailN = -1, 0
	compared := 0
	for j := 0; ; j++ {
		normalise(&s.tail[j], &s.metrics)
		s.tailN = j + 1
		for pub := int(next.published.Load()); compared < s.tailN && compared < pub; compared++ {
			if s.tail[compared] == next.head[compared] {
				s.coupled = compared
				return
			}
		}
		if j*checkpointEvery == v.window {
			return
		}
		s.advance(s.overlap[j*checkpointEvery:(j+1)*checkpointEvery], llr, s.hi+j*checkpointEvery, scale)
	}
}

// advance runs the ACS over the len(surv) trellis steps from step t0,
// writing each step's survivor word to surv: it quantises a chunk of steps
// into s.pq and hands the chunk to the kernel, until the run is done.
func (s *shard) advance(surv []uint64, llr []float64, t0 int, scale float64) {
	for len(surv) > 0 {
		pq := s.pq[:min(len(surv), acsChunk)]
		in := llr[2*t0 : 2*(t0+len(pq))]
		for i := range pq {
			la, lb := quantizeLLR(in[2*i], scale), quantizeLLR(in[2*i+1], scale)
			pq[i] = [2]int32{la + lb, la - lb}
		}
		acs(&s.metrics, pq, surv[:len(pq)])
		surv, t0 = surv[len(pq):], t0+len(pq)
	}
}

// acsGo is the portable kernel: the generated acsStep over each step,
// alternating between m and a stack vector.
func acsGo(m *[numStates]int32, pq [][2]int32, surv []uint64) {
	var spare [numStates]int32
	cur, nxt := m, &spare
	for i := range surv {
		surv[i] = acsStep(cur, nxt, pq[i][0], pq[i][1])
		cur, nxt = nxt, cur
	}
	if cur != m {
		*m = *cur
	}
}

// normalise writes m relative to state 0's metric into dst. The wrapped
// differences are the exact ones: checkpoints follow the six-step
// start-up, after which the metrics span less than 2^29.
func normalise(dst, m *[numStates]int32) {
	for s := range m {
		dst[s] = m[s] - m[0]
	}
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

// quantizeLLR scales x to an integer LLR, rounding half to even: NaN is an
// erasure and values past full scale (only ±Inf, given llrScale) clamp to
// it. Adding 1.5·2^52 to an |x| below 2^51 leaves x rounded to an integer,
// ties to even, in the low mantissa bits of the sum, so the common case
// takes one add and no rounding call.
func quantizeLLR(x, scale float64) int32 {
	const round = 0x1.8p52
	x *= scale
	switch {
	case x >= -llrFullScale && x <= llrFullScale:
		return int32(math.Float64bits(x + round))
	case x > 0:
		return llrFullScale
	case x < 0:
		return -llrFullScale
	}
	return 0 // NaN
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
		v.ensureShards(v.shardCount(steps))
	}
}

// ensureShards grows the shard set to n shards with checkpoint and overlap
// storage for the current window.
func (v *Viterbi) ensureShards(n int) {
	for len(v.shards) < n {
		v.shards = append(v.shards, &shard{})
	}
	cps := v.window/checkpointEvery + 1
	for _, s := range v.shards[1:n] {
		if len(s.head) < cps {
			s.head = make([][numStates]int32, cps)
		}
	}
	for _, s := range v.shards[:n-1] {
		if len(s.tail) < cps {
			s.tail = make([][numStates]int32, cps)
			s.overlap = make([]uint64, v.window)
		}
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
