package fec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// shardWorkers are the worker counts the sharded decode is checked at.
var shardWorkers = []int{1, 2, 3, 4, runtime.NumCPU()}

// awgnFrame encodes steps−6 random bits plus the tail at the given rate and
// returns the depunctured BPSK-over-AWGN LLRs (2y/σ²) at snrDB Es/N0.
func awgnFrame(r *rand.Rand, steps int, rate Rate, snrDB float64) []float64 {
	data := addTail(randBits(r, steps-(ConstraintLength-1)))
	coded := Encode(data, rate)
	sigma := math.Sqrt(math.Pow(10, -snrDB/10) / 2)
	llr := make([]float64, len(coded))
	for i, c := range coded {
		y := 1 - 2*float64(c) + sigma*r.NormFloat64()
		llr[i] = 2 * y / (sigma * sigma)
	}
	soft, err := Depuncture(llr, len(data), rate)
	if err != nil {
		panic(err)
	}
	return soft
}

// decodeAt decodes llr with a fresh decoder at the given worker count and
// reports how many sharded attempts fell back to one shard.
func decodeAt(t *testing.T, llr []float64, terminated bool, workers int) ([]byte, int) {
	t.Helper()
	v := NewViterbi()
	v.SetWorkers(workers)
	got, err := v.DecodeSoft(llr, terminated)
	if err != nil {
		t.Fatal(err)
	}
	return got, v.fallbacks
}

// TestViterbiShardedMatchesSerial checks the sharded decode against the
// one-shard decode and the float64 reference sweep on AWGN frames at every
// coding rate, Es/N0 from −1 to 30 dB, both terminations and worker counts
// 1–4 and NumCPU. The lengths sit just below the two-shard threshold, at
// it, and past the four-shard one. The largest PSDU's trellis (524,302
// steps) runs at every rate and worker count at one Es/N0 per rate, against
// the one-shard decode, and against the reference sweep at one rate. One
// decoder per worker count serves every frame, as a receiver's does, and
// from 5 dB up no boundary may fall back: the shards must really couple.
func TestViterbiShardedMatchesSerial(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(90))
		decoders := make([]*Viterbi, len(shardWorkers))
		for i, w := range shardWorkers {
			decoders[i] = NewViterbi()
			decoders[i].SetWorkers(w)
		}
		decode := func(i int, llr []float64, terminated bool) []byte {
			got, err := decoders[i].DecodeSoft(llr, terminated)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		rates := []Rate{Rate1_2, Rate2_3, Rate3_4, Rate5_6}
		lengths := []int{2*minShardSteps - 1, 2 * minShardSteps, 4*minShardSteps + 300}
		check := func(name string, llr []float64, snrDB float64, withReference bool) {
			t.Helper()
			for _, terminated := range []bool{true, false} {
				want := decode(0, llr, terminated)
				if withReference {
					if ref := referenceDecode(llr, terminated); !bytes.Equal(want, ref) {
						t.Fatalf("%s terminated=%v: one-shard decode differs from the reference sweep", name, terminated)
					}
				}
				for i, w := range shardWorkers[1:] {
					fallbacks := decoders[i+1].fallbacks
					if got := decode(i+1, llr, terminated); !bytes.Equal(got, want) {
						t.Fatalf("%s terminated=%v workers=%d: sharded decode differs from the one-shard decode", name, terminated, w)
					}
					if decoders[i+1].fallbacks != fallbacks {
						t.Logf("%s terminated=%v workers=%d: fell back to one shard", name, terminated, w)
						if snrDB >= 5 {
							t.Fatalf("%s: a boundary did not couple within %d steps", name, couplingWindow)
						}
					}
				}
			}
		}
		for _, rate := range rates {
			for snrDB := -1; snrDB <= 30; snrDB++ {
				for _, steps := range lengths {
					check(fmt.Sprintf("rate %v, %d dB, %d steps", rate, snrDB, steps),
						awgnFrame(r, steps, rate, float64(snrDB)), float64(snrDB), true)
				}
			}
		}
		const maxSteps = 16 + 8*65535 + ConstraintLength - 1
		for i, rate := range rates {
			snrDB := []float64{-1, 4, 10, 30}[i]
			check(fmt.Sprintf("rate %v, %g dB, %d steps", rate, snrDB, maxSteps),
				awgnFrame(r, maxSteps, rate, snrDB), snrDB, rate == Rate5_6)
		}
	})
}

// TestViterbiShardedNonFinite feeds the sharded decode NaN, ±Inf and
// all-zero inputs: NaN and ±Inf scattered through noisy frames, frames made
// only of erasures (every metric ties, so the shards couple at their first
// checkpoint) and frames made only of NaN. Every decode must equal the
// one-shard decode and the reference sweep over the replaced values.
func TestViterbiShardedNonFinite(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(91))
		steps := 3*minShardSteps + 77
		frames := map[string][2][]float64{} // name → {input, input with NaN→0, ±Inf→±peak}
		for trial := 0; trial < 4; trial++ {
			llr := awgnFrame(r, steps, Rate3_4, 2)
			peak := 0.0
			for _, x := range llr {
				peak = math.Max(peak, math.Abs(x))
			}
			bad := append([]float64(nil), llr...)
			fixed := append([]float64(nil), llr...)
			for k := 0; k < 200; k++ {
				i := r.Intn(len(llr))
				switch r.Intn(3) {
				case 0:
					bad[i], fixed[i] = math.NaN(), 0
				case 1:
					bad[i], fixed[i] = math.Inf(1), peak
				default:
					bad[i], fixed[i] = math.Inf(-1), -peak
				}
			}
			// Keep the finite peak in place so ±Inf maps to exactly ±peak.
			for i, x := range llr {
				if math.Abs(x) == peak {
					bad[i], fixed[i] = x, x
				}
			}
			frames[fmt.Sprintf("noisy %d", trial)] = [2][]float64{bad, fixed}
		}
		zeros := make([]float64, 2*steps)
		frames["all zero"] = [2][]float64{zeros, zeros}
		nans := make([]float64, 2*steps)
		for i := range nans {
			nans[i] = math.NaN()
		}
		frames["all NaN"] = [2][]float64{nans, zeros}
		for name, f := range frames {
			for _, terminated := range []bool{true, false} {
				ref := referenceDecode(f[1], terminated)
				for _, w := range shardWorkers {
					got, _ := decodeAt(t, f[0], terminated, w)
					if !bytes.Equal(got, ref) {
						t.Fatalf("%s terminated=%v workers=%d: decode differs from the reference sweep over the replaced values", name, terminated, w)
					}
				}
			}
		}
	})
}

// TestViterbiShardedFallback shrinks the coupling window until boundaries
// stop coupling, so the decode must fall back to one shard, and checks the
// result is still the one-shard decode. With a zero window a boundary
// couples only if the predecessor's metrics are all equal there, which
// noisy frames never give; the all-erasure frame still couples.
func TestViterbiShardedFallback(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(92))
		steps := 4 * minShardSteps
		for _, window := range []int{0, checkpointEvery, 4 * checkpointEvery} {
			v := NewViterbi()
			v.SetWorkers(4)
			v.window = window
			decodes := 0
			for snrDB := -1; snrDB <= 30; snrDB += 3 {
				llr := awgnFrame(r, steps, Rate5_6, float64(snrDB))
				for _, terminated := range []bool{true, false} {
					want, _ := decodeAt(t, llr, terminated, 1)
					got, err := v.DecodeSoft(llr, terminated)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("window %d, %d dB, terminated=%v: decode differs from the one-shard decode", window, snrDB, terminated)
					}
					decodes++
				}
			}
			if window == 0 && v.fallbacks != decodes {
				t.Fatalf("window 0: %d of %d decodes fell back, want all", v.fallbacks, decodes)
			}
			if window == checkpointEvery && v.fallbacks == 0 {
				t.Fatalf("window %d: no decode fell back, so the fallback went untested", window)
			}
			before := v.fallbacks
			zeros := make([]float64, 2*steps)
			got, err := v.DecodeSoft(zeros, true)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, referenceDecode(zeros, true)) {
				t.Fatalf("window %d: all-erasure decode differs from the reference sweep", window)
			}
			if v.fallbacks != before {
				t.Fatalf("window %d: the all-erasure frame did not couple at the shard boundaries", window)
			}
		}
	})
}

// TestViterbiShardedAllocs pins the sharded decode's allocations after
// Reserve: none with one worker, and at more workers a per-decode count
// set by the shard count (the worker goroutines), not by the trellis
// length.
func TestViterbiShardedAllocs(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(93))
		const maxSteps = 16 + 8*65535 + ConstraintLength - 1
		for _, workers := range shardWorkers {
			perDecode := -1.0
			for _, steps := range []int{max(workers, 2) * minShardSteps, 12022, maxSteps} {
				llr := awgnFrame(r, steps, Rate1_2, 6)
				v := NewViterbi()
				v.SetWorkers(workers)
				v.Reserve(steps)
				dst := make([]byte, steps)
				allocs := testing.AllocsPerRun(5, func() {
					if _, err := v.DecodeSoftInto(dst, llr, true); err != nil {
						t.Fatal(err)
					}
				})
				if v.fallbacks != 0 {
					t.Fatalf("workers=%d, %d steps: decode fell back to one shard", workers, steps)
				}
				switch {
				case workers == 1 && allocs != 0:
					t.Fatalf("workers=1, %d steps: %.0f allocations per decode after Reserve, want 0", steps, allocs)
				case perDecode >= 0 && allocs != perDecode:
					t.Fatalf("workers=%d: %.0f allocations per decode at %d steps, %.0f at the shortest length", workers, allocs, steps, perDecode)
				}
				perDecode = allocs
			}
			t.Logf("workers=%d: %.0f allocations per decode", workers, perDecode)
		}
	})
}

// TestViterbiShardedCouplingOrder runs the two shards of a decode one after
// the other, in both orders, on one reused decoder. Successor first, every
// checkpoint is published when the predecessor reaches the boundary, so it
// must stop at the first coupling checkpoint. Predecessor first, nothing
// of this decode is published yet — the previous decode's checkpoints must
// not count — so it must run the whole window and leave the match to the
// join. Either way the joined traceback matrix must equal the one-shard
// decode's, step for step.
func TestViterbiShardedCouplingOrder(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(94))
		serial, v := NewViterbi(), NewViterbi()
		v.SetWorkers(2)
		steps := 2 * minShardSteps
		for trial := 0; trial < 6; trial++ {
			llr := awgnFrame(r, steps, Rate5_6, float64(2*trial))
			if _, err := serial.DecodeSoft(llr, true); err != nil {
				t.Fatal(err)
			}
			scale := llrScale(llr)
			v.ensureTraceback(steps)
			for _, successorFirst := range []bool{true, false} {
				v.layout(steps, 2)
				if successorFirst {
					v.runShard(1, 2, llr, scale)
					v.runShard(0, 2, llr, scale)
				} else {
					v.runShard(0, 2, llr, scale)
				}
				prev, next := v.shards[0], v.shards[1]
				if successorFirst {
					first := -1
					for j := 0; first < 0 && j < len(next.head); j++ {
						if prev.tail[j] == next.head[j] {
							first = j
						}
					}
					if prev.coupled != first || prev.tailN != first+1 {
						t.Fatalf("trial %d: predecessor stopped at checkpoint %d after %d, first coupling is %d", trial, prev.coupled, prev.tailN, first)
					}
				} else {
					if prev.coupled != -1 || prev.tailN != v.window/checkpointEvery+1 {
						t.Fatalf("trial %d: predecessor coupled at %d (%d checkpoints) before its successor published any", trial, prev.coupled, prev.tailN)
					}
					v.runShard(1, 2, llr, scale)
				}
				if !v.join(2) {
					t.Fatalf("trial %d: boundary did not couple", trial)
				}
				for i, w := range serial.survivors[:steps] {
					if v.survivors[i] != w {
						t.Fatalf("trial %d successorFirst=%v: survivors of step %d differ from the one-shard decode", trial, successorFirst, i)
					}
				}
			}
		}
	})
}
