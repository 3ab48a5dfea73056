package fec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forEachKernel runs f as one subtest per ACS kernel the host can run
// (acsKernels), with that kernel installed as the one every decode uses.
// Every Viterbi test runs its decodes through it, so on an AVX2 host both
// the vector and the portable kernel decode the whole corpus.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(k acsKernel) { acs = k }(acs)
	for _, k := range acsKernels {
		acs = k.run
		t.Run(k.name, f)
	}
}

// TestACSKernelsAgree runs every kernel against the portable one over the
// same metrics and branch inputs, in runs of 0 to 70 steps, and requires
// the same metrics after each run and the same survivor word at each
// step. The inputs are random metrics anywhere in int32 with random branch
// inputs up to full scale, small integers that tie often, and a long
// stretch of full-scale (±2^24) LLRs from the decoder's start vector, over
// which the metrics wrap around int32 many times.
func TestACSKernelsAgree(t *testing.T) {
	const fullScale = 1 << llrBits
	r := rand.New(rand.NewSource(95))
	uniform := func(m int32) int32 { return int32(r.Int63n(2*int64(m)+1) - int64(m)) }
	cases := []struct {
		name  string
		start func(m *[numStates]int32)
		llr   func() int32
		steps int
	}{
		{"random", func(m *[numStates]int32) {
			for s := range m {
				m[s] = int32(r.Uint32())
			}
		}, func() int32 { return uniform(fullScale) }, 4000},
		{"ties", func(m *[numStates]int32) {
			for s := range m {
				m[s] = uniform(3)
			}
		}, func() int32 { return uniform(2) }, 4000},
		{"full scale", func(m *[numStates]int32) {
			*m = [numStates]int32{}
			for s := 1; s < numStates; s++ {
				m[s] = -1 << 30
			}
		}, func() int32 { return fullScale * (2*int32(r.Intn(2)) - 1) }, 40000},
	}
	for _, k := range acsKernels {
		for _, c := range cases {
			var want, got [numStates]int32
			c.start(&want)
			got = want
			pq := make([][2]int32, c.steps)
			for i := range pq {
				la, lb := c.llr(), c.llr()
				pq[i] = [2]int32{la + lb, la - lb}
			}
			wantSurv, gotSurv := make([]uint64, c.steps), make([]uint64, c.steps)
			for t0 := 0; t0 < c.steps; {
				n := min(r.Intn(71), c.steps-t0)
				acsGo(&want, pq[t0:t0+n], wantSurv[t0:t0+n])
				k.run(&got, pq[t0:t0+n], gotSurv[t0:t0+n])
				for i := t0; i < t0+n; i++ {
					if gotSurv[i] != wantSurv[i] {
						t.Fatalf("%s, %s: survivors of step %d are %#x, want %#x", k.name, c.name, i, gotSurv[i], wantSurv[i])
					}
				}
				if got != want {
					t.Fatalf("%s, %s: metrics after step %d differ from the portable kernel's", k.name, c.name, t0+n)
				}
				t0 += n
			}
		}
	}
}

// BenchmarkACSKernel times each kernel alone over noisy branch inputs, in
// runs of acsChunk steps as the decoder calls it.
func BenchmarkACSKernel(b *testing.B) {
	r := rand.New(rand.NewSource(96))
	pq := make([][2]int32, acsChunk)
	for i := range pq {
		la, lb := int32(r.NormFloat64()*(1<<22)), int32(r.NormFloat64()*(1<<22))
		pq[i] = [2]int32{la + lb, la - lb}
	}
	surv := make([]uint64, acsChunk)
	for _, k := range acsKernels {
		b.Run(fmt.Sprintf("kernel=%s", k.name), func(b *testing.B) {
			var m [numStates]int32
			for i := 0; i < b.N; i++ {
				k.run(&m, pq, surv)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*acsChunk), "ns/step")
		})
	}
}

// TestQuantizeLLR pins quantizeLLR to scaling, rounding half to even and
// clamping, on random values, exact halves, the full-scale edges, ±Inf
// and NaN.
func TestQuantizeLLR(t *testing.T) {
	r := rand.New(rand.NewSource(98))
	const fs = llrFullScale
	check := func(x, scale float64, want int32) {
		t.Helper()
		if got := quantizeLLR(x, scale); got != want {
			t.Fatalf("quantizeLLR(%v, %v) = %d, want %d", x, scale, got, want)
		}
	}
	for i := 0; i < 100000; i++ {
		x := (2*r.Float64() - 1) * fs
		if i%2 == 0 {
			x = math.Trunc(x) + 0.5 // a tie
		}
		scale := math.Ldexp(1, r.Intn(40)-20)
		check(x/scale, scale, int32(math.RoundToEven(x)))
	}
	for _, c := range []struct {
		x    float64
		want int32
	}{
		{fs, fs}, {-fs, -fs}, {fs - 0.5, fs}, {-fs + 0.5, -fs}, {0.5, 0}, {-0.5, 0}, {1.5, 2}, {-2.5, -2},
		{math.Inf(1), fs}, {math.Inf(-1), -fs}, {math.NaN(), 0}, {0, 0}, {math.Copysign(0, -1), 0},
	} {
		check(c.x, 1, c.want)
	}
}
