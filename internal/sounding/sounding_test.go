package sounding

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cmatrix"
)

func TestEigenvaluesKnown(t *testing.T) {
	// Diagonal matrix: eigenvalues are the diagonal.
	m := cmatrix.FromRows([][]complex128{{3, 0}, {0, 7}})
	eig, err := new(Analyzer).eigenvalues(m)
	if err != nil {
		t.Fatal(err)
	}
	sort.Float64s(eig)
	if math.Abs(eig[0]-3) > 1e-9 || math.Abs(eig[1]-7) > 1e-9 {
		t.Errorf("eig = %v, want [3 7]", eig)
	}
	// Hermitian with complex off-diagonal: [[2, i],[−i, 2]] has eigenvalues 1, 3.
	m2 := cmatrix.FromRows([][]complex128{{2, 1i}, {-1i, 2}})
	eig2, err := new(Analyzer).eigenvalues(m2)
	if err != nil {
		t.Fatal(err)
	}
	sort.Float64s(eig2)
	if math.Abs(eig2[0]-1) > 1e-9 || math.Abs(eig2[1]-3) > 1e-9 {
		t.Errorf("eig = %v, want [1 3]", eig2)
	}
}

func TestEigenvaluesMatchTraceAndDet(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 2 + trial%3
		h := cmatrix.New(n, n)
		for i := range h.Data {
			h.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		gram := cmatrix.Mul(h.Hermitian(), h) // Hermitian PSD
		eig, err := new(Analyzer).eigenvalues(gram)
		if err != nil {
			t.Fatal(err)
		}
		var trace, prod float64 = 0, 1
		for _, l := range eig {
			trace += l
			prod *= l
		}
		var wantTrace float64
		for i := 0; i < n; i++ {
			wantTrace += real(gram.At(i, i))
		}
		det, _ := gram.Det()
		if math.Abs(trace-wantTrace) > 1e-8*math.Abs(wantTrace)+1e-10 {
			t.Fatalf("trial %d: Σλ = %g, trace = %g", trial, trace, wantTrace)
		}
		if math.Abs(prod-real(det)) > 1e-6*math.Abs(real(det))+1e-9 {
			t.Fatalf("trial %d: Πλ = %g, det = %g", trial, prod, real(det))
		}
	}
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(nil, 10); err == nil {
		t.Error("no matrices should fail")
	}
	if _, err := Analyze([]*cmatrix.Matrix{cmatrix.Identity(2)}, 0); err == nil {
		t.Error("zero SNR should fail")
	}
	if _, err := Analyze([]*cmatrix.Matrix{nil, nil}, 10); err == nil {
		t.Error("all-nil matrices should fail")
	}
}

func TestAnalyzeIdentityChannel(t *testing.T) {
	// H = I (2x2): capacity = 2·log2(1+SNR/2), condition number 1,
	// recommend 2 streams.
	h := []*cmatrix.Matrix{cmatrix.Identity(2)}
	rep, err := Analyze(h, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * math.Log2(1+50)
	if math.Abs(rep.CapacityBps-want) > 1e-9 {
		t.Errorf("capacity %g, want %g", rep.CapacityBps, want)
	}
	if math.Abs(rep.MeanConditionDB) > 1e-9 {
		t.Errorf("condition %g dB, want 0", rep.MeanConditionDB)
	}
	if rep.RecommendedStreams != 2 {
		t.Errorf("recommended %d streams, want 2", rep.RecommendedStreams)
	}
}

func TestAnalyzeRankOneChannel(t *testing.T) {
	// Rank-1 H (keyhole): enormous condition number, recommend 1 stream,
	// capacity ≈ single-stream.
	h := []*cmatrix.Matrix{cmatrix.FromRows([][]complex128{{1, 1}, {1, 1}})}
	rep, err := Analyze(h, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecommendedStreams != 1 {
		t.Errorf("rank-1 channel recommended %d streams", rep.RecommendedStreams)
	}
	if rep.MeanConditionDB < 60 {
		t.Errorf("rank-1 condition only %g dB", rep.MeanConditionDB)
	}
	// Capacity = log2(1 + SNR/2·4) (single eigenvalue 4).
	want := math.Log2(1 + 200)
	if math.Abs(rep.CapacityBps-want) > 1e-6 {
		t.Errorf("capacity %g, want %g", rep.CapacityBps, want)
	}
}

func TestCapacityGrowsWithSNRAndRank(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	h := cmatrix.New(2, 2)
	for i := range h.Data {
		h.Data[i] = complex(r.NormFloat64(), r.NormFloat64()) * complex(math.Sqrt(0.5), 0)
	}
	hs := []*cmatrix.Matrix{h}
	lo, err := Analyze(hs, 10)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Analyze(hs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if hi.CapacityBps <= lo.CapacityBps {
		t.Error("capacity did not grow with SNR")
	}
}
