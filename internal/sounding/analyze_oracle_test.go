package sounding

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/cmatrix"
)

// analyzeOracle is the per-tone analysis as it stood before Analyzer: a
// fresh HᴴH for the eigenvalues and another for the ZF noise gains, every
// matrix and slice allocated per call. It pins that the scratch-reusing
// Analyzer computes the same Report bit for bit.
func analyzeOracle(h []*cmatrix.Matrix, snr float64) (*Report, error) {
	if len(h) == 0 {
		return nil, fmt.Errorf("sounding: no channel matrices")
	}
	if snr <= 0 {
		return nil, fmt.Errorf("sounding: SNR must be positive")
	}
	var capAcc, condAcc float64
	var count int
	maxStreams := 0
	rep := &Report{}
	var snrAcc []float64
	var snrCount int
	allNil := true
	for k, hk := range h {
		if hk == nil {
			continue
		}
		allNil = false
		if maxStreams == 0 {
			maxStreams = hk.Rows
			if hk.Cols < maxStreams {
				maxStreams = hk.Cols
			}
			snrAcc = make([]float64, maxStreams)
		}
		if hk.FrobeniusNorm() < deadToneFrobenius {
			rep.DeadSubcarriers++
			continue
		}
		c, cond, err := oracleSubcarrierMetrics(hk, snr)
		if err != nil {
			return nil, fmt.Errorf("sounding: subcarrier %d: %w", k, err)
		}
		capAcc += c
		condAcc += cond
		count++
		if diag, ok := oracleZFNoiseGains(hk); ok {
			nt := float64(hk.Cols)
			for s := 0; s < maxStreams && s < len(diag); s++ {
				snrAcc[s] += snr / (nt * diag[s])
			}
			snrCount++
		}
	}
	if allNil {
		return nil, fmt.Errorf("sounding: all matrices nil")
	}
	if count == 0 {
		// Every tone dead: degrade to the single-stream fallback instead of
		// failing — the caller still gets an actionable recommendation.
		rep.MeanConditionDB = 150
		rep.RecommendedStreams = 1
		return rep, nil
	}
	rep.CapacityBps = capAcc / float64(count)
	rep.MeanConditionDB = 10 * math.Log10(condAcc/float64(count))
	rep.RecommendedStreams = recommendStreams(maxStreams, rep.MeanConditionDB)
	if snrCount > 0 {
		rep.PerStreamSNRdB = make([]float64, maxStreams)
		for s := range rep.PerStreamSNRdB {
			rep.PerStreamSNRdB[s] = 10 * math.Log10(snrAcc[s]/float64(snrCount))
		}
	}
	return rep, nil
}

// oracleZFNoiseGains returns the diagonal of (HᴴH)⁻¹ — the per-stream noise
// amplification of a ZF detector. A singular gram (rank-starved but not
// all-zero tone) reports ok=false and the tone is skipped from the
// per-stream average rather than failing the whole report.
func oracleZFNoiseGains(h *cmatrix.Matrix) ([]float64, bool) {
	gram := cmatrix.Mul(h.Hermitian(), h)
	inv, err := gram.Inverse()
	if err != nil {
		return nil, false
	}
	diag := make([]float64, gram.Rows)
	for i := range diag {
		d := real(inv.At(i, i))
		if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, false
		}
		diag[i] = d
	}
	return diag, true
}

// oracleSubcarrierMetrics returns capacity (bit/s/Hz) and the linear condition
// number (ratio of extreme eigenvalues of HᴴH) for one subcarrier.
func oracleSubcarrierMetrics(h *cmatrix.Matrix, snr float64) (capacity, condition float64, err error) {
	gram := cmatrix.Mul(h.Hermitian(), h)
	eig, err := oracleEigenvalues(gram)
	if err != nil {
		return 0, 0, err
	}
	nt := float64(h.Cols)
	var c float64
	lmin, lmax := math.Inf(1), 0.0
	for _, l := range eig {
		if l < 0 {
			l = 0
		}
		c += math.Log2(1 + snr/nt*l)
		if l < lmin {
			lmin = l
		}
		if l > lmax {
			lmax = l
		}
	}
	if lmin <= 1e-15 {
		return c, 1e15, nil
	}
	return c, lmax / lmin, nil
}

// oracleEigenvalues computes the eigenvalues of a small Hermitian PSD
// matrix by the cyclic Jacobi method (complex rotations), adequate for the
// ≤4×4 matrices of this receiver.
func oracleEigenvalues(m *cmatrix.Matrix) ([]float64, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("eigenvalues of non-square matrix")
	}
	n := m.Rows
	a := m.Clone()
	for sweep := 0; sweep < 50; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += sqAbs(a.At(i, j))
			}
		}
		if off < 1e-24 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if cmplx.Abs(apq) < 1e-15 {
					continue
				}
				app := real(a.At(p, p))
				aqq := real(a.At(q, q))
				// Complex Jacobi rotation A ← JᴴAJ zeroing a[p][q], with
				// J[p][p]=c, J[p][q]=s·e^{jφ}, J[q][p]=−s·e^{−jφ}, J[q][q]=c
				// and φ = arg(a[p][q]).
				ephi := cmplx.Exp(complex(0, cmplx.Phase(apq)))
				g := cmplx.Abs(apq)
				theta := 0.5 * math.Atan2(2*g, aqq-app)
				c := complex(math.Cos(theta), 0)
				s := complex(math.Sin(theta), 0)
				// B = A·J (columns p and q change).
				for k := 0; k < n; k++ {
					akp := a.At(k, p)
					akq := a.At(k, q)
					a.Set(k, p, akp*c-akq*s*cmplx.Conj(ephi))
					a.Set(k, q, akp*s*ephi+akq*c)
				}
				// A' = Jᴴ·B (rows p and q change).
				for k := 0; k < n; k++ {
					apk := a.At(p, k)
					aqk := a.At(q, k)
					a.Set(p, k, apk*c-aqk*s*ephi)
					a.Set(q, k, apk*s*cmplx.Conj(ephi)+aqk*c)
				}
			}
		}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = real(a.At(i, i))
	}
	return out, nil
}

// oracleChannel builds nTones seeded rows×cols channel matrices with
// optional nil, dead (all-zero) and singular (two equal columns) tones.
func oracleChannel(r *rand.Rand, nTones, rows, cols int, nilTone, deadTone, singularTone int) []*cmatrix.Matrix {
	h := make([]*cmatrix.Matrix, nTones)
	for k := range h {
		if k == nilTone {
			continue
		}
		m := cmatrix.New(rows, cols)
		if k != deadTone {
			for i := range m.Data {
				m.Data[i] = complex(r.NormFloat64(), r.NormFloat64()) * complex(0.3+r.Float64(), 0)
			}
		}
		if k == singularTone && cols > 1 {
			for i := 0; i < rows; i++ {
				m.Set(i, 1, m.At(i, 0))
			}
		}
		h[k] = m
	}
	return h
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameReport(a, b *Report) bool {
	if !sameFloat(a.CapacityBps, b.CapacityBps) || !sameFloat(a.MeanConditionDB, b.MeanConditionDB) ||
		a.RecommendedStreams != b.RecommendedStreams || a.DeadSubcarriers != b.DeadSubcarriers ||
		len(a.PerStreamSNRdB) != len(b.PerStreamSNRdB) || (a.PerStreamSNRdB == nil) != (b.PerStreamSNRdB == nil) {
		return false
	}
	for i := range a.PerStreamSNRdB {
		if !sameFloat(a.PerStreamSNRdB[i], b.PerStreamSNRdB[i]) {
			return false
		}
	}
	return true
}

// TestAnalyzerMatchesOracle runs one Analyzer, reused across calls and
// shapes, against the oracle on seeded 52-tone channels from 1×1 to 4×4,
// with and without a nil, a dead and a singular tone, on rank-one and
// all-dead channels, at several SNRs: the Reports must be identical.
func TestAnalyzerMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var a Analyzer
	cases := 0
	for trial := 0; trial < 8; trial++ {
		for rows := 1; rows <= 4; rows++ {
			for cols := 1; cols <= 4; cols++ {
				for _, special := range []bool{false, true} {
					nilTone, dead, singular := -1, -1, -1
					if special {
						nilTone, dead, singular = r.Intn(52), r.Intn(52), r.Intn(52)
					}
					h := oracleChannel(r, 52, rows, cols, nilTone, dead, singular)
					snr := math.Pow(10, float64(r.Intn(40))/10)
					want, werr := analyzeOracle(h, snr)
					got, gerr := a.Analyze(h, snr)
					if (werr != nil) != (gerr != nil) {
						t.Fatalf("%dx%d: error %v, oracle %v", rows, cols, gerr, werr)
					}
					if werr == nil && !sameReport(got, want) {
						t.Fatalf("%dx%d special=%v: report %+v, oracle %+v", rows, cols, special, got, want)
					}
					cases++
				}
			}
		}
	}
	// Rank one on every tone, and every tone dead.
	for _, h := range [][]*cmatrix.Matrix{
		{cmatrix.FromRows([][]complex128{{1, 1}, {1, 1}}), cmatrix.FromRows([][]complex128{{2, 2i}, {1, 1i}})},
		{cmatrix.New(2, 2), cmatrix.New(2, 2)},
	} {
		want, _ := analyzeOracle(h, 100)
		got, _ := a.Analyze(h, 100)
		if !sameReport(got, want) {
			t.Fatalf("report %+v, oracle %+v", got, want)
		}
	}
	if cases != 8*16*2 {
		t.Fatalf("ran %d cases", cases)
	}
}

// TestAnalyzerAllocatesOnlyTheReport pins that a warmed Analyzer allocates
// the Report and its per-stream slice and nothing per tone: dead and
// singular tones included, since a singular inversion returns the fixed
// cmatrix.ErrSingular.
func TestAnalyzerAllocatesOnlyTheReport(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, singular := range []int{-1, 7} {
		h := oracleChannel(r, 52, 2, 2, -1, 3, singular)
		var a Analyzer
		if _, err := a.Analyze(h, 300); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := a.Analyze(h, 300); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("singular tone %d: Analyze allocated %.0f times per call, want at most 2 (the Report and PerStreamSNRdB)", singular, allocs)
		}
	}
}
