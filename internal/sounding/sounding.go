// Package sounding derives channel-state metrics from the receiver's MIMO
// channel estimate — the "evaluate the channel conditions" purpose the
// paper builds its instrumentation for: per-subcarrier Shannon capacity,
// condition number, and an effective-rank indicator that a transmitter can
// use to choose between spatial multiplexing and single-stream operation.
package sounding

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/cmatrix"
)

// Report summarizes one channel estimate.
type Report struct {
	// CapacityBps is the mean per-subcarrier Shannon capacity in
	// bit/s/Hz: log2 det(I + SNR/N_TX · HHᴴ).
	CapacityBps float64
	// MeanConditionDB is the mean condition number of H across live
	// subcarriers, in dB (singular-value spread; large = rank-starved).
	// Dead (all-zero) tones are excluded from the average and counted in
	// DeadSubcarriers instead, so one faded tone cannot poison the mean.
	MeanConditionDB float64
	// RecommendedStreams is the stream count that maximizes a rate
	// proxy: min(N_TX, N_RX) when the channel is well conditioned,
	// degrading toward 1 as the condition number grows.
	RecommendedStreams int
	// PerStreamSNRdB is the mean post-detection SNR each spatial stream
	// would see under linear ZF detection — snr / (N_TX·[(HᴴH)⁻¹]_ss),
	// averaged over the live subcarriers, in dB. len == RecommendedStreams'
	// upper bound min(N_RX, N_TX); empty when no tone was invertible. This
	// is the per-stream figure a precoding AP ranks stations by.
	PerStreamSNRdB []float64
	// DeadSubcarriers counts tones whose channel was effectively zero
	// (rank-deficient estimate, e.g. a deep notch or a broken estimate).
	DeadSubcarriers int
}

// deadToneFrobenius is the Frobenius-norm floor below which a subcarrier's
// channel is treated as dead rather than fed to the eigen/inversion path.
const deadToneFrobenius = 1e-9

// Analyzer computes Reports with scratch matrices reused across calls, so
// that a receiver analysing every packet's channel estimate allocates only
// the Report itself. The zero value is ready to use; an Analyzer is not
// safe for concurrent use.
type Analyzer struct {
	// hh and gram hold one tone's Hᴴ and HᴴH; inv and work the gram's
	// inverse and its elimination workspace; eig the Jacobi iterate and eigs
	// its eigenvalues.
	hh, gram, inv, work, eig *cmatrix.Matrix
	eigs                     []float64
	// snrAcc accumulates the per-stream ZF SNR across tones.
	snrAcc []float64
}

// Analyze computes the report from per-subcarrier channel matrices (as
// produced by chanest.HTEstimate.DataMatrices) at the given linear SNR.
// It is Analyzer.Analyze on a fresh Analyzer.
func Analyze(h []*cmatrix.Matrix, snr float64) (*Report, error) {
	var a Analyzer
	return a.Analyze(h, snr)
}

// Analyze computes the report from per-subcarrier channel matrices at the
// given linear SNR. Each tone's gram HᴴH is formed once and serves both the
// eigenvalues (capacity, condition) and the ZF noise gains.
//
// Rank-deficient input degrades gracefully rather than erroring: all-zero
// subcarriers are skipped (counted in DeadSubcarriers), and a channel whose
// every tone is dead yields a report recommending a single stream with zero
// capacity — the conservative fallback a transmitter can always act on.
func (a *Analyzer) Analyze(h []*cmatrix.Matrix, snr float64) (*Report, error) {
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
			maxStreams = min(hk.Rows, hk.Cols)
			snrAcc = a.zeroedSNRAcc(maxStreams)
		}
		if hk.FrobeniusNorm() < deadToneFrobenius {
			rep.DeadSubcarriers++
			continue
		}
		a.formGram(hk)
		c, cond, err := a.subcarrierMetrics(hk.Cols, snr)
		if err != nil {
			return nil, fmt.Errorf("sounding: subcarrier %d: %w", k, err)
		}
		capAcc += c
		condAcc += cond
		count++
		if diag, ok := a.zfNoiseGains(); ok {
			nt := float64(hk.Cols)
			for s := 0; s < maxStreams && s < diag.Rows; s++ {
				snrAcc[s] += snr / (nt * real(diag.At(s, s)))
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

// zeroedSNRAcc returns the per-stream accumulator resliced to n and zeroed.
func (a *Analyzer) zeroedSNRAcc(n int) []float64 {
	if cap(a.snrAcc) < n {
		a.snrAcc = make([]float64, n)
	}
	a.snrAcc = a.snrAcc[:n]
	for i := range a.snrAcc {
		a.snrAcc[i] = 0
	}
	return a.snrAcc
}

// formGram computes HᴴH for one tone into a.gram.
func (a *Analyzer) formGram(h *cmatrix.Matrix) {
	a.hh = h.HermitianInto(a.hh)
	a.gram = cmatrix.MulInto(a.gram, a.hh, h)
}

// zfNoiseGains inverts the gram in a.gram and returns the inverse, whose
// diagonal is the per-stream noise amplification of a ZF detector. A
// singular gram (rank-starved but not all-zero tone), or a diagonal entry
// that is not a positive finite number, reports ok=false and the tone is
// skipped from the per-stream average rather than failing the whole report.
func (a *Analyzer) zfNoiseGains() (inv *cmatrix.Matrix, ok bool) {
	inv, work, err := a.gram.InverseInto(a.inv, a.work)
	a.work = work
	if err != nil {
		return nil, false
	}
	a.inv = inv
	for i := 0; i < inv.Rows; i++ {
		d := real(inv.At(i, i))
		if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, false
		}
	}
	return inv, true
}

// ConditionDB returns the condition number of one subcarrier's channel
// matrix in dB — the singular-value spread that localises rank starvation to
// individual tones. A numerically singular matrix reports the 150 dB cap.
func ConditionDB(h *cmatrix.Matrix) (float64, error) {
	var a Analyzer
	a.formGram(h)
	// Condition is SNR-independent; any positive SNR works here.
	_, cond, err := a.subcarrierMetrics(h.Cols, 1)
	if err != nil {
		return 0, err
	}
	return 10 * math.Log10(cond), nil
}

// subcarrierMetrics returns capacity (bit/s/Hz) and the linear condition
// number (ratio of extreme eigenvalues of HᴴH) for the tone whose gram is
// in a.gram, with nt transmit streams.
func (a *Analyzer) subcarrierMetrics(nt int, snr float64) (capacity, condition float64, err error) {
	eig, err := a.eigenvalues(a.gram)
	if err != nil {
		return 0, 0, err
	}
	var c float64
	lmin, lmax := math.Inf(1), 0.0
	for _, l := range eig {
		if l < 0 {
			l = 0
		}
		c += math.Log2(1 + snr/float64(nt)*l)
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

// eigenvalues computes the eigenvalues of a small Hermitian PSD matrix by
// the cyclic Jacobi method (complex rotations), adequate for the ≤4×4
// matrices of this receiver. m is left untouched; the iterate lives in
// a.eig and the returned slice in a.eigs, both reused by the next call.
func (a *Analyzer) eigenvalues(m *cmatrix.Matrix) ([]float64, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("eigenvalues of non-square matrix")
	}
	n := m.Rows
	if a.eig == nil || cap(a.eig.Data) < n*n {
		a.eig = cmatrix.New(n, n)
	}
	a.eig.Rows, a.eig.Cols, a.eig.Data = n, n, a.eig.Data[:n*n]
	copy(a.eig.Data, m.Data)
	e := a.eig
	for sweep := 0; sweep < 50; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += sqAbs(e.At(i, j))
			}
		}
		if off < 1e-24 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := e.At(p, q)
				if cmplx.Abs(apq) < 1e-15 {
					continue
				}
				app := real(e.At(p, p))
				aqq := real(e.At(q, q))
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
					akp := e.At(k, p)
					akq := e.At(k, q)
					e.Set(k, p, akp*c-akq*s*cmplx.Conj(ephi))
					e.Set(k, q, akp*s*ephi+akq*c)
				}
				// A' = Jᴴ·B (rows p and q change).
				for k := 0; k < n; k++ {
					apk := e.At(p, k)
					aqk := e.At(q, k)
					e.Set(p, k, apk*c-aqk*s*ephi)
					e.Set(q, k, apk*s*cmplx.Conj(ephi)+aqk*c)
				}
			}
		}
	}
	if cap(a.eigs) < n {
		a.eigs = make([]float64, n)
	}
	out := a.eigs[:n]
	for i := range out {
		out[i] = real(e.At(i, i))
	}
	return out, nil
}

func sqAbs(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

// recommendStreams maps the mean condition number to a stream count:
// a rank-starved channel (condition ≫ 10 dB per excess stream) should fall
// back to fewer streams.
func recommendStreams(maxStreams int, condDB float64) int {
	s := maxStreams
	for s > 1 && condDB > 15*float64(maxStreams-s+1) {
		s--
	}
	return s
}
