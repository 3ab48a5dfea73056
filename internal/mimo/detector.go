package mimo

import (
	"fmt"
	"math"

	"repro/internal/cmatrix"
	"repro/internal/modem"
)

// Detector separates spatially multiplexed streams on one subcarrier.
//
// The lifecycle mirrors a real receiver: Prepare is called once per packet
// with the channel estimate for every data subcarrier (the channel is
// assumed static over a packet, as in the paper's indoor setting), then
// Detect runs per subcarrier per OFDM symbol. Implementations precompute
// per-subcarrier weights in Prepare so Detect stays cheap.
//
// Detect appends N_BPSCS log-likelihood ratios for each spatial stream to
// llr[iss] and returns the extended slices. Equalize writes the per-stream
// symbol estimates for EVM and SNR measurement.
type Detector interface {
	Name() string
	Prepare(h []*cmatrix.Matrix, noiseVar float64) error
	Detect(llr [][]float64, k int, y []complex128) ([][]float64, error)
	Equalize(dst []complex128, k int, y []complex128) error
}

// linearDetector implements ZF and MMSE, which differ only in the weight
// matrix computed during Prepare.
//
// Prepare runs once per packet (and once per symbol under decision-directed
// tracking), so all of its working matrices are held on the detector and
// reused: after the first packet of a steady-state link, Prepare allocates
// nothing.
type linearDetector struct {
	name     string
	mmse     bool
	nss      int
	demapper *modem.Demapper
	noiseVar float64
	// Per-subcarrier state.
	w    []*cmatrix.Matrix // weight matrix
	csi  [][]float64       // per-stream effective CSI weight (1/noise-enhancement)
	sbuf []complex128
	// Prepare scratch, reused across calls.
	hh, gram, gi, work, bias *cmatrix.Matrix
}

// NewZF returns a zero-forcing detector (W = (HᴴH)⁻¹Hᴴ) for nss streams of
// the given constellation.
func NewZF(scheme modem.Scheme, nss int) BatchDetector {
	return &linearDetector{name: "zf", nss: nss, demapper: modem.NewDemapper(scheme), sbuf: make([]complex128, nss)}
}

// NewMMSE returns an MMSE detector (W = (HᴴH + σ²I)⁻¹Hᴴ with per-stream
// bias removal) for nss streams of the given constellation.
func NewMMSE(scheme modem.Scheme, nss int) BatchDetector {
	return &linearDetector{name: "mmse", mmse: true, nss: nss, demapper: modem.NewDemapper(scheme), sbuf: make([]complex128, nss)}
}

func (d *linearDetector) Name() string { return d.name }

func (d *linearDetector) Prepare(h []*cmatrix.Matrix, noiseVar float64) error {
	if noiseVar <= 0 {
		noiseVar = 1e-12
	}
	d.noiseVar = noiseVar
	if cap(d.w) >= len(h) {
		d.w = d.w[:len(h)]
		d.csi = d.csi[:len(h)]
	} else {
		d.w = make([]*cmatrix.Matrix, len(h))
		d.csi = make([][]float64, len(h))
	}
	for k, hk := range h {
		if hk.Cols != d.nss {
			return fmt.Errorf("mimo: channel at subcarrier %d has %d columns, want %d", k, hk.Cols, d.nss)
		}
		if hk.Rows < d.nss {
			return fmt.Errorf("mimo: %d receive antennas cannot separate %d streams linearly", hk.Rows, d.nss)
		}
		d.hh = hk.HermitianInto(d.hh)
		hh := d.hh
		d.gram = cmatrix.MulInto(d.gram, hh, hk)
		if d.mmse {
			d.gram.AddScaledIdentity(complex(noiseVar, 0))
		}
		gi, work, err := d.gram.InverseInto(d.gi, d.work)
		d.gi, d.work = gi, work
		if err != nil {
			return fmt.Errorf("mimo: subcarrier %d: %w", k, err)
		}
		w := cmatrix.MulInto(d.w[k], gi, hh)
		csi := d.csi[k]
		if cap(csi) >= d.nss {
			csi = csi[:d.nss]
		} else {
			csi = make([]float64, d.nss)
		}
		if d.mmse {
			// Unbias: scale row i by 1/(WH)_{ii}; the post-detection SINR of
			// stream i is 1/(σ²·Gi_{ii}) − 1 · ... derive from the unbiased
			// residual: with B = WH, estimate ŝ_i = B_ii s_i + Σ_{j≠i} B_ij s_j + (Wn)_i.
			d.bias = cmatrix.MulInto(d.bias, w, hk)
			b := d.bias
			for i := 0; i < d.nss; i++ {
				bii := b.At(i, i)
				if bii == 0 {
					return fmt.Errorf("mimo: subcarrier %d stream %d: zero MMSE bias term", k, i)
				}
				// Residual interference power after unbiasing.
				var interf float64
				for j := 0; j < d.nss; j++ {
					if j == i {
						continue
					}
					r := b.At(i, j) / bii
					interf += real(r)*real(r) + imag(r)*imag(r)
				}
				// Noise power: σ²·‖row_i(W)/B_ii‖².
				var nrow float64
				for j := 0; j < hk.Rows; j++ {
					r := w.At(i, j) / bii
					nrow += real(r)*real(r) + imag(r)*imag(r)
				}
				v := noiseVar*nrow + interf
				if v <= 0 {
					v = 1e-12
				}
				csi[i] = noiseVar / v
				// Fold the unbiasing into the weight row.
				for j := 0; j < hk.Rows; j++ {
					w.Set(i, j, w.At(i, j)/bii)
				}
			}
		} else {
			// ZF: noise on stream i is σ²·‖row_i(W)‖² = σ²·[(HᴴH)⁻¹]_{ii}.
			for i := 0; i < d.nss; i++ {
				var nrow float64
				for j := 0; j < hk.Rows; j++ {
					r := w.At(i, j)
					nrow += real(r)*real(r) + imag(r)*imag(r)
				}
				if nrow <= 0 {
					nrow = 1e-12
				}
				csi[i] = 1 / nrow
			}
		}
		d.w[k] = w
		d.csi[k] = csi
	}
	return nil
}

func (d *linearDetector) checkPrepared(k int) error {
	if d.w == nil {
		return fmt.Errorf("mimo: %s detector used before Prepare", d.name)
	}
	if k < 0 || k >= len(d.w) {
		return fmt.Errorf("mimo: subcarrier %d out of range [0,%d)", k, len(d.w))
	}
	return nil
}

func (d *linearDetector) Detect(llr [][]float64, k int, y []complex128) ([][]float64, error) {
	if err := d.checkPrepared(k); err != nil {
		return llr, err
	}
	if len(llr) != d.nss {
		return llr, fmt.Errorf("mimo: %d LLR streams, want %d", len(llr), d.nss)
	}
	d.w[k].MulVecInto(d.sbuf, y)
	for i := 0; i < d.nss; i++ {
		llr[i] = d.demapper.SoftOne(llr[i], d.sbuf[i], d.noiseVar, d.csi[k][i])
	}
	return llr, nil
}

func (d *linearDetector) Equalize(dst []complex128, k int, y []complex128) error {
	if err := d.checkPrepared(k); err != nil {
		return err
	}
	if len(dst) != d.nss {
		return fmt.Errorf("mimo: Equalize dst length %d, want %d", len(dst), d.nss)
	}
	d.w[k].MulVecInto(dst, y)
	return nil
}

// mlDetector performs exhaustive joint maximum-likelihood detection with
// per-bit max-log LLRs. Complexity is M^N_SS per subcarrier, so construction
// rejects configurations beyond 2^16 hypotheses.
type mlDetector struct {
	nss      int
	nbpsc    int
	points   []complex128
	h        []*cmatrix.Matrix
	noiseVar float64
	// scratch
	hyp  []complex128
	best []int
}

// NewML returns a maximum-likelihood joint detector, or an error when the
// joint constellation is too large to search.
func NewML(scheme modem.Scheme, nss int) (BatchDetector, error) {
	nbpsc := scheme.BitsPerSymbol()
	total := nss * nbpsc
	if total > 16 {
		return nil, fmt.Errorf("mimo: ML with %d streams of %v needs 2^%d hypotheses; not supported", nss, scheme, total)
	}
	return &mlDetector{
		nss:    nss,
		nbpsc:  nbpsc,
		points: modem.NewMapper(scheme).Points(),
		hyp:    make([]complex128, nss),
		best:   make([]int, nss),
	}, nil
}

func (d *mlDetector) Name() string { return "ml" }

func (d *mlDetector) Prepare(h []*cmatrix.Matrix, noiseVar float64) error {
	for k, hk := range h {
		if hk.Cols != d.nss {
			return fmt.Errorf("mimo: channel at subcarrier %d has %d columns, want %d", k, hk.Cols, d.nss)
		}
	}
	if noiseVar <= 0 {
		noiseVar = 1e-12
	}
	d.h = h
	d.noiseVar = noiseVar
	return nil
}

func (d *mlDetector) Detect(llr [][]float64, k int, y []complex128) ([][]float64, error) {
	if d.h == nil {
		return llr, fmt.Errorf("mimo: ml detector used before Prepare")
	}
	if k < 0 || k >= len(d.h) {
		return llr, fmt.Errorf("mimo: subcarrier %d out of range", k)
	}
	if len(llr) != d.nss {
		return llr, fmt.Errorf("mimo: %d LLR streams, want %d", len(llr), d.nss)
	}
	h := d.h[k]
	m := len(d.points)
	totalBits := d.nss * d.nbpsc
	// d0[b], d1[b]: best squared distance with joint bit b = 0 / 1.
	var d0, d1 [16]float64
	for b := 0; b < totalBits; b++ {
		d0[b], d1[b] = math.Inf(1), math.Inf(1)
	}
	nHyp := 1
	for i := 0; i < d.nss; i++ {
		nHyp *= m
	}
	for hyp := 0; hyp < nHyp; hyp++ {
		// Decompose the hypothesis index into per-stream point indices.
		rem := hyp
		for i := 0; i < d.nss; i++ {
			d.best[i] = rem % m
			rem /= m
		}
		// Distance ‖y − H·s‖².
		var dist float64
		for r := 0; r < h.Rows; r++ {
			var acc complex128
			for c := 0; c < d.nss; c++ {
				acc += h.At(r, c) * d.points[d.best[c]]
			}
			diff := y[r] - acc
			dist += real(diff)*real(diff) + imag(diff)*imag(diff)
		}
		for i := 0; i < d.nss; i++ {
			pt := d.best[i]
			for b := 0; b < d.nbpsc; b++ {
				idx := i*d.nbpsc + b
				if (pt>>uint(b))&1 == 0 {
					if dist < d0[idx] {
						d0[idx] = dist
					}
				} else if dist < d1[idx] {
					d1[idx] = dist
				}
			}
		}
	}
	for i := 0; i < d.nss; i++ {
		for b := 0; b < d.nbpsc; b++ {
			idx := i*d.nbpsc + b
			llr[i] = append(llr[i], (d1[idx]-d0[idx])/d.noiseVar)
		}
	}
	return llr, nil
}

// Equalize returns the hard joint-ML decision points.
func (d *mlDetector) Equalize(dst []complex128, k int, y []complex128) error {
	if d.h == nil {
		return fmt.Errorf("mimo: ml detector used before Prepare")
	}
	if len(dst) != d.nss {
		return fmt.Errorf("mimo: Equalize dst length %d, want %d", len(dst), d.nss)
	}
	h := d.h[k]
	m := len(d.points)
	nHyp := 1
	for i := 0; i < d.nss; i++ {
		nHyp *= m
	}
	bestDist := math.Inf(1)
	bestHyp := 0
	for hyp := 0; hyp < nHyp; hyp++ {
		rem := hyp
		for i := 0; i < d.nss; i++ {
			d.best[i] = rem % m
			rem /= m
		}
		var dist float64
		for r := 0; r < h.Rows; r++ {
			var acc complex128
			for c := 0; c < d.nss; c++ {
				acc += h.At(r, c) * d.points[d.best[c]]
			}
			diff := y[r] - acc
			dist += real(diff)*real(diff) + imag(diff)*imag(diff)
		}
		if dist < bestDist {
			bestDist, bestHyp = dist, hyp
		}
	}
	rem := bestHyp
	for i := 0; i < d.nss; i++ {
		dst[i] = d.points[rem%m]
		rem /= m
	}
	return nil
}

// NewDetector constructs a detector by name: "zf", "mmse", "sic" or "ml".
func NewDetector(name string, scheme modem.Scheme, nss int) (BatchDetector, error) {
	switch name {
	case "zf":
		return NewZF(scheme, nss), nil
	case "mmse":
		return NewMMSE(scheme, nss), nil
	case "sic":
		return NewSIC(scheme, nss), nil
	case "ml":
		return NewML(scheme, nss)
	default:
		return nil, fmt.Errorf("mimo: unknown detector %q (want zf, mmse, sic or ml)", name)
	}
}
