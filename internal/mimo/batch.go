package mimo

import (
	"fmt"
	"math"
)

// DetectScratch holds the mutable per-call state of a detector so that one
// Prepared detector — whose per-subcarrier weights are read-only after
// Prepare — can serve many goroutines at once. The batched receive path
// creates one scratch per worker; Detect/Equalize keep using the detector's
// own embedded scratch and remain single-goroutine.
type DetectScratch struct {
	s    []complex128 // linear filter output / SIC cancellation residual
	hard []byte       // SIC per-stage hard-decision bits
	best []int        // ML hypothesis decomposition
}

// BatchDetector is implemented by every detector family, and every
// constructor returns one. DetectTo is the scratch-explicit form of Detect
// used by the sharded batch pipeline: it writes the N_SS·N_BPSCS LLRs of
// subcarrier k stream-major into out[iss·N_BPSCS+b], producing values
// bit-identical to Detect's appends.
type BatchDetector interface {
	Detector
	// NewScratch returns scratch sized for this detector's configuration.
	NewScratch() *DetectScratch
	// BitsPerStream returns N_BPSCS, the per-stream LLR count of DetectTo.
	BitsPerStream() int
	DetectTo(sc *DetectScratch, out []float64, k int, y []complex128) error
}

func (d *linearDetector) NewScratch() *DetectScratch {
	return &DetectScratch{s: make([]complex128, d.nss)}
}

func (d *linearDetector) BitsPerStream() int { return d.demapper.BitsPerSymbol() }

//mimonet:hot
func (d *linearDetector) DetectTo(sc *DetectScratch, out []float64, k int, y []complex128) error {
	if err := d.checkPrepared(k); err != nil {
		return err
	}
	nb := d.demapper.BitsPerSymbol()
	if len(out) < d.nss*nb {
		return fmt.Errorf("mimo: DetectTo out length %d, want %d", len(out), d.nss*nb)
	}
	d.w[k].MulVecInto(sc.s[:d.nss], y)
	for i := 0; i < d.nss; i++ {
		d.demapper.SoftTo(out[i*nb:(i+1)*nb], sc.s[i], d.noiseVar, d.csi[k][i])
	}
	return nil
}

func (d *mlDetector) NewScratch() *DetectScratch {
	return &DetectScratch{best: make([]int, d.nss)}
}

func (d *mlDetector) BitsPerStream() int { return d.nbpsc }

//mimonet:hot
func (d *mlDetector) DetectTo(sc *DetectScratch, out []float64, k int, y []complex128) error {
	if d.h == nil {
		return fmt.Errorf("mimo: ml detector used before Prepare")
	}
	if k < 0 || k >= len(d.h) {
		return fmt.Errorf("mimo: subcarrier %d out of range", k)
	}
	if len(out) < d.nss*d.nbpsc {
		return fmt.Errorf("mimo: DetectTo out length %d, want %d", len(out), d.nss*d.nbpsc)
	}
	h := d.h[k]
	m := len(d.points)
	totalBits := d.nss * d.nbpsc
	best := sc.best[:d.nss]
	var d0, d1 [16]float64
	for b := 0; b < totalBits; b++ {
		d0[b], d1[b] = math.Inf(1), math.Inf(1)
	}
	nHyp := 1
	for i := 0; i < d.nss; i++ {
		nHyp *= m
	}
	for hyp := 0; hyp < nHyp; hyp++ {
		rem := hyp
		for i := 0; i < d.nss; i++ {
			best[i] = rem % m
			rem /= m
		}
		var dist float64
		for r := 0; r < h.Rows; r++ {
			var acc complex128
			for c := 0; c < d.nss; c++ {
				acc += h.At(r, c) * d.points[best[c]]
			}
			diff := y[r] - acc
			dist += real(diff)*real(diff) + imag(diff)*imag(diff)
		}
		for i := 0; i < d.nss; i++ {
			pt := best[i]
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
	for idx := 0; idx < totalBits; idx++ {
		out[idx] = (d1[idx] - d0[idx]) / d.noiseVar
	}
	return nil
}

func (d *sicDetector) NewScratch() *DetectScratch {
	return &DetectScratch{
		s:    make([]complex128, 8),
		hard: make([]byte, 0, d.demapper.BitsPerSymbol()),
	}
}

func (d *sicDetector) BitsPerStream() int { return d.demapper.BitsPerSymbol() }

//mimonet:hot
func (d *sicDetector) DetectTo(sc *DetectScratch, out []float64, k int, y []complex128) error {
	if d.plans == nil {
		return fmt.Errorf("mimo: sic detector used before Prepare")
	}
	if k < 0 || k >= len(d.plans) {
		return fmt.Errorf("mimo: subcarrier %d out of range", k)
	}
	nb := d.demapper.BitsPerSymbol()
	if len(out) < d.nss*nb {
		return fmt.Errorf("mimo: DetectTo out length %d, want %d", len(out), d.nss*nb)
	}
	plan := &d.plans[k]
	if cap(sc.s) < len(y) {
		sc.s = make([]complex128, len(y))
	}
	resid := sc.s[:len(y)]
	copy(resid, y)
	for stage, stream := range plan.order {
		var s complex128
		for j, w := range plan.w[stage] {
			s += w * resid[j]
		}
		d.demapper.SoftTo(out[stream*nb:(stream+1)*nb], s, d.noiseVar, plan.csi[stage])
		// Hard decision, reconstruct and cancel from the residual, exactly
		// as in Detect.
		sc.hard = d.demapper.HardOne(sc.hard[:0], s)
		point := d.mapper.MapOne(sc.hard)
		for r := 0; r < plan.h.Rows; r++ {
			resid[r] -= plan.h.At(r, stream) * point
		}
	}
	return nil
}
