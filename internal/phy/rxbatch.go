package phy

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/chanest"
	"repro/internal/metrics"
	"repro/internal/mimo"
	"repro/internal/montecarlo"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/ofdm"
)

// batchShardSymbols is the fixed shard granularity of the in-packet
// parallel passes: shard boundaries depend only on the symbol count, never
// on the worker count, so the work decomposition — and with it every output
// write location — is identical at any parallelism level. This is the same
// deterministic-sharding discipline internal/montecarlo imposes on the
// experiment sweeps, applied inside a single packet.
const batchShardSymbols = 4

// bufPool hands out packet-lifetime scratch slices in power-of-two size
// classes. Buffers are taken at the start of the data phase and returned at
// the end, so after the first packet of a steady-state link every class is
// warm and the data phase performs no slice allocation at all. The pool
// belongs to a single receiver and inherits its no-concurrent-use contract.
type bufPool struct {
	c128 [33][][]complex128
	f64  [33][][]float64
}

// sizeClass returns the pool class for a request of n elements: the
// smallest power-of-two exponent with 1<<class ≥ n.
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

func (p *bufPool) getC128(n int) []complex128 {
	if n <= 0 {
		return nil
	}
	c := sizeClass(n)
	if l := p.c128[c]; len(l) > 0 {
		s := l[len(l)-1]
		p.c128[c] = l[:len(l)-1]
		return s[:n]
	}
	return make([]complex128, n, 1<<c)
}

func (p *bufPool) putC128(s []complex128) {
	if cap(s) == 0 {
		return
	}
	c := bits.Len(uint(cap(s))) - 1 // floor: slabs in class c always hold ≥ 1<<c
	p.c128[c] = append(p.c128[c], s[:0])
}

func (p *bufPool) getF64(n int) []float64 {
	if n <= 0 {
		return nil
	}
	c := sizeClass(n)
	if l := p.f64[c]; len(l) > 0 {
		s := l[len(l)-1]
		p.f64[c] = l[:len(l)-1]
		return s[:n]
	}
	return make([]float64, n, 1<<c)
}

func (p *bufPool) putF64(s []float64) {
	if cap(s) == 0 {
		return
	}
	c := bits.Len(uint(cap(s))) - 1
	p.f64[c] = append(p.f64[c], s[:0])
}

// rxWorker is the private state of one batch-pass worker: an OFDM
// demodulator (own FFT scratch, shared twiddle plan), the per-subcarrier
// received vector, the detector's per-goroutine scratch and the
// stream-major LLR output of one subcarrier. Workers persist on the
// receiver across packets.
type rxWorker struct {
	dem      *ofdm.Demodulator
	y        []complex128
	out      []float64
	det      *mimo.DetectScratch
	detOwner mimo.BatchDetector
}

// ensureWorkers sizes the receiver's persistent worker set for n workers
// serving the given detector and antenna/stream geometry.
func (r *Receiver) ensureWorkers(n, nRx, llrLen int, det mimo.BatchDetector) {
	for len(r.workers) < n {
		r.workers = append(r.workers, &rxWorker{dem: ofdm.NewDemodulator(ofdm.HTToneMap)})
	}
	for _, w := range r.workers[:n] {
		if cap(w.y) < nRx {
			w.y = make([]complex128, nRx)
		}
		w.y = w.y[:nRx]
		if cap(w.out) < llrLen {
			w.out = make([]float64, llrLen)
		}
		w.out = w.out[:llrLen]
		if w.detOwner != det {
			w.det = det.NewScratch()
			w.detOwner = det
		}
	}
}

// dataBatch is the receiver's data phase: pass A FFTs every
// (antenna × symbol) window into one packet-wide tone block, pass B runs
// the (inherently sequential, but cheap) pilot CPE correction symbol by
// symbol, and pass C runs MIMO detection per subcarrier, scattering each
// LLR straight into its depunctured mother-code slot for the Viterbi
// decoder. Passes A and C run on montecarlo.Run with fixed-size symbol
// shards writing disjoint output regions, so the result is bit-identical at
// any worker count. Decision-directed channel tracking couples each symbol's
// detection to the previous symbol's decisions, so under TrackChannel pass C
// runs serially in symbol order. When flight evidence is being captured the
// phase also fills its per-tone EVM and soft-bit statistics. The returned
// dep slice is owned by r.depBuf.
func (r *Receiver) dataBatch(ctx *dataCtx, tr *obs.Trace) ([]float64, error) {
	mcs := ctx.mcs
	nRx := len(ctx.rx)
	nd := ofdm.HTToneMap.NumData()
	np := ofdm.NumPilots
	nss, nbpsc := mcs.NSS, mcs.NBPSCS()
	ndbps := mcs.NDBPS()
	nSym := ctx.nSym
	detector := ctx.detector

	scat, err := r.scatterTable(mcs)
	if err != nil {
		return nil, err
	}

	// Packet-wide tone and pilot blocks from the pool, one per antenna:
	// tones[a][n*nd+k] is symbol n's data tone k.
	if cap(r.tones) < nRx {
		r.tones = make([][]complex128, nRx)
		r.pilots = make([][]complex128, nRx)
	}
	tones := r.tones[:nRx]
	pilots := r.pilots[:nRx]
	for a := 0; a < nRx; a++ {
		tones[a] = r.pool.getC128(nSym * nd)
		pilots[a] = r.pool.getC128(nSym * np)
	}
	defer func() {
		for a := 0; a < nRx; a++ {
			r.pool.putC128(tones[a])
			r.pool.putC128(pilots[a])
			tones[a], pilots[a] = nil, nil
		}
	}()

	shards := (nSym + batchShardSymbols - 1) / batchShardSymbols
	nw := montecarlo.Workers(r.cfg.Workers)
	if nw > shards {
		nw = shards
	}
	r.ensureWorkers(nw, nRx, nss*nbpsc, detector)
	// Workers draw their persistent state by index; montecarlo calls
	// newWorker exactly once per worker goroutine.
	var widx atomic.Int32
	newW := func() (*rxWorker, error) { return r.workers[int(widx.Add(1))-1], nil }

	// --- Pass A: FFT whole symbol blocks -------------------------------
	tr.Begin(obs.StageDemod)
	rx, dataStart, dataSymLen, dataCP, dataBO := ctx.rx, ctx.dataStart, ctx.dataSymLen, ctx.dataCP, ctx.dataBO
	//mimonet:hot
	if _, err := montecarlo.Run(shards, nw, newW, func(w *rxWorker, shard int) (struct{}, error) {
		lo := shard * batchShardSymbols
		hi := min(lo+batchShardSymbols, nSym)
		for n := lo; n < hi; n++ {
			off := dataStart + n*dataSymLen + dataCP - dataBO
			for a := 0; a < nRx; a++ {
				if off < 0 || off+ofdm.FFTSize > len(rx[a]) {
					return struct{}{}, fmt.Errorf("phy: stream ends inside data symbol %d", n)
				}
				if derr := w.dem.SymbolTo(tones[a][n*nd:(n+1)*nd], pilots[a][n*np:(n+1)*np], rx[a][off:off+ofdm.FFTSize]); derr != nil {
					return struct{}{}, derr
				}
			}
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}

	// --- Pass B: pilot common-phase-error correction, in symbol order ---
	// The polarity sequence and CPE trace are order-dependent, so this pass
	// stays serial; it is a 4-pilot estimate plus a 52-tone rotation per
	// symbol, a sliver of the data-phase cost.
	if ctx.tracker != nil {
		if cap(r.pilotViews) < nRx {
			r.pilotViews = make([][]complex128, nRx)
			r.toneViews = make([][]complex128, nRx)
		}
		pilotViews := r.pilotViews[:nRx]
		toneViews := r.toneViews[:nRx]
		r.ensureTxPilots(nss)
		for n := 0; n < nSym; n++ {
			for a := 0; a < nRx; a++ {
				pilotViews[a] = pilots[a][n*np : (n+1)*np]
			}
			for iss := 0; iss < nss; iss++ {
				if perr := ofdm.HTPilotsInto(r.txPilots[iss], nss, iss, n, 3); perr != nil {
					return nil, perr
				}
			}
			cpe, terr := ctx.tracker.Estimate(pilotViews, r.txPilots)
			if terr == nil {
				for a := 0; a < nRx; a++ {
					toneViews[a] = tones[a][n*nd : (n+1)*nd]
				}
				chanest.Correct(toneViews, cpe)
				ctx.result.CPETrace = append(ctx.result.CPETrace, cpe)
			}
		}
	}

	// --- Pass C: per-subcarrier detection + fused scatter ---------------
	tr.Begin(obs.StageDetector)
	if cap(r.depBuf) < 2*ndbps*nSym {
		r.depBuf = make([]float64, 2*ndbps*nSym)
	}
	dep := r.depBuf[:2*ndbps*nSym]
	for i := range dep {
		dep[i] = 0 // punctured slots stay zero (erasures)
	}
	// detectSymbols detects symbols [lo, hi) into dep.
	//mimonet:hot
	detectSymbols := func(w *rxWorker, lo, hi int) error {
		for n := lo; n < hi; n++ {
			symBase := 2 * ndbps * n
			for k := 0; k < nd; k++ {
				for a := 0; a < nRx; a++ {
					w.y[a] = tones[a][n*nd+k]
				}
				if derr := detector.DetectTo(w.det, w.out, k, w.y); derr != nil {
					return derr
				}
				kb := k * nbpsc
				for iss := 0; iss < nss; iss++ {
					row := scat.pos[iss]
					ob := iss * nbpsc
					for b := 0; b < nbpsc; b++ {
						dep[symBase+int(row[kb+b])] = w.out[ob+b]
					}
				}
			}
		}
		return nil
	}
	ev := r.obs.evidence()
	var evm []metrics.EVM
	if ev != nil {
		evm = make([]metrics.EVM, nd)
	}
	if r.cfg.TrackChannel {
		// Detect a symbol, slice its decisions, nudge Ĥ toward them, and
		// refresh the detector weights before the next symbol.
		for n := 0; n < nSym; n++ {
			if err := detectSymbols(r.workers[0], n, n+1); err != nil {
				return nil, err
			}
			r.decide(ctx, scat, tones, dep, n, evm, true)
			if err := detector.Prepare(ctx.dataH, ctx.noiseVar); err != nil {
				return nil, err
			}
		}
	} else {
		widx.Store(0)
		if _, err := montecarlo.Run(shards, nw, newW, func(w *rxWorker, shard int) (struct{}, error) {
			lo := shard * batchShardSymbols
			return struct{}{}, detectSymbols(w, lo, min(lo+batchShardSymbols, nSym))
		}); err != nil {
			return nil, err
		}
		if evm != nil {
			for n := 0; n < nSym; n++ {
				r.decide(ctx, scat, tones, dep, n, evm, false)
			}
		}
	}
	if ev != nil {
		ev.EVM = flight.EVMBins(evm, htDataSubcarriers)
		ev.SoftBits = softBits(dep, scat.kept, nSym)
	}
	r.depBuf = dep
	return dep, nil
}

// decide walks symbol n's data tones in order, slices each stream's hard
// decisions out of dep through the scatter table into constellation points
// x̂, and compares every antenna's tone against the channel's prediction
// H(k)·x̂. The error feeds the per-tone EVM accumulators (nil when no
// evidence is captured) and, when track is set, the decision-directed LMS
// step Ĥ(k) += µ·e·x̂ᴴ/‖x̂‖². Tone k's update touches only Ĥ(k), and each
// antenna's prediction is taken before its row moves, so the EVM measures
// the estimate the symbol was detected with.
//
//mimonet:hot
func (r *Receiver) decide(ctx *dataCtx, scat *scatter, tones [][]complex128, dep []float64, n int, evm []metrics.EVM, track bool) {
	nss, nbpsc := ctx.mcs.NSS, ctx.mcs.NBPSCS()
	nd := len(ctx.dataH)
	symBase := 2 * ctx.mcs.NDBPS() * n
	mu := complex(r.cfg.TrackStep, 0)
	var bitBuf [8]byte
	var xBuf [4]complex128
	bits, xhat := bitBuf[:nbpsc], xBuf[:nss]
	for k := 0; k < nd; k++ {
		var norm float64
		for iss := 0; iss < nss; iss++ {
			row := scat.pos[iss][k*nbpsc : (k+1)*nbpsc]
			for b, p := range row {
				bits[b] = 0
				if dep[symBase+int(p)] < 0 {
					bits[b] = 1
				}
			}
			xhat[iss] = r.mapper.MapOne(bits)
			norm += real(xhat[iss])*real(xhat[iss]) + imag(xhat[iss])*imag(xhat[iss])
		}
		h := ctx.dataH[k]
		for a := range tones {
			// e_a = y_a − Σ_s H[a][s]·x̂_s
			var est complex128
			for s := 0; s < nss; s++ {
				est += h.At(a, s) * xhat[s]
			}
			y := tones[a][n*nd+k]
			if evm != nil {
				evm[k].Add(y, est)
			}
			if !track || norm == 0 {
				continue
			}
			e := y - est
			for s := 0; s < nss; s++ {
				h.Set(a, s, h.At(a, s)+mu*e*conj(xhat[s])/complex(norm, 0))
			}
		}
	}
}

// softBits summarizes the decoder-input LLRs the flight recorder keeps: the
// surviving (non-punctured) positions of dep, visited in merged-stream order
// through the scatter table's kept offsets.
func softBits(dep []float64, kept []int32, nSym int) flight.SoftBitStats {
	span := len(dep) / nSym
	var acc flight.SoftAccumulator
	for n := 0; n < nSym; n++ {
		for _, p := range kept {
			acc.Add(dep[n*span+int(p)])
		}
	}
	return acc.Stats()
}

// ensureTxPilots sizes the reusable per-stream pilot reference slices.
func (r *Receiver) ensureTxPilots(nss int) {
	if len(r.txPilots) >= nss {
		r.txPilots = r.txPilots[:nss]
		return
	}
	r.txPilots = make([][]complex128, nss)
	back := make([]complex128, nss*ofdm.NumPilots)
	for iss := 0; iss < nss; iss++ {
		r.txPilots[iss] = back[iss*ofdm.NumPilots : (iss+1)*ofdm.NumPilots]
	}
}
