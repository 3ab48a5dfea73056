package phy

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/chanest"
	"repro/internal/channel"
	"repro/internal/cmatrix"
	"repro/internal/fec"
	"repro/internal/metrics"
	"repro/internal/modem"
	"repro/internal/obs/flight"
	"repro/internal/ofdm"
)

// copyCapture returns a private copy of a capture: Receive corrects CFO in
// place, so every decode of a shared capture starts from its own copy.
func copyCapture(rxs [][]complex128) [][]complex128 {
	cp := make([][]complex128, len(rxs))
	for a := range rxs {
		cp[a] = append([]complex128(nil), rxs[a]...)
	}
	return cp
}

// makeBurst builds one faded received burst for the MCS with nss+1 antennas.
func makeBurst(t *testing.T, mcsIdx, psduLen int, seed int64) ([][]complex128, []byte, int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tx, err := NewTransmitter(TxConfig{MCS: mcsIdx, ScramblerSeed: byte(seed) | 1})
	if err != nil {
		t.Fatal(err)
	}
	psdu := randPSDU(r, psduLen)
	burst, err := tx.Transmit(psdu)
	if err != nil {
		t.Fatal(err)
	}
	nrx := min(tx.NumChains()+1, 4)
	c, err := channel.New(channel.Config{Model: channel.FlatRayleigh, SNRdB: 45,
		Seed: 900 + seed, NumTX: tx.NumChains(), NumRX: nrx,
		TimingOffset: 250, TrailingSilence: 80})
	if err != nil {
		t.Fatal(err)
	}
	rxs, err := c.Apply(burst)
	if err != nil {
		t.Fatal(err)
	}
	return rxs, psdu, nrx
}

// decodeOut is one decode of a capture: the result, a copy of the exact
// Viterbi input (the depunctured LLR stream), and the flight evidence's
// per-tone EVM and soft-bit statistics.
type decodeOut struct {
	res  *RxResult
	dep  []float64
	evm  []flight.SubcarrierEVM
	soft flight.SoftBitStats
}

// runReceiver decodes a copy of rxs with the production receiver, with a
// flight recorder armed (no triggers) when armed is set.
func runReceiver(t *testing.T, rxs [][]complex128, cfg RxConfig, armed bool) decodeOut {
	t.Helper()
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ro *RxObs
	if armed {
		ro = NewRxObs(nil, nil)
		ro.SetFlight(flight.New(flight.Config{Capacity: 1}))
		rx.SetObs(ro)
	}
	res, err := rx.Receive(copyCapture(rxs))
	if err != nil {
		t.Fatalf("receiver: %v", err)
	}
	out := decodeOut{res: res, dep: append([]float64(nil), rx.depBuf...)}
	if ev := ro.evidence(); ev != nil {
		out.evm, out.soft = ev.EVM, ev.SoftBits
	}
	return out
}

// runOracle decodes a copy of rxs with the per-symbol reference chain, the
// test oracle for the batched data phase. It starts from the state the
// receiver's own acquisition (steps 1–8) hands the data phase, then runs
// the data field the straightforward way, one OFDM symbol at a time:
// demodulate, correct the pilot CPE, Detect every tone, measure the
// decision-directed EVM, apply the LMS channel update and re-Prepare (when
// tracking), deinterleave, and finally merge the streams and depuncture. It
// shares no data-phase code with the receiver: the appending Detect and
// Symbol APIs, the interleavers and stream parser, and fec.Depuncture stand
// in for DetectTo, the tone block and the scatter table.
func runOracle(t *testing.T, rxs [][]complex128, cfg RxConfig) decodeOut {
	t.Helper()
	r, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, ctx, err := r.acquire(copyCapture(rxs), nil)
	if err != nil {
		t.Fatalf("oracle acquire: %v", err)
	}
	mcs := ctx.mcs
	nss, nbpsc := mcs.NSS, mcs.NBPSCS()
	nd := ofdm.HTToneMap.NumData()
	ilv, parser, err := streamCodecs(mcs)
	if err != nil {
		t.Fatal(err)
	}
	mapper := modem.NewMapper(mcs.Scheme)
	mu := complex(r.cfg.TrackStep, 0)
	evm := make([]metrics.EVM, nd)
	streamLLR := make([][]float64, nss)
	perSymbol := make([][]float64, nss)
	deint := make([]float64, mcs.NCBPSS())
	tones := make([][]complex128, len(rxs))
	pilots := make([][]complex128, len(rxs))
	txPilots := make([][]complex128, nss)
	y := make([]complex128, len(rxs))
	bits := make([]byte, nbpsc)
	xhat := make([]complex128, nss)
	// slice maps tone k's per-stream hard decisions to constellation points
	// in xhat and returns ‖x̂‖².
	slice := func(k int) (norm float64) {
		for iss := 0; iss < nss; iss++ {
			for b := 0; b < nbpsc; b++ {
				bits[b] = 0
				if perSymbol[iss][k*nbpsc+b] < 0 {
					bits[b] = 1
				}
			}
			xhat[iss] = mapper.MapOne(bits)
			norm += real(xhat[iss])*real(xhat[iss]) + imag(xhat[iss])*imag(xhat[iss])
		}
		return norm
	}
	// predict returns antenna a's expected tone Σ_s H[a][s]·x̂_s.
	predict := func(h *cmatrix.Matrix, a int) (est complex128) {
		for s := 0; s < nss; s++ {
			est += h.At(a, s) * xhat[s]
		}
		return est
	}
	for n := 0; n < ctx.nSym; n++ {
		off := ctx.dataStart + n*ctx.dataSymLen + ctx.dataCP - ctx.dataBO
		for a := range ctx.rx {
			if tones[a], pilots[a], err = r.htDem.Symbol(ctx.rx[a][off:off+ofdm.FFTSize], tones[a][:0], pilots[a][:0]); err != nil {
				t.Fatal(err)
			}
		}
		if ctx.tracker != nil {
			for iss := range txPilots {
				if txPilots[iss], err = ofdm.HTPilots(nss, iss, n, 3); err != nil {
					t.Fatal(err)
				}
			}
			if cpe, terr := ctx.tracker.Estimate(pilots, txPilots); terr == nil {
				chanest.Correct(tones, cpe)
				res.CPETrace = append(res.CPETrace, cpe)
			}
		}
		for iss := range perSymbol {
			perSymbol[iss] = perSymbol[iss][:0]
		}
		for k := 0; k < nd; k++ {
			for a := range y {
				y[a] = tones[a][k]
			}
			if perSymbol, err = ctx.detector.Detect(perSymbol, k, y); err != nil {
				t.Fatal(err)
			}
		}
		// EVM against the estimate this symbol was detected with, then the
		// tracking update for the next symbol.
		for k := 0; k < nd; k++ {
			slice(k)
			for a := range tones {
				evm[k].Add(tones[a][k], predict(ctx.dataH[k], a))
			}
		}
		if cfg.TrackChannel {
			for k := 0; k < nd; k++ {
				norm := slice(k)
				if norm == 0 {
					continue
				}
				h := ctx.dataH[k]
				for a := range tones {
					e := tones[a][k] - predict(h, a)
					for s := 0; s < nss; s++ {
						h.Set(a, s, h.At(a, s)+mu*e*conj(xhat[s])/complex(norm, 0))
					}
				}
			}
			if err := ctx.detector.Prepare(ctx.dataH, ctx.noiseVar); err != nil {
				t.Fatal(err)
			}
		}
		for iss := 0; iss < nss; iss++ {
			ilv[iss].DeinterleaveLLR(deint, perSymbol[iss])
			streamLLR[iss] = append(streamLLR[iss], deint...)
		}
	}
	merged, err := parser.MergeLLR(streamLLR)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := fec.Depuncture(merged, ctx.nSym*mcs.NDBPS(), mcs.Rate)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.decode(ctx, dep, nil); err != nil {
		t.Fatalf("oracle decode: %v", err)
	}
	return decodeOut{res: res, dep: dep, evm: flight.EVMBins(evm, htDataSubcarriers), soft: flight.SoftStats(merged)}
}

// sameDecode reports the first difference between two decodes' PSDU,
// Viterbi input and CPE trace, comparing floats with ==.
func sameDecode(got, want decodeOut) error {
	if !bytes.Equal(got.res.PSDU, want.res.PSDU) {
		return fmt.Errorf("PSDU differs")
	}
	if len(got.dep) != len(want.dep) {
		return fmt.Errorf("dep length %d, want %d", len(got.dep), len(want.dep))
	}
	for i := range got.dep {
		if got.dep[i] != want.dep[i] {
			return fmt.Errorf("LLR %d = %g, want %g", i, got.dep[i], want.dep[i])
		}
	}
	if len(got.res.CPETrace) != len(want.res.CPETrace) {
		return fmt.Errorf("CPE trace length %d, want %d", len(got.res.CPETrace), len(want.res.CPETrace))
	}
	for i := range got.res.CPETrace {
		if got.res.CPETrace[i] != want.res.CPETrace[i] {
			return fmt.Errorf("CPE[%d] = %g, want %g", i, got.res.CPETrace[i], want.res.CPETrace[i])
		}
	}
	return nil
}

// sameEvidence reports the first difference between two decodes' EVM bins
// and soft-bit statistics.
func sameEvidence(got, want decodeOut) error {
	if len(got.evm) != len(want.evm) {
		return fmt.Errorf("%d EVM bins, want %d", len(got.evm), len(want.evm))
	}
	for i := range got.evm {
		if got.evm[i] != want.evm[i] {
			return fmt.Errorf("EVM bin %d = %+v, want %+v", i, got.evm[i], want.evm[i])
		}
	}
	if got.soft != want.soft {
		return fmt.Errorf("soft bits = %+v, want %+v", got.soft, want.soft)
	}
	return nil
}

// TestBatchMatchesScalarAllMCS is the data-phase correctness property: for
// every MCS and detector family, with channel tracking off and on and the
// flight recorder off and armed, the receiver's batched data phase must
// produce the exact depunctured LLR stream — and therefore the exact
// decoded PSDU and CPE trace — of the per-symbol reference oracle, at every
// worker count; armed, its evidence EVM bins and soft-bit statistics must
// equal the oracle's too. Float comparison is ==, not a tolerance: the
// batched phase reorders no arithmetic.
func TestBatchMatchesScalarAllMCS(t *testing.T) {
	workerCounts := []int{1, 4, runtime.NumCPU()}
	for mcsIdx := 0; mcsIdx <= 31; mcsIdx++ {
		dets := []string{"mmse", "sic"}
		if mcsIdx%8 <= 1 {
			// ML's hypothesis sweep is exponential in NSS·N_BPSCS; exercise
			// it where the sweep is small (BPSK/QPSK per stream).
			dets = append(dets, "ml")
		}
		rxs, psdu, nrx := makeBurst(t, mcsIdx, 120, int64(mcsIdx))
		for _, det := range dets {
			t.Run(fmt.Sprintf("mcs%d/%s", mcsIdx, det), func(t *testing.T) {
				for _, track := range []bool{false, true} {
					base := RxConfig{NumAntennas: nrx, Detector: det, TrackChannel: track}
					ref := runOracle(t, rxs, base)
					if !bytes.Equal(ref.res.PSDU, psdu) {
						// A harsh square-channel draw can defeat the highest
						// rates; equivalence with the oracle still applies.
						t.Logf("track=%v: oracle decoded a wrong PSDU (channel-limited); comparing anyway", track)
					}
					for _, armed := range []bool{false, true} {
						for _, w := range workerCounts {
							cfg := base
							cfg.Workers = w
							got := runReceiver(t, rxs, cfg, armed)
							if err := sameDecode(got, ref); err != nil {
								t.Fatalf("track=%v armed=%v workers=%d: %v", track, armed, w, err)
							}
							if armed {
								if err := sameEvidence(got, ref); err != nil {
									t.Fatalf("track=%v workers=%d: %v", track, w, err)
								}
							}
						}
					}
				}
			})
		}
	}
}
