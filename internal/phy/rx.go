package phy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bitutil"
	"repro/internal/chanest"
	"repro/internal/cmatrix"
	"repro/internal/est"
	"repro/internal/fec"
	"repro/internal/mimo"
	"repro/internal/modem"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/ofdm"
	"repro/internal/preamble"
	"repro/internal/sounding"
	"repro/internal/synchro"
	"repro/internal/vandebeek"
)

// ErrBadSIG marks a SIG field that parsed (parity/CRC passed) but carries a
// value that cannot be right for an HT-mixed PPDU — a corrupted or spoofed
// header. Callers should treat it as a rejected packet, not a fault.
var ErrBadSIG = errors.New("phy: SIG field failed validation")

// ErrSIGBounds marks a SIG-announced payload geometry that does not fit the
// captured streams: decoding would read outside the sample buffers. The
// receiver rejects such headers up front instead of failing mid-symbol.
var ErrSIGBounds = errors.New("phy: SIG-announced length out of bounds")

// ErrNoPacket marks a capture in which the detector never fired: there is
// nothing to synchronize to. Telemetry classifies it as a sync failure.
var ErrNoPacket = errors.New("phy: no packet detected")

// RxConfig configures a receiver.
type RxConfig struct {
	// NumAntennas is the receive antenna count (≥ the transmitter's N_SS
	// for the linear detectors).
	NumAntennas int
	// Detector selects the MIMO detector: "zf", "mmse", "sic" or "ml".
	Detector string
	// DisablePhaseTracking turns off pilot-based common-phase-error
	// correction (for the E7 ablation).
	DisablePhaseTracking bool
	// SmoothingWindow applies frequency smoothing to the HT channel
	// estimate when > 1 (odd).
	SmoothingWindow int
	// DetectorConfig tunes packet detection; zero value selects defaults.
	DetectorConfig synchro.DetectorConfig
	// TimingBackoff shifts every FFT window this many samples into the
	// cyclic prefix to tolerate residual timing error. Default 3.
	TimingBackoff int
	// TrackChannel enables decision-directed LMS tracking of the channel
	// estimate across data symbols, for time-varying (Doppler) channels.
	TrackChannel bool
	// CPMLSync replaces the preamble-autocorrelation CFO estimators with
	// the paper's MIMO-extended Van de Beek CP-ML estimator, run over the
	// cyclic prefixes of the OFDM symbols following packet detection. The
	// CP-ML estimator needs no training fields, so it keeps working on
	// arbitrary OFDM traffic; experiment E21 compares the two modes.
	CPMLSync bool
	// TrackStep is the LMS step size µ; default 0.25 when tracking.
	TrackStep float64
	// Workers bounds the in-packet parallelism of the batched data phase
	// and of the Viterbi decode: 0 selects GOMAXPROCS, 1 forces the inline
	// serial schedule. Decoded output is bit-identical at every worker
	// count (the batch passes use fixed-size symbol shards writing disjoint
	// regions; the decode splits the trellis into shards joined where their
	// path metrics provably coincide).
	Workers int
}

// RxResult reports one decoded packet.
type RxResult struct {
	// PSDU is the recovered payload (nil when decoding failed outright).
	PSDU []byte
	// LSIG and HTSIG are the parsed SIGNAL fields.
	LSIG  preamble.LSIG
	HTSIG preamble.HTSIG
	// MCS is the modulation and coding scheme announced by HT-SIG.
	MCS MCS
	// SNRdB is the data-aided SNR estimate from the L-LTF.
	SNRdB float64
	// NoiseVar is the estimated per-subcarrier complex noise variance.
	NoiseVar float64
	// CFO is the total corrected carrier frequency offset in rad/sample.
	CFO float64
	// Timing is the sample index of the detected L-STF start estimate.
	Timing int
	// CPETrace records the per-symbol common phase error the pilot tracker
	// measured (empty when tracking is disabled).
	CPETrace []float64
	// Sounding reports channel-state metrics (capacity, condition number,
	// recommended stream count) derived from the HT channel estimate.
	Sounding *sounding.Report
}

// Receiver decodes HT-mixed PPDUs from raw baseband streams. Not safe for
// concurrent use.
type Receiver struct {
	cfg    RxConfig
	sig    *sigCodec
	legDem *ofdm.Demodulator
	htDem  *ofdm.Demodulator
	vit    *fec.Viterbi
	// Per-packet scratch reused across Receive calls so steady-state
	// decoding stays off the allocator's hot path: the depunctured LLRs,
	// the decoded and the descrambled bits, and the channel-state analyser.
	depBuf   []float64
	decBuf   []byte
	descBuf  []byte
	analyzer sounding.Analyzer
	// Cached MIMO detector and the matching constellation mapper (for the
	// decision-directed slicing of channel tracking and evidence EVM),
	// reused while consecutive packets announce the same (scheme, streams);
	// Prepare fully resets detector state per packet.
	det       mimo.BatchDetector
	mapper    *modem.Mapper
	detScheme modem.Scheme
	detNSS    int
	// obs, when set, receives per-packet telemetry (SNR/BER/PER series and
	// stage traces). Nil keeps the decode path free of telemetry cost.
	obs *RxObs
	// packetID is the TX-assigned correlation key of the burst about to be
	// decoded (0 = unknown), stamped onto traces and flight evidence.
	packetID uint64
	// Data-phase state (rxbatch.go): the size-classed scratch pool, the
	// persistent worker set, and the per-MCS fused scatter tables.
	pool         bufPool
	workers      []*rxWorker
	scatterCache map[int]*scatter
	// Packet-lifetime slice headers and pilot reference buffers, reused.
	tones      [][]complex128
	pilots     [][]complex128
	pilotViews [][]complex128
	toneViews  [][]complex128
	txPilots   [][]complex128
}

// dataCtx carries the data-field geometry and per-packet processing state
// from acquire() into the data phase and the decode.
type dataCtx struct {
	rx         [][]complex128
	mcs        MCS
	htsig      preamble.HTSIG
	nSym       int
	dataStart  int
	dataSymLen int
	dataCP     int
	dataBO     int
	detector   mimo.BatchDetector
	tracker    *chanest.PhaseTracker
	// dataH is the HT channel estimate at the data tones, the matrices the
	// detector was prepared with; channel tracking updates them in place.
	dataH       []*cmatrix.Matrix
	noiseVar    float64
	usefulSteps int
	result      *RxResult
}

// SetObs attaches the receiver's telemetry surface. Nil detaches it.
func (r *Receiver) SetObs(o *RxObs) { r.obs = o }

// SetPacketID labels the next Receive call with the TX-assigned packet ID
// recovered from the transport (radio frame header), tying the packet's
// trace and flight evidence to the sender's record.
func (r *Receiver) SetPacketID(id uint64) { r.packetID = id }

// htDataSubcarriers maps data-tone position to the signed logical subcarrier
// index (−28..28), the labeling flight dumps use.
var htDataSubcarriers = func() []int {
	out := make([]int, len(ofdm.HTToneMap.Data))
	for i, b := range ofdm.HTToneMap.Data {
		if b >= ofdm.FFTSize/2 {
			b -= ofdm.FFTSize
		}
		out[i] = b
	}
	return out
}()

// NewReceiver validates the configuration and returns a receiver.
func NewReceiver(cfg RxConfig) (*Receiver, error) {
	if cfg.NumAntennas < 1 || cfg.NumAntennas > 4 {
		return nil, fmt.Errorf("phy: antenna count %d outside [1,4]", cfg.NumAntennas)
	}
	switch cfg.Detector {
	case "", "zf", "mmse", "sic", "ml":
	default:
		return nil, fmt.Errorf("phy: unknown detector %q", cfg.Detector)
	}
	if cfg.Detector == "" {
		cfg.Detector = "mmse"
	}
	if cfg.DetectorConfig == (synchro.DetectorConfig{}) {
		cfg.DetectorConfig = synchro.DefaultDetectorConfig()
	}
	if cfg.TimingBackoff == 0 {
		cfg.TimingBackoff = 3
	}
	if cfg.TimingBackoff < 0 || cfg.TimingBackoff >= ofdm.CPLen {
		return nil, fmt.Errorf("phy: timing backoff %d outside [0, %d)", cfg.TimingBackoff, ofdm.CPLen)
	}
	if cfg.TrackStep == 0 {
		cfg.TrackStep = 0.25
	}
	if cfg.TrackStep < 0 || cfg.TrackStep > 1 {
		return nil, fmt.Errorf("phy: LMS step %g outside (0, 1]", cfg.TrackStep)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("phy: worker count %d is negative", cfg.Workers)
	}
	vit := fec.NewViterbi()
	vit.SetWorkers(cfg.Workers)
	return &Receiver{
		cfg:    cfg,
		sig:    newSigCodec(),
		legDem: ofdm.NewDemodulator(ofdm.LegacyToneMap),
		htDem:  ofdm.NewDemodulator(ofdm.HTToneMap),
		vit:    vit,
	}, nil
}

// Receive synchronizes to and decodes the first PPDU in the streams.
// rx[a] is the baseband of antenna a; all must be equal length. The samples
// are modified in place by CFO correction.
//
// With an attached RxObs the call additionally records a stage trace
// (sync → chanest → demod → detector → viterbi; the caller's FCS check adds
// crc via ActiveTrace/PacketResult) and updates the SNR/BER/PER series.
func (r *Receiver) Receive(rx [][]complex128) (*RxResult, error) {
	tr := r.obs.startTrace()
	tr.SetPacketID(r.packetID)
	res, err := r.receive(rx, tr)
	if err != nil {
		r.obs.recordFailure(err)
		tr.Finish(false)
		// A packet that dies inside the PHY never reaches the caller's FCS
		// check, so its evidence is finalized here with the classified error.
		r.obs.finishEvidence(verdictFor(err), tr)
		return res, err
	}
	r.obs.packetDecoded(res)
	// Close the viterbi span but leave the trace active: the caller owns
	// the crc stage and terminal verdict (PacketResult).
	tr.End()
	return res, nil
}

// receive is the synchronization and decode chain behind Receive, with
// stage span markers threaded through it: acquisition (steps 1–8), the
// block-batched data phase, then Viterbi decode and descramble.
func (r *Receiver) receive(rx [][]complex128, tr *obs.Trace) (*RxResult, error) {
	result, ctx, err := r.acquire(rx, tr)
	if err != nil {
		return result, err
	}
	dep, err := r.dataBatch(ctx, tr)
	if err != nil {
		return result, err
	}
	return result, r.decode(ctx, dep, tr)
}

// acquire runs steps 1–8 of the chain — packet detection, CFO correction,
// fine timing, legacy and HT channel estimation, L-SIG/HT-SIG decode and
// detector preparation — and returns the data-phase context. The result is
// returned alongside any error once the SIG fields began filling it in.
func (r *Receiver) acquire(rx [][]complex128, tr *obs.Trace) (*RxResult, *dataCtx, error) {
	if len(rx) != r.cfg.NumAntennas {
		return nil, nil, fmt.Errorf("phy: %d streams for %d antennas", len(rx), r.cfg.NumAntennas)
	}
	// --- 1. Packet detection on the STF periodicity ---------------------
	tr.Begin(obs.StageSync)
	det, err := r.detect(rx)
	if err != nil {
		return nil, nil, err
	}
	// Evidence capture opens here, before CFO correction rewrites rx in
	// place: the dump keeps the sync-point IQ as the antenna actually saw it.
	r.obs.beginEvidence(r.packetID, rx, det.Index)
	// The detection index lies inside the STF. Estimate the STF region for
	// coarse CFO: use up to 96 samples ending at the detection index.
	stfEnd := det.Index
	stfStart := stfEnd - 96
	if stfStart < 0 {
		stfStart = 0
	}
	var coarse float64
	if r.cfg.CPMLSync {
		coarse, err = r.cpmlCFO(rx, det.Index)
		if err != nil {
			return nil, nil, fmt.Errorf("phy: CP-ML sync: %w", err)
		}
	} else {
		region := subRange(rx, stfStart, stfEnd)
		coarse, err = synchro.CoarseCFO(region)
		if err != nil {
			return nil, nil, fmt.Errorf("phy: coarse CFO: %w", err)
		}
	}
	synchro.CorrectCFO(rx, coarse)

	// --- 2. Fine timing on the L-LTF ------------------------------------
	// The LTF's first long symbol begins 192 samples after the STF start;
	// search a generous window around the detection point.
	from := det.Index - 40
	to := det.Index + 280
	ltfStart, err := synchro.FineTiming(rx, from, to)
	if err != nil {
		return nil, nil, fmt.Errorf("phy: fine timing: %w", err)
	}
	stfStartEst := ltfStart - 192

	// --- 3. Fine CFO from the two long symbols (preamble mode only; the
	// CP-ML estimate already covers the fractional offset) ----------------
	fine := 0.0
	if !r.cfg.CPMLSync {
		ltfRegion := subRange(rx, ltfStart, ltfStart+128)
		fine, err = synchro.FineCFO(ltfRegion)
		if err != nil {
			return nil, nil, fmt.Errorf("phy: fine CFO: %w", err)
		}
		synchro.CorrectCFO(rx, fine)
	}
	totalCFO := coarse + fine

	// --- 4. Legacy channel estimate + SNR from the L-LTF ----------------
	tr.Begin(obs.StageChanest)
	bo := r.cfg.TimingBackoff
	ltfSpectra := make([][][]complex128, len(rx))
	for a := range rx {
		s1, err := r.bins(r.legDem, rx[a], ltfStart-bo)
		if err != nil {
			return nil, nil, fmt.Errorf("phy: L-LTF window: %w", err)
		}
		s2, err := r.bins(r.legDem, rx[a], ltfStart+64-bo)
		if err != nil {
			return nil, nil, err
		}
		ltfSpectra[a] = [][]complex128{s1, s2}
	}
	leg, err := chanest.EstimateLegacy(ltfSpectra)
	if err != nil {
		return nil, nil, err
	}
	result := &RxResult{
		SNRdB:    est.DB(leg.SNR()),
		NoiseVar: leg.NoiseVar,
		CFO:      totalCFO,
		Timing:   stfStartEst,
	}

	// --- 5. L-SIG ---------------------------------------------------------
	// Offsets relative to the located LTF start (which is OffLLTF+32 within
	// the PPDU).
	tr.Begin(obs.StageDemod)
	base := ltfStart - (OffLLTF + 32)
	lsigSym, lsigCSI, err := r.equalizeLegacySymbols(rx, leg, base+OffLSIG, 1)
	if err != nil {
		return nil, nil, err
	}
	lsigBits, err := r.sig.decode(lsigSym, lsigCSI, leg.NoiseVar, false)
	if err != nil {
		return nil, nil, fmt.Errorf("phy: L-SIG decode: %w", err)
	}
	lsig, err := preamble.ParseLSIG(lsigBits)
	if err != nil {
		return result, nil, fmt.Errorf("phy: %w", err)
	}
	result.LSIG = lsig
	if lsig.Rate != preamble.Rate6Mbps {
		return result, nil, fmt.Errorf("%w: L-SIG rate %#04b is not the HT-mixed 6 Mbit/s code", ErrBadSIG, lsig.Rate)
	}

	// --- 6. HT-SIG --------------------------------------------------------
	htsigSym, htsigCSI, err := r.equalizeLegacySymbols(rx, leg, base+OffHTSIG, 2)
	if err != nil {
		return nil, nil, err
	}
	htsigBits, err := r.sig.decode(htsigSym, htsigCSI, leg.NoiseVar, true)
	if err != nil {
		return nil, nil, fmt.Errorf("phy: HT-SIG decode: %w", err)
	}
	htsig, err := preamble.ParseHTSIG(htsigBits)
	if err != nil {
		return result, nil, fmt.Errorf("phy: %w", err)
	}
	result.HTSIG = htsig
	mcs, err := Lookup(htsig.MCS)
	if err != nil {
		return result, nil, fmt.Errorf("phy: HT-SIG announced unsupported %w", err)
	}
	result.MCS = mcs
	if mcs.NSS > r.cfg.NumAntennas && r.cfg.Detector != "ml" {
		return result, nil, fmt.Errorf("phy: %d antennas cannot linearly separate %d streams", r.cfg.NumAntennas, mcs.NSS)
	}

	// Validate the announced payload geometry against the captured streams
	// before touching the HT-LTFs: a corrupted-but-CRC-lucky HT-SIG must be
	// rejected with a typed error, not discovered mid-symbol.
	nltf := preamble.NumHTLTF(mcs.NSS)
	if htsig.Length == 0 {
		return result, nil, fmt.Errorf("%w: HT-SIG announces an empty PSDU", ErrSIGBounds)
	}
	nSym := mcs.NumSymbols(htsig.Length)
	dataCP := ofdm.CPLen
	if htsig.ShortGI {
		dataCP = ofdm.CPLenShort
	}
	dataBO := bo
	if dataBO >= dataCP {
		dataBO = dataCP - 1
	}
	// The last FFT window ends dataBO samples short of the nominal PPDU end.
	need := base + OffHTLTF + nltf*preamble.HTLTFLen + nSym*(ofdm.FFTSize+dataCP) - dataBO
	if need > len(rx[0]) {
		return result, nil, fmt.Errorf("%w: HT-SIG length %d needs %d samples, stream has %d",
			ErrSIGBounds, htsig.Length, need, len(rx[0]))
	}

	// --- 7. HT channel estimation from the HT-LTFs ----------------------
	tr.Begin(obs.StageChanest)
	htSpectra := make([][][]complex128, len(rx))
	for a := range rx {
		htSpectra[a] = make([][]complex128, nltf)
		for n := 0; n < nltf; n++ {
			spec, err := r.bins(r.htDem, rx[a], base+OffHTLTF+n*preamble.HTLTFLen+ofdm.CPLen-bo)
			if err != nil {
				return result, nil, fmt.Errorf("phy: HT-LTF window: %w", err)
			}
			htSpectra[a][n] = spec
		}
	}
	htEst, err := chanest.EstimateHT(htSpectra, mcs.NSS)
	if err != nil {
		return result, nil, err
	}
	if (r.cfg.SmoothingWindow > 1) && htsig.Smoothing {
		if err := htEst.Smooth(r.cfg.SmoothingWindow); err != nil {
			return result, nil, err
		}
	}
	dataH := htEst.DataMatrices()
	if snr := leg.SNR(); snr > 0 {
		// Channel-state metrics for link adaptation; failure is not fatal.
		if rep, serr := r.analyzer.Analyze(dataH, snr); serr == nil {
			result.Sounding = rep
		}
	}
	if ev := r.obs.evidence(); ev != nil {
		ev.ChanEst = flight.CaptureChanEst(dataH, htDataSubcarriers)
	}

	// --- 8. MIMO detection over the data symbols ------------------------
	tr.Begin(obs.StageDetector)
	if r.det == nil || r.detScheme != mcs.Scheme || r.detNSS != mcs.NSS {
		d, derr := mimo.NewDetector(r.cfg.Detector, mcs.Scheme, mcs.NSS)
		if derr != nil {
			return result, nil, derr
		}
		r.det, r.mapper, r.detScheme, r.detNSS = d, modem.NewMapper(mcs.Scheme), mcs.Scheme, mcs.NSS
	}
	if err := r.det.Prepare(dataH, leg.NoiseVar); err != nil {
		return result, nil, err
	}
	var tracker *chanest.PhaseTracker
	if !r.cfg.DisablePhaseTracking {
		tracker = chanest.NewPhaseTracker(htEst)
	}

	// Pre-size the Viterbi decoder from the SIG-declared packet length so
	// the decode below starts with its traceback storage in place.
	usefulSteps := 16 + 8*htsig.Length + 6
	if usefulSteps > nSym*mcs.NDBPS() {
		return result, nil, fmt.Errorf("phy: HT-SIG length %d exceeds the %d-symbol data field", htsig.Length, nSym)
	}
	r.vit.Reserve(usefulSteps)
	return result, &dataCtx{
		rx:          rx,
		mcs:         mcs,
		htsig:       htsig,
		nSym:        nSym,
		dataStart:   base + OffHTLTF + nltf*preamble.HTLTFLen,
		dataSymLen:  ofdm.FFTSize + dataCP,
		dataCP:      dataCP,
		dataBO:      dataBO,
		detector:    r.det,
		tracker:     tracker,
		dataH:       dataH,
		noiseVar:    leg.NoiseVar,
		usefulSteps: usefulSteps,
		result:      result,
	}, nil
}

// decode is step 9: Viterbi-decode the depunctured LLR stream, fold the
// pre-FEC comparison into the telemetry, descramble and extract the PSDU
// into the context's result.
func (r *Receiver) decode(ctx *dataCtx, dep []float64, tr *obs.Trace) error {
	// The trellis is in the zero state right after the 6 tail bits; the pad
	// bits that fill the last symbol keep driving it afterwards, so decode
	// only SERVICE + PSDU + tail steps and anchor traceback at the tail.
	tr.Begin(obs.StageViterbi)
	decoded, err := r.vit.DecodeSoftInto(r.decBuf, dep[:2*ctx.usefulSteps], true)
	if err != nil {
		return err
	}
	r.decBuf = decoded
	if r.obs != nil {
		// The standard receiver-side channel-BER estimator: the decision
		// re-encoded at the mother-code rate 1/2 against the hard decisions
		// of the depunctured LLRs, exact whenever the decoder converged to
		// the transmitted sequence (FCS-verified packets). The punctured
		// positions hold erasures and are not counted.
		r.obs.prefec(fec.CompareMother(decoded, dep))
	}
	r.descBuf = descrambleInto(r.descBuf, decoded)
	psdu, err := bitutil.BitsToBytes(r.descBuf[16 : 16+8*ctx.htsig.Length])
	if err != nil {
		return err
	}
	ctx.result.PSDU = psdu
	return nil
}

// descrambleInto inverts the self-synchronizing scrambler into dst, which
// is grown only when short and returned resliced to len(bits). The first 7
// SERVICE bits are zero before scrambling, so the received first 7 bits are
// the scrambler's output prefix b0…b6 (IEEE 802.11-2012 §18.3.5.7). Each
// output bit is also shifted into the 7-bit LFSR, so after those 7 steps the
// register holds exactly b0…b6, oldest bit at the top: the descrambler
// continues from that state with no seed search. An all-zero prefix is the
// locked LFSR no seed produces (corrupted SERVICE); the bits are then
// returned as received. Fewer than 7 bits are returned as received too.
func descrambleInto(dst, bits []byte) []byte {
	if cap(dst) < len(bits) {
		dst = make([]byte, len(bits))
	}
	dst = dst[:len(bits)]
	if len(bits) < 7 {
		copy(dst, bits)
		return dst
	}
	var state byte
	for _, b := range bits[:7] {
		state = state<<1 | b&1
	}
	if state == 0 {
		copy(dst, bits)
		return dst
	}
	for i := range dst[:7] {
		dst[i] = 0 // each prefix bit XORed with itself
	}
	for i := 7; i < len(bits); i++ {
		fb := (state>>6 ^ state>>3) & 1
		state = (state<<1 | fb) & 0x7F
		dst[i] = bits[i]&1 ^ fb
	}
	return dst
}

// detect runs the streaming packet detector over the buffers.
func (r *Receiver) detect(rx [][]complex128) (*synchro.Detection, error) {
	d, err := synchro.NewDetector(len(rx), r.cfg.DetectorConfig)
	if err != nil {
		return nil, err
	}
	samples := make([]complex128, len(rx))
	n := len(rx[0])
	for a := range rx {
		if len(rx[a]) != n {
			return nil, fmt.Errorf("phy: stream %d has %d samples, stream 0 has %d", a, len(rx[a]), n)
		}
	}
	for i := 0; i < n; i++ {
		for a := range rx {
			samples[a] = rx[a][i]
		}
		det, err := d.Push(samples)
		if err != nil {
			return nil, err
		}
		if det != nil {
			return det, nil
		}
	}
	return nil, fmt.Errorf("%w in %d samples", ErrNoPacket, n)
}

// bins demodulates a 64-sample window starting at off into a full spectrum.
func (r *Receiver) bins(dem *ofdm.Demodulator, stream []complex128, off int) ([]complex128, error) {
	if off < 0 || off+ofdm.FFTSize > len(stream) {
		return nil, fmt.Errorf("phy: FFT window [%d, %d) outside stream of %d", off, off+ofdm.FFTSize, len(stream))
	}
	spec := make([]complex128, ofdm.FFTSize)
	if err := dem.Bins(spec, stream[off:off+ofdm.FFTSize]); err != nil {
		return nil, err
	}
	return spec, nil
}

// equalizeLegacySymbols demodulates count legacy symbols starting at the
// PPDU offset and MRC-combines them across antennas using the L-LTF channel
// estimate. Returns per-symbol 48-tone vectors and CSI weights.
func (r *Receiver) equalizeLegacySymbols(rx [][]complex128, leg *chanest.LegacyEstimate, off, count int) ([][]complex128, [][]float64, error) {
	bo := r.cfg.TimingBackoff
	// Phase ramp difference: the legacy H was estimated with the same
	// backoff, so using identical windows keeps the ramp consistent.
	symbols := make([][]complex128, count)
	csi := make([][]float64, count)
	for s := 0; s < count; s++ {
		start := off + s*ofdm.SymbolLen + ofdm.CPLen - bo
		tones := make([]complex128, ofdm.LegacyToneMap.NumData())
		weights := make([]float64, ofdm.LegacyToneMap.NumData())
		specs := make([][]complex128, len(rx))
		for a := range rx {
			spec, err := r.bins(r.legDem, rx[a], start)
			if err != nil {
				return nil, nil, err
			}
			specs[a] = spec
		}
		for i, bin := range ofdm.LegacyToneMap.Data {
			var num complex128
			var den float64
			for a := range rx {
				h := leg.H[a][bin]
				num += conj(h) * specs[a][bin]
				den += real(h)*real(h) + imag(h)*imag(h)
			}
			if den < 1e-12 {
				den = 1e-12
			}
			tones[i] = num / complex(den, 0)
			weights[i] = den
		}
		symbols[s] = tones
		csi[s] = weights
	}
	return symbols, csi, nil
}

func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }

// cpmlCFO runs the MIMO-extended Van de Beek estimator over the OFDM
// symbols following the detection point and returns the CFO in rad/sample.
// The L-LTF region onward is CP-structured (the LTF's two long symbols
// correlate at lag 64, as do every SIG and data symbol's prefix), so the
// window starts past the 16-periodic STF, where the lag-64 CP metric is
// informative.
func (r *Receiver) cpmlCFO(rx [][]complex128, detIdx int) (float64, error) {
	est, err := vandebeek.New(ofdm.FFTSize, ofdm.CPLen, 10 /* ≈10 dB design point */)
	if err != nil {
		return 0, err
	}
	// The detection index sits inside the STF; skip past it.
	from := detIdx + 120
	to := from + 10*ofdm.SymbolLen
	n := len(rx[0])
	if to > n {
		to = n
	}
	if to-from < 2*ofdm.SymbolLen {
		return 0, fmt.Errorf("only %d samples after detection", to-from)
	}
	window := subRange(rx, from, to)
	symbols := (to - from) / ofdm.SymbolLen
	e, err := est.EstimateAveraged(window, symbols-1)
	if err != nil {
		return 0, err
	}
	// ε is in subcarrier spacings: ω = 2πε/N rad/sample.
	return 2 * math.Pi * e.CFO / float64(ofdm.FFTSize), nil
}

// subRange returns views of every stream restricted to [from, to), clamped
// to the stream bounds.
func subRange(rx [][]complex128, from, to int) [][]complex128 {
	out := make([][]complex128, len(rx))
	for a := range rx {
		f, t := from, to
		if f < 0 {
			f = 0
		}
		if t > len(rx[a]) {
			t = len(rx[a])
		}
		if t < f {
			t = f
		}
		out[a] = rx[a][f:t]
	}
	return out
}
