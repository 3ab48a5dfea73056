package phy

import (
	"errors"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// RxObs is the receiver's telemetry surface: the paper's headline
// measurements (per-packet SNR, BER, PER) as live series plus the
// per-packet stage trace. Constructed over an obs registry and tracer and
// attached with Receiver.SetObs; a nil *RxObs (the default) keeps every
// hook in the decode path an allocation-free no-op.
type RxObs struct {
	tracer *obs.Tracer

	// flight, when set, receives per-packet PHY evidence; pending is the
	// evidence under construction for the packet currently in the chain,
	// finalized when its terminal verdict arrives (PacketResult or a decode
	// error). Both stay nil on the disabled path, which keeps every capture
	// hook allocation-free.
	flight  *flight.Recorder
	pending *flight.Evidence

	snr     *obs.Gauge
	snrDist *obs.Histogram
	cfoHz   *obs.Gauge

	prefecBER   *obs.Gauge
	prefecErrs  *obs.Counter
	prefecBits  *obs.Counter
	postfecBER  *obs.Gauge
	postfecErrs *obs.Counter
	postfecBits *obs.Counter
	per         *obs.Gauge

	pktOK     *obs.Counter
	pktFCS    *obs.Counter
	pktSync   *obs.Counter
	pktSIG    *obs.Counter
	pktDecode *obs.Counter
}

// NewRxObs registers the receiver metric families in reg and binds the
// trace ring. Either argument may be nil: a nil registry yields standalone
// instruments (still counting, not exposed), a nil tracer disables spans.
func NewRxObs(reg *obs.Registry, tracer *obs.Tracer) *RxObs {
	pkt := func(result string) *obs.Counter {
		return reg.Counter("mimonet_rx_packets_total",
			"packets by terminal outcome", obs.Label{Key: "result", Value: result})
	}
	return &RxObs{
		tracer: tracer,
		snr: reg.Gauge("mimonet_rx_snr_db",
			"data-aided SNR estimate of the last decoded packet (dB)"),
		snrDist: reg.Histogram("mimonet_rx_snr_db_distribution",
			"distribution of per-packet SNR estimates (dB)",
			[]float64{0, 5, 10, 15, 20, 25, 30, 35, 40}),
		cfoHz: reg.Gauge("mimonet_rx_cfo_hz",
			"corrected carrier frequency offset of the last packet at 20 Msps (Hz)"),
		prefecBER: reg.Gauge("mimonet_rx_prefec_ber",
			"pre-FEC bit error rate of the last packet, measured against the re-encoded Viterbi decision"),
		prefecErrs: reg.Counter("mimonet_rx_prefec_bit_errors_total",
			"pre-FEC coded bit errors against the re-encoded Viterbi decision"),
		prefecBits: reg.Counter("mimonet_rx_prefec_bits_total",
			"pre-FEC coded bits compared"),
		postfecBER: reg.Gauge("mimonet_rx_postfec_ber",
			"running post-FEC residual BER bound: FCS-failed packets count every payload bit errored"),
		postfecErrs: reg.Counter("mimonet_rx_postfec_bit_errors_total",
			"post-FEC payload bit errors (pessimistic: all bits of FCS-failed packets)"),
		postfecBits: reg.Counter("mimonet_rx_postfec_bits_total",
			"post-FEC payload bits delivered to the FCS check"),
		per: reg.Gauge("mimonet_rx_per",
			"running packet error rate across all receive attempts"),
		pktOK:     pkt("ok"),
		pktFCS:    pkt("fcs_bad"),
		pktSync:   pkt("sync_fail"),
		pktSIG:    pkt("sig_fail"),
		pktDecode: pkt("decode_fail"),
	}
}

// SetFlight attaches a flight recorder for per-packet evidence capture. Nil
// (the default) disables capture without touching the decode path.
func (o *RxObs) SetFlight(rec *flight.Recorder) {
	if o == nil {
		return
	}
	o.flight = rec
}

// flightOn reports whether evidence capture should run for this packet.
func (o *RxObs) flightOn() bool { return o != nil && o.flight.Enabled() }

// beginEvidence opens the pending evidence record at the sync point,
// capturing the raw IQ window around it before CFO correction mutates the
// buffers. syncHalf bounds the window to ±syncHalf samples per chain.
func (o *RxObs) beginEvidence(packetID uint64, rx [][]complex128, syncIdx int) {
	if !o.flightOn() {
		return
	}
	o.pending = &flight.Evidence{
		PacketID:  packetID,
		SyncIndex: syncIdx,
		SyncIQ:    flight.CaptureIQ(rx, syncIdx, syncHalfWindow),
	}
}

// evidence returns the pending record, nil when capture is off — callers
// nil-check rather than re-testing flightOn.
func (o *RxObs) evidence() *flight.Evidence {
	if o == nil {
		return nil
	}
	return o.pending
}

// finishEvidence stamps the terminal verdict and trace onto the pending
// evidence and hands it to the recorder, which may fire a trigger dump.
func (o *RxObs) finishEvidence(verdict string, tr *obs.Trace) {
	if o == nil || o.pending == nil {
		return
	}
	ev := o.pending
	o.pending = nil
	ev.Verdict = verdict
	ev.Trace = tr.Snapshot()
	o.flight.Record(*ev)
}

// verdictFor maps a Receive error onto the flight-recorder verdict scheme.
func verdictFor(err error) string {
	switch {
	case errors.Is(err, ErrNoPacket):
		return flight.VerdictNoPacket
	case errors.Is(err, ErrBadSIG) || errors.Is(err, ErrSIGBounds):
		return flight.VerdictBadSIG
	default:
		return flight.VerdictDecode
	}
}

// syncHalfWindow is the evidence IQ half-window around the sync point: wide
// enough to cover the detection transient and the STF tail on both sides.
const syncHalfWindow = 64

// ActiveTrace returns the trace of the packet most recently entered into
// the chain, so the caller layer (MAC CRC check) can append its span.
func (o *RxObs) ActiveTrace() *obs.Trace {
	if o == nil {
		return nil
	}
	return o.tracer.Active()
}

// startTrace opens a new packet trace (nil when tracing is off).
func (o *RxObs) startTrace() *obs.Trace {
	if o == nil {
		return nil
	}
	return o.tracer.Start()
}

// recordFailure classifies a Receive error into the outcome counters and
// refreshes the PER series.
func (o *RxObs) recordFailure(err error) {
	if o == nil {
		return
	}
	switch {
	case errors.Is(err, ErrNoPacket):
		o.pktSync.Inc()
	case errors.Is(err, ErrBadSIG) || errors.Is(err, ErrSIGBounds):
		o.pktSIG.Inc()
	default:
		o.pktDecode.Inc()
	}
	o.updatePER()
}

// packetDecoded records the per-packet signal-quality series after a
// successful PHY decode (the FCS verdict arrives later via PacketResult).
func (o *RxObs) packetDecoded(res *RxResult) {
	if o == nil {
		return
	}
	o.snr.Set(res.SNRdB)
	o.snrDist.Observe(res.SNRdB)
	o.cfoHz.Set(res.CFO * sampleRateHz / (2 * pi))
	if ev := o.pending; ev != nil {
		ev.SNRdB = res.SNRdB
		ev.CFOHz = res.CFO * sampleRateHz / (2 * pi)
		ev.MCS = int(res.HTSIG.MCS)
	}
}

// prefec folds one packet's re-encode comparison into the pre-FEC BER
// series.
func (o *RxObs) prefec(errs, bits int) {
	if o == nil || bits == 0 {
		return
	}
	o.prefecErrs.Add(int64(errs))
	o.prefecBits.Add(int64(bits))
	o.prefecBER.Set(float64(errs) / float64(bits))
}

// PacketResult records the terminal outcome of a decoded packet: the MAC
// FCS verdict over a PSDU of psduBytes. It closes the packet's trace (the
// caller opens the crc span around its FCS check) and refreshes the PER and
// post-FEC BER series. The post-FEC accounting is the repo's pessimistic
// convention: a failed FCS counts every payload bit as errored, so the
// series is an upper bound that needs no transmit reference.
func (o *RxObs) PacketResult(ok bool, psduBytes int) {
	if o == nil {
		return
	}
	bits := int64(8 * psduBytes)
	o.postfecBits.Add(bits)
	if ok {
		o.pktOK.Inc()
	} else {
		o.pktFCS.Inc()
		o.postfecErrs.Add(bits)
	}
	if total := o.postfecBits.Value(); total > 0 {
		o.postfecBER.Set(float64(o.postfecErrs.Value()) / float64(total))
	}
	o.updatePER()
	tr := o.tracer.Active()
	tr.Finish(ok)
	verdict := flight.VerdictOK
	if !ok {
		verdict = flight.VerdictCRCFail
	}
	o.finishEvidence(verdict, tr)
}

func (o *RxObs) updatePER() {
	fails := o.pktFCS.Value() + o.pktSync.Value() + o.pktSIG.Value() + o.pktDecode.Value()
	total := fails + o.pktOK.Value()
	if total > 0 {
		o.per.Set(float64(fails) / float64(total))
	}
}

// sampleRateHz is the nominal front-end rate the CFO gauge reports against.
const sampleRateHz = 20e6

const pi = 3.141592653589793
