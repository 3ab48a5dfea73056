package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/channel"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
)

// rxSpec is one RX-only workload: a pool of captured bursts, generated in
// setup, that the receiver decodes in a closed loop.
type rxSpec struct {
	mcs, nrx int
	snrDB    float64
	// pool is the capture count; its size sets how closely the pool's
	// deep-fade share tracks the channel's, so it is the lever on the
	// seed-to-seed spread of delivered_frac.
	pool, smallPool int
}

// mpduLen is the MPDU size of the RX workloads, MAC header and FCS
// included; each is sent as a one-subframe A-MPDU.
const mpduLen = 1500

// outcome classifies one Receive call.
type outcome int8

const (
	unset outcome = iota
	delivered
	syncFail
	sigFail
	decodeFail
	fcsFail
	corrupt // passed the FCS, yet differs from the PSDU sent
)

// classify maps a Receive error onto the outcome classes the receiver's own
// telemetry (phy.RxObs) counts.
func classify(err error) outcome {
	switch {
	case errors.Is(err, phy.ErrNoPacket):
		return syncFail
	case errors.Is(err, phy.ErrBadSIG) || errors.Is(err, phy.ErrSIGBounds):
		return sigFail
	default:
		return decodeFail
	}
}

func (t *tally) count(o outcome) {
	switch o {
	case syncFail:
		t.syncFail++
	case sigFail:
		t.sigFail++
	case decodeFail:
		t.decodeFail++
	case fcsFail:
		t.fcsFail++
	}
}

type capture struct {
	psdu    []byte         // the PSDU sent
	samples [][]complex128 // the channel's output, per receive antenna
}

type rxBench struct {
	rate float64
	pool []capture
	rcv  *phy.Receiver
	// rxObs is attached on traced units only, for the receiver's stage trace.
	rxObs *phy.RxObs
	buf   [][]complex128 // replay buffer: Receive corrects CFO in place
	// first holds each capture's outcome on its first replay; every later
	// replay must match it.
	first []outcome
}

func setupRx(spec rxSpec, seed int64, small bool, log *spanLog) (*rxBench, error) {
	tx, err := phy.NewTransmitter(phy.TxConfig{MCS: spec.mcs})
	if err != nil {
		return nil, err
	}
	ch, err := channel.New(channel.Config{NumTX: tx.NumChains(), NumRX: spec.nrx,
		Model: channel.TGnB, SNRdB: spec.snrDB, Seed: seed,
		TimingOffset: 200, TrailingSilence: 100})
	if err != nil {
		return nil, err
	}
	n := spec.pool
	if small {
		n = spec.smallPool
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pool := make([]capture, n)
	root := log.open("setup", 0, 0)
	for i := range pool {
		payload := make([]byte, mpduLen-mac.Overhead())
		rng.Read(payload)
		var psdu []byte
		var burst, rx [][]complex128
		if _, err := log.call("mac.aggregate", root, int64(i), func() (err error) {
			psdu, err = mac.Aggregate([]*mac.Frame{{Seq: uint16(i) & 0x0FFF, Payload: payload}})
			return err
		}); err != nil {
			return nil, err
		}
		if _, err := log.call("phy.tx.transmit", root, int64(i), func() (err error) {
			burst, err = tx.Transmit(psdu)
			return err
		}); err != nil {
			return nil, err
		}
		if _, err := log.call("channel.apply", root, int64(i), func() (err error) {
			rx, err = ch.Apply(burst)
			return err
		}); err != nil {
			return nil, err
		}
		pool[i] = capture{psdu: psdu, samples: rx}
	}
	log.close(root)
	rcv, err := phy.NewReceiver(phy.RxConfig{NumAntennas: spec.nrx, Detector: "mmse"})
	if err != nil {
		return nil, err
	}
	b := &rxBench{rate: tx.MCS().DataRateMbps(), pool: pool, rcv: rcv, first: make([]outcome, n)}
	b.buf = make([][]complex128, spec.nrx)
	for a := range b.buf {
		b.buf[a] = make([]complex128, len(pool[0].samples[a]))
	}
	// Warm the receiver's buffer pools and cached detector before timing.
	var warm tally
	b.step(&warm, 0, nil, 0)
	if warm.violations > 0 {
		return nil, fmt.Errorf("rx warm-up: capture 0 decoded to a PSDU that differs from the one sent")
	}
	return b, nil
}

// step replays capture i once and checks the result: a PSDU that passes
// the FCS must be byte-equal to the one sent, and every replay of a
// capture must end the way its first replay did.
func (b *rxBench) step(t *tally, i int, log *spanLog, req int64) {
	c := &b.pool[i]
	begin := time.Now()
	for a := range b.buf {
		copy(b.buf[a], c.samples[a])
	}
	var res *phy.RxResult
	var rerr error
	start, cpu0 := time.Now(), processCPU()
	id, _ := log.call("phy.rx.receive", 0, req, func() error {
		res, rerr = b.rcv.Receive(b.buf)
		return nil
	})
	t.lap(start, cpu0)
	var o outcome
	if rerr != nil {
		o = classify(rerr)
	} else {
		o = fcsFail
		b.rxObs.ActiveTrace().Begin(obs.StageCRC)
		var subs []mac.DeaggregateResult
		log.call("mac.deaggregate", 0, req, func() error {
			subs = mac.Deaggregate(res.PSDU)
			return nil
		})
		fcsOK := len(subs) == 1 && subs[0].Frame != nil
		b.rxObs.PacketResult(fcsOK, len(res.PSDU))
		switch {
		case bytes.Equal(res.PSDU, c.psdu):
			o = delivered
		case fcsOK:
			o = corrupt
			t.violations++
		}
	}
	log.stages(id, req, b.rxObs.ActiveTrace().Snapshot())
	if b.first[i] == unset {
		b.first[i] = o
	} else if b.first[i] != o {
		t.violations++
	}
	t.attempted++
	t.count(o)
	if o == delivered {
		t.goodBits += float64(8 * len(c.psdu))
	} else {
		t.lost++
	}
	t.samples += float64(len(b.buf) * len(b.buf[0]))
	t.nrx = len(b.buf)
	t.elapsed += time.Since(begin)
}

// measure replays the whole pool, in order, until d has passed. Whole
// passes keep the share of lost captures exactly the pool's.
func (b *rxBench) measure(d time.Duration) (*tally, error) {
	t := &tally{}
	start := time.Now()
	for time.Since(start) < d {
		for i := range b.pool {
			b.step(t, i, nil, int64(t.attempted))
		}
	}
	t.passes = float64(t.attempted) / float64(len(b.pool))
	return t, nil
}

// unit replays the whole pool once; with a log, the receiver's stage trace
// is on and every call is recorded.
func (b *rxBench) unit(log *spanLog) (*tally, error) {
	b.rxObs = nil
	if log != nil {
		b.rxObs = phy.NewRxObs(nil, obs.NewTracer(1, nil))
	}
	b.rcv.SetObs(b.rxObs)
	t := &tally{}
	for i := range b.pool {
		b.step(t, i, log, int64(i))
	}
	t.passes = 1
	return t, nil
}

func (b *rxBench) phyRate() float64 { return b.rate }
