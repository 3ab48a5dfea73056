package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/channel"
	"repro/internal/mac"
	"repro/internal/montecarlo"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/phy"
)

// The ARQ workload's link: selective-repeat ARQ over 2x2 MCS11 on TGn-B at
// an SNR on the PER waterfall, so retransmission and subframe FCS failure
// are on the clock.
const (
	arqMCS        = 11
	arqSNRdB      = 17
	arqWindow     = 16
	arqPayloadLen = 400
	arqPayloads   = 256 // per pass
	arqSmallPass  = 16
	arqWarmRounds = 4
)

type arqBench struct {
	seed     int64
	payloads int
	tx       *phy.Transmitter
	rcv      *phy.Receiver
	rxObs    *phy.RxObs
}

// setupArq builds the link with the receiver observed the way a live
// mimonet-rx node is: RxObs over a metrics registry and trace ring, and a
// flight recorder armed with its dump triggers off, so evidence is captured
// per packet but nothing is written. A fixed number of full rounds warms
// it, so set-up does the same work whatever the channel does.
func setupArq(seed int64, small bool, log *spanLog) (*arqBench, error) {
	tx, err := phy.NewTransmitter(phy.TxConfig{MCS: arqMCS})
	if err != nil {
		return nil, err
	}
	rcv, err := phy.NewReceiver(phy.RxConfig{NumAntennas: tx.NumChains(), Detector: "mmse"})
	if err != nil {
		return nil, err
	}
	rxObs := phy.NewRxObs(obs.NewRegistry(), obs.NewTracer(256, nil))
	rxObs.SetFlight(flight.New(flight.Config{Capacity: 32, Node: "rx"}))
	rcv.SetObs(rxObs)
	b := &arqBench{seed: seed, payloads: arqPayloads, tx: tx, rcv: rcv, rxObs: rxObs}
	if small {
		b.payloads = arqSmallPass
	}
	if err := b.warm(log); err != nil {
		return nil, fmt.Errorf("arq warm-up: %w", err)
	}
	return b, nil
}

// warm sends one full window as an A-MPDU through the link arqWarmRounds
// times; every subframe that verifies must carry the payload sent.
func (b *arqBench) warm(log *spanLog) error {
	rng, ch, err := b.inputs(-1)
	if err != nil {
		return err
	}
	frames := make([]*mac.Frame, arqWindow)
	for i := range frames {
		frames[i] = &mac.Frame{Seq: uint16(i), Payload: make([]byte, arqPayloadLen)}
		rng.Read(frames[i].Payload)
	}
	psdu, err := mac.Aggregate(frames)
	if err != nil {
		return err
	}
	root := log.open("setup", 0, 0)
	defer log.close(root)
	for r := 0; r < arqWarmRounds; r++ {
		burst, err := b.tx.Transmit(psdu)
		if err != nil {
			return err
		}
		rx, err := ch.Apply(burst)
		if err != nil {
			return err
		}
		res, err := b.rcv.Receive(rx)
		if err != nil {
			continue
		}
		for _, sub := range mac.Deaggregate(res.PSDU) {
			if f := sub.Frame; f != nil && (int(f.Seq) >= len(frames) || !bytes.Equal(f.Payload, frames[f.Seq].Payload)) {
				return fmt.Errorf("an FCS-verified subframe differs from the one sent")
			}
		}
	}
	return nil
}

// inputs returns the payload stream and channel of pass p; both derive
// from (seed, p) alone, so a pass replays exactly.
func (b *arqBench) inputs(p int) (*rand.Rand, *channel.Channel, error) {
	ch, err := channel.New(channel.Config{NumTX: b.tx.NumChains(), NumRX: b.tx.NumChains(),
		Model: channel.TGnB, SNRdB: arqSNRdB, Seed: montecarlo.ShardSeed(b.seed^0xc4a7, p),
		TimingOffset: 200, TrailingSilence: 100})
	return rand.New(rand.NewSource(montecarlo.ShardSeed(b.seed, p))), ch, err
}

// pass moves n seeded payloads through ARQ until each is delivered or
// dropped. Each delivered payload must be byte-equal to the one queued.
func (b *arqBench) pass(t *tally, p, n int, log *spanLog) error {
	rng, ch, err := b.inputs(p)
	if err != nil {
		return err
	}
	s, err := mac.NewARQSender(arqWindow)
	if err != nil {
		return err
	}
	queued := make([][]byte, n)
	for i := range queued {
		queued[i] = make([]byte, arqPayloadLen)
		rng.Read(queued[i])
		s.Queue(queued[i])
	}
	intact := make([]bool, n) // received with the queued bytes
	acked := make([]bool, n)
	for s.Outstanding() > 0 {
		if err := b.round(t, s, ch, queued, intact, acked, log); err != nil {
			return err
		}
	}
	for seq := range queued {
		if acked[seq] && !intact[seq] {
			t.violations++ // acknowledged on a subframe whose payload differs
		}
		if !acked[seq] || !intact[seq] {
			t.lost++
		} else {
			t.goodBits += 8 * arqPayloadLen
		}
	}
	t.attempted += n
	t.passes++
	t.nrx = b.tx.NumChains()
	return nil
}

// round is one ARQ round: schedule, aggregate, transmit, channel, receive,
// deaggregate, BlockAck. The RetryDelay backoff is not slept: the loop is
// closed, and the wait would only idle the CPU.
func (b *arqBench) round(t *tally, s *mac.ARQSender, ch *channel.Channel, queued [][]byte, intact, acked []bool, log *spanLog) error {
	req := int64(t.rounds)
	start, cpu0 := time.Now(), processCPU()
	root := log.open("arq.round", 0, req)
	defer log.close(root)
	defer func() { t.elapsed += time.Since(start) }()
	var frames []*mac.Frame
	log.call("mac.arq.sched", root, req, func() error {
		frames = s.Round()
		return nil
	})
	if len(frames) == 0 {
		return nil // the rest of the window exhausted its retries
	}
	var psdu []byte
	var burst, rx [][]complex128
	if _, err := log.call("mac.aggregate", root, req, func() (err error) {
		psdu, err = mac.Aggregate(frames)
		return err
	}); err != nil {
		return err
	}
	if _, err := log.call("phy.tx.transmit", root, req, func() (err error) {
		burst, err = b.tx.Transmit(psdu)
		return err
	}); err != nil {
		return err
	}
	if _, err := log.call("channel.apply", root, req, func() (err error) {
		rx, err = ch.Apply(burst)
		return err
	}); err != nil {
		return err
	}
	var res *phy.RxResult
	var rerr error
	id, _ := log.call("phy.rx.receive", root, req, func() error {
		b.rcv.SetPacketID(uint64(req) + 1)
		res, rerr = b.rcv.Receive(rx)
		return nil
	})
	var subs []mac.DeaggregateResult
	if rerr != nil {
		t.count(classify(rerr))
	} else {
		b.rxObs.ActiveTrace().Begin(obs.StageCRC)
		log.call("mac.deaggregate", root, req, func() error {
			subs = mac.Deaggregate(res.PSDU)
			return nil
		})
		ok := len(subs) == len(frames)
		for _, sub := range subs {
			ok = ok && sub.Frame != nil
			if sub.Frame == nil {
				continue
			}
			// A verified subframe whose payload differs from the queued one
			// is caught at the end of the pass, once it is acknowledged.
			switch seq := int(sub.Frame.Seq); {
			case seq >= len(queued):
				t.violations++ // an FCS-verified subframe that was never sent
			case bytes.Equal(sub.Frame.Payload, queued[seq]):
				intact[seq] = true
				t.subOK++
			}
		}
		if !ok {
			t.fcsFail++
		}
		b.rxObs.PacketResult(ok, len(res.PSDU))
	}
	log.stages(id, req, b.rxObs.ActiveTrace().Snapshot())
	log.call("mac.arq.ack", root, req, func() error {
		ack := mac.AckFrom(frames[0].Seq, subs)
		s.Apply(ack)
		for _, f := range frames {
			if ack.Acked(f.Seq) {
				acked[f.Seq] = true
			}
		}
		return nil
	})
	t.subSent += len(frames)
	t.rounds++
	t.samples += float64(len(rx) * len(rx[0]))
	t.lap(start, cpu0)
	return nil
}

// measure runs passes 0, 1, 2, ... until d has passed.
func (b *arqBench) measure(d time.Duration) (*tally, error) {
	t := &tally{}
	start := time.Now()
	for p := 0; time.Since(start) < d; p++ {
		if err := b.pass(t, p, b.payloads, nil); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// unit replays pass 0; the receiver is observed on every unit, traced or
// not, as it is in the untraced runs.
func (b *arqBench) unit(log *spanLog) (*tally, error) {
	t := &tally{}
	if err := b.pass(t, 0, b.payloads, log); err != nil {
		return nil, err
	}
	return t, nil
}

func (b *arqBench) phyRate() float64 { return b.tx.MCS().DataRateMbps() }
