package phy

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// decodeObserved decodes a copy of rxs with ro attached and returns the
// decode alongside the evidence the recorder (if any) captured.
func decodeObserved(t *testing.T, rxs [][]complex128, cfg RxConfig, ro *RxObs) decodeOut {
	t.Helper()
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx.SetObs(ro)
	res, err := rx.Receive(copyCapture(rxs))
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	out := decodeOut{res: res, dep: append([]float64(nil), rx.depBuf...)}
	if ev := ro.evidence(); ev != nil {
		out.evm, out.soft = ev.EVM, ev.SoftBits
	}
	return out
}

// TestObservationDoesNotChangeDecode: switching observation on must not
// change the path being observed. A receiver with the full telemetry
// surface (registry, tracer, armed flight recorder) must decode exactly what
// a receiver with the recorder off decodes — PSDU, Viterbi input, CPE trace
// and the pre-FEC counters — with and without channel tracking.
func TestObservationDoesNotChangeDecode(t *testing.T) {
	for _, mcsIdx := range []int{0, 9, 15, 31} {
		rxs, _, nrx := makeBurst(t, mcsIdx, 400, int64(60+mcsIdx))
		for _, track := range []bool{false, true} {
			t.Run(fmt.Sprintf("mcs%d/track=%v", mcsIdx, track), func(t *testing.T) {
				cfg := RxConfig{NumAntennas: nrx, Detector: "mmse", TrackChannel: track}

				observedReg := obs.NewRegistry()
				observed := NewRxObs(observedReg, obs.NewTracer(4, clock.NewFake(time.Unix(3000, 0))))
				observed.SetFlight(flight.New(flight.Config{Capacity: 4, Dir: t.TempDir()}))
				got := decodeObserved(t, rxs, cfg, observed)
				if len(got.evm) != 52 || got.soft.Count == 0 {
					t.Fatalf("armed recorder captured %d EVM bins, soft bits %+v", len(got.evm), got.soft)
				}

				bareReg := obs.NewRegistry()
				want := decodeObserved(t, rxs, cfg, NewRxObs(bareReg, nil))
				if want.evm != nil {
					t.Fatal("evidence captured with the recorder off")
				}

				if err := sameDecode(got, want); err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{"mimonet_rx_prefec_bit_errors_total", "mimonet_rx_prefec_bits_total"} {
					if g, w := counterValue(observedReg, name, ""), counterValue(bareReg, name, ""); g != w {
						t.Errorf("%s = %g observed, %g with the recorder off", name, g, w)
					}
				}
				if counterValue(bareReg, "mimonet_rx_prefec_bits_total", "") == 0 {
					t.Error("pre-FEC comparison saw no bits")
				}
			})
		}
	}
}

// capture2x2 transmits a random PSDU of psduLen octets at the MCS over a
// 2×2 identity channel at 30 dB.
func capture2x2(t *testing.T, mcsIdx, psduLen int) [][]complex128 {
	t.Helper()
	tx, err := NewTransmitter(TxConfig{MCS: mcsIdx, ScramblerSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := tx.Transmit(randPSDU(rand.New(rand.NewSource(int64(psduLen))), psduLen))
	if err != nil {
		t.Fatal(err)
	}
	c, err := channel.New(channel.Config{NumTX: 2, NumRX: 2, Model: channel.Identity,
		SNRdB: 30, Seed: 5, SampleRate: 20e6, TimingOffset: 280, TrailingSilence: 100})
	if err != nil {
		t.Fatal(err)
	}
	rxs, err := c.Apply(burst)
	if err != nil {
		t.Fatal(err)
	}
	return rxs
}

// allocsPerDecode measures steady-state allocations per packet — Receive
// plus the FCS verdict that finalizes the evidence — bare or with the full
// telemetry surface and an armed flight recorder. One worker keeps the count
// free of goroutine start-up noise.
func allocsPerDecode(t *testing.T, rxs [][]complex128, armed bool) float64 {
	t.Helper()
	rx, err := NewReceiver(RxConfig{NumAntennas: 2, Detector: "mmse", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ro *RxObs
	if armed {
		fake := clock.NewFake(time.Unix(3000, 0))
		ro = NewRxObs(obs.NewRegistry(), obs.NewTracer(8, fake))
		ro.SetFlight(flight.New(flight.Config{Capacity: 4, Dir: t.TempDir(), Clock: fake}))
		rx.SetObs(ro)
	}
	buf := copyCapture(rxs)
	var failed error
	allocs := testing.AllocsPerRun(20, func() {
		for a := range buf {
			copy(buf[a], rxs[a])
		}
		res, err := rx.Receive(buf)
		if err != nil {
			failed = err
			return
		}
		ro.PacketResult(true, len(res.PSDU))
	})
	if failed != nil {
		t.Fatalf("receive: %v", failed)
	}
	return allocs
}

// TestObserverCostIndependentOfPacketLength bounds the observer effect of an
// armed flight recorder: the evidence it adds (sync IQ, channel estimate,
// per-tone EVM, soft-bit statistics, trace) is O(tones), so the extra
// allocations per packet must not grow with the packet's symbol count.
func TestObserverCostIndependentOfPacketLength(t *testing.T) {
	extra := func(psduLen int) float64 {
		rxs := capture2x2(t, 11, psduLen)
		return allocsPerDecode(t, rxs, true) - allocsPerDecode(t, rxs, false)
	}
	short, long := extra(400), extra(1500)
	t.Logf("armed − bare allocs/op: %v at 400 B, %v at 1500 B", short, long)
	if short != long {
		t.Fatalf("armed recorder adds %v allocs/op at 400 B but %v at 1500 B: evidence cost grows with packet length", short, long)
	}
}
