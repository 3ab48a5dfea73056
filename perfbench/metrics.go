package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one printed metric and its unit. The two lists are the
// benchmark's interface: BENCHMARK.json names the same metrics, and the
// tests hold the two in step.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics. Every workload prints all of
// them; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"throughput_mbps", "Mb/s"},
	{"rt_per_antenna", "ratio"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"sweep_s", "s"},
	{"delivered_frac", "fraction"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// rxStages are the receiver stages, by the layer that runs each, in packet
// order.
var rxStages = []string{"synchro.sync", "chanest.est", "ofdm.fft", "mimo.detect", "fec.viterbi"}

// perLayer lists the traced run's metrics. A layer a workload never calls
// reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, s := range rxStages {
		out = append(out, metricDef{s + "_us", "us"})
	}
	for _, s := range rxStages {
		out = append(out, metricDef{s + "_share", "fraction"})
	}
	return append(out,
		metricDef{"phy.rx.receive_us", "us"},
		metricDef{"phy.rx.receive_p99_ms", "ms"},
		metricDef{"phy.rx.allocs_per_pkt", "count"},
		metricDef{"phy.rx.bytes_per_pkt", "bytes"},
		metricDef{"phy.rx.sync_fail", "count"},
		metricDef{"phy.rx.sig_fail", "count"},
		metricDef{"phy.rx.decode_fail", "count"},
		metricDef{"phy.rx.fcs_fail", "count"},
		metricDef{"phy.rate_ratio", "ratio"},
		metricDef{"phy.tx.transmit_us", "us"},
		metricDef{"phy.tx.allocs_per_pkt", "count"},
		metricDef{"channel.apply_us", "us"},
		metricDef{"mac.aggregate_us", "us"},
		metricDef{"mac.deaggregate_us", "us"},
		metricDef{"mac.arq.round_us", "us"},
		metricDef{"mac.arq.subframes_per_payload", "ratio"},
		metricDef{"mac.arq.rounds", "count"},
		metricDef{"mac.subframe_fail_frac", "fraction"},
		metricDef{"sim.e5_s", "s"},
		metricDef{"sim.e18_s", "s"},
		metricDef{"montecarlo.speedup", "ratio"},
		metricDef{"obs.trace_overhead_frac", "fraction"},
		metricDef{"fail_frac", "fraction"},
	)
}()

// sampleRate is one antenna's 20 MHz complex sample rate.
const sampleRate = 20e6

// tally accumulates what a workload did over a stretch of its closed loop.
type tally struct {
	// elapsed is the operations' time; an untraced run corrects it for
	// stolen CPU time (host.go) and keeps the clock's reading in raw.
	elapsed, raw time.Duration
	// attempted counts operations offered: Receive calls, queued ARQ
	// payloads, or sweep tables. violations counts the ones whose output
	// failed a correctness gate; lost the ones not delivered intact
	// (fail_frac's numerator, which includes the violations).
	attempted, violations, lost int
	// goodBits is the payload delivered intact (for the sweep: offered).
	goodBits float64
	// samples counts complex samples consumed, summed over antennas.
	samples float64
	nrx     int
	lat     []time.Duration // per Receive call, ARQ round or sweep pass
	latCPU  []time.Duration // the process CPU time of each of them
	passes  float64         // passes over the workload's input set

	// Receive outcomes by class, and ARQ subframe accounting.
	syncFail, sigFail, decodeFail, fcsFail int
	subSent, subOK, rounds                 int
}

func (t *tally) add(o *tally) {
	t.elapsed += o.elapsed
	t.raw += o.raw
	t.attempted += o.attempted
	t.violations += o.violations
	t.lost += o.lost
	t.goodBits += o.goodBits
	t.samples += o.samples
	t.nrx = o.nrx
	t.lat = append(t.lat, o.lat...)
	t.latCPU = append(t.latCPU, o.latCPU...)
	t.passes += o.passes
	t.syncFail += o.syncFail
	t.sigFail += o.sigFail
	t.decodeFail += o.decodeFail
	t.fcsFail += o.fcsFail
	t.subSent += o.subSent
	t.subOK += o.subOK
	t.rounds += o.rounds
}

func (t *tally) seconds() float64 { return t.elapsed.Seconds() }

// lap records the latency and process CPU time of one operation that
// started at start with the process at cpu0.
func (t *tally) lap(start time.Time, cpu0 time.Duration) {
	t.lat = append(t.lat, time.Since(start))
	t.latCPU = append(t.latCPU, processCPU()-cpu0)
}

// correct scales an untraced run's times by the CPU share f it got
// (host.go), keeping the clock's reading in raw. The sum of the latencies
// is scaled by f too, but shared out in proportion to each operation's
// process CPU time, not its wall time: the hypervisor steals in bursts, so
// a run-wide share would shorten the operations a burst missed and
// lengthen those it hit, while CPU time leaves the theft out of each one.
// The operations' wall-to-CPU ratio keeps the receiver's own parallelism.
func (t *tally) correct(f float64) {
	t.raw = t.elapsed
	t.elapsed = time.Duration(float64(t.elapsed) * f)
	var wall, cpu time.Duration
	for i := range t.lat {
		wall += t.lat[i]
		cpu += t.latCPU[i]
	}
	for i := range t.lat {
		if cpu > 0 {
			t.lat[i] = time.Duration(float64(t.latCPU[i]) * f * float64(wall) / float64(cpu))
		} else {
			t.lat[i] = time.Duration(float64(t.lat[i]) * f)
		}
	}
}

func (t *tally) throughputMbps() float64 { return ratio(t.goodBits, t.seconds()) / 1e6 }

func (t *tally) failFrac() float64 { return ratio(float64(t.lost), float64(t.attempted)) }

// latencyMs returns the q-quantile of the per-operation latencies.
func (t *tally) latencyMs(q float64) float64 {
	ds := make([]int64, len(t.lat))
	for i, d := range t.lat {
		ds[i] = int64(d)
	}
	return quantile(ds, q) / 1e6
}

// endToEndMetrics turns an untraced tally into the end-to-end metrics.
func endToEndMetrics(t *tally, setup []float64, rssMB float64) map[string]float64 {
	return map[string]float64{
		"throughput_mbps": t.throughputMbps(),
		"rt_per_antenna":  ratio(t.samples, t.seconds()*float64(t.nrx)*sampleRate),
		"latency_p50_ms":  t.latencyMs(0.50),
		"latency_p90_ms":  t.latencyMs(0.90),
		"sweep_s":         ratio(t.seconds(), t.passes),
		"delivered_frac":  1 - t.failFrac(),
		"setup_s":         median(setup),
		"peak_rss_mb":     rssMB,
	}
}

// perLayerMetrics combines the traced units' spans and tallies with the
// untraced units run alongside them. rate is the workload's PHY rate in
// Mb/s (0 when it runs many MCSs); unit is the tally of one traced unit,
// whose counts are exact for the seed.
func perLayerMetrics(l *spanLog, traced, untraced, unit *tally, rate float64) map[string]float64 {
	st := l.summarize()
	get := func(name string) *layerStat {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	rx := get("phy.rx.receive")
	tx := get("phy.tx.transmit")
	us := func(ns int64, n int) float64 { return ratio(float64(ns), float64(n)) / 1e3 }
	meanS := func(s *layerStat) float64 { return ratio(float64(s.busy), float64(s.n)) / 1e9 }
	m := map[string]float64{
		"phy.rx.receive_us":     us(rx.busy, rx.n),
		"phy.rx.receive_p99_ms": quantile(rx.durs, 0.99) / 1e6,
		"phy.rx.allocs_per_pkt": ratio(float64(rx.allocs), float64(rx.n)),
		"phy.rx.bytes_per_pkt":  ratio(float64(rx.byts), float64(rx.n)),
		"phy.rx.sync_fail":      float64(unit.syncFail),
		"phy.rx.sig_fail":       float64(unit.sigFail),
		"phy.rx.decode_fail":    float64(unit.decodeFail),
		"phy.rx.fcs_fail":       float64(unit.fcsFail),
		"phy.rate_ratio":        ratio(untraced.throughputMbps(), rate),
		"phy.tx.transmit_us":    us(tx.busy, tx.n),
		"phy.tx.allocs_per_pkt": ratio(float64(tx.allocs), float64(tx.n)),
		"channel.apply_us":      us(get("channel.apply").busy, get("channel.apply").n),
		"mac.aggregate_us":      us(get("mac.aggregate").busy, get("mac.aggregate").n),
		"mac.deaggregate_us":    us(get("mac.deaggregate").busy, get("mac.deaggregate").n),
		"mac.arq.round_us": us(get("mac.arq.sched").busy+get("mac.arq.ack").busy,
			get("arq.round").n),
		"mac.arq.subframes_per_payload": ratio(float64(unit.subSent), float64(unit.attempted)),
		"mac.arq.rounds":                float64(unit.rounds),
		"mac.subframe_fail_frac":        ratio(float64(unit.subSent-unit.subOK), float64(unit.subSent)),
		"sim.e5_s":                      meanS(get("sim.e5")),
		"sim.e18_s":                     meanS(get("sim.e18")),
		"montecarlo.speedup":            ratio(meanS(get("sim.e5.ref")), meanS(get("sim.e5"))),
		"obs.trace_overhead_frac":       1 - ratio(untraced.seconds(), traced.seconds()),
		"fail_frac":                     unit.failFrac(),
	}
	for _, s := range rxStages {
		m[s+"_us"] = us(get(s).self, rx.n)
		m[s+"_share"] = ratio(float64(get(s).self), float64(rx.busy))
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never called).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
