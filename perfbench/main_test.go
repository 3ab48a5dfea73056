package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestEveryMetricPrinted runs every workload at a tiny scale, untraced and
// traced, and checks that the last line names every metric with its unit
// and that the metric lines above it carry the same names.
func TestEveryMetricPrinted(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			o := options{workload: w.name, seed: 3, duration: 100 * time.Millisecond,
				trace: trace, spansDir: t.TempDir(), small: true}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || rep.exitCode() != 0 {
				t.Errorf("%s trace=%v: result %+v", w.name, trace, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %g, want > 0", w.name, d.name, m.Value)
				}
				if !strings.Contains(out.String(), "metric "+d.name+" ") {
					t.Errorf("%s trace=%v: no metric line for %s", w.name, trace, d.name)
				}
			}
			if trace {
				path, _ := rep.details["spans_file"].(string)
				if data, err := os.ReadFile(path); err != nil || !bytes.Contains(data, []byte(`"spans":[{`)) {
					t.Errorf("%s: spans file %q unreadable or empty: %v", w.name, path, err)
				}
			}
		}
	}
}

// TestCorruptedPSDUFailsRun replaces the reference PSDU of a capture that
// decodes cleanly: the decoded PSDU still passes its FCS but no longer
// matches, so the packet counts against delivered_frac and the run fails.
func TestCorruptedPSDUFailsRun(t *testing.T) {
	b, err := setupRx(oneByFourMCS0, 3, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := b.unit(nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.lost != 0 || clean.violations != 0 {
		t.Fatalf("clean pass: lost %d, violations %d", clean.lost, clean.violations)
	}
	ref := append([]byte(nil), b.pool[0].psdu...)
	ref[100] ^= 0x01
	b.pool[0].psdu = ref
	got, err := b.unit(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.lost != 1 || got.failFrac() == 0 {
		t.Errorf("lost %d, fail_frac %g: the mismatch was not counted", got.lost, got.failFrac())
	}
	rep := newReport(options{workload: "rx-1x4-mcs0"}, got, endToEnd, endToEndMetrics(got, []float64{1}, 1))
	if rep.correct || rep.failed == 0 || rep.exitCode() == 0 {
		t.Errorf("run passed with a corrupted PSDU: correct %v, failed %d, exit %d", rep.correct, rep.failed, rep.exitCode())
	}
	if d := rep.metrics["delivered_frac"]; d != 1-got.failFrac() {
		t.Errorf("delivered_frac %g, want %g", d, 1-got.failFrac())
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the workloads and metrics this
// program prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		name string
		file []metric
		prog []metricDef
	}{{"end_to_end", cfg.EndToEnd, endToEnd}, {"per_layer", cfg.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.file), len(c.prog))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", c.name, i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

// TestCPUShare checks the share of wanted CPU time a phase got.
func TestCPUShare(t *testing.T) {
	for _, c := range []struct {
		cpu, steal time.Duration
		want       float64
	}{
		{time.Second, 0, 1},
		{time.Second, time.Second, 0.5},
		{3 * time.Second, time.Second, 0.75},
		{0, 0, 1},
	} {
		if got := cpuShare(hostMark{}, hostMark{c.cpu, c.steal}); got != c.want {
			t.Errorf("cpuShare(cpu %v, steal %v) = %g, want %g", c.cpu, c.steal, got, c.want)
		}
	}
}

// TestCorrectLatencies checks that latencies follow CPU time: of two
// operations with equal CPU time, the one that took three times as long on
// the clock (the hypervisor stole from it) gets the same corrected latency.
func TestCorrectLatencies(t *testing.T) {
	ms := time.Millisecond
	tl := &tally{elapsed: 50 * ms, lat: []time.Duration{10 * ms, 30 * ms}, latCPU: []time.Duration{10 * ms, 10 * ms}}
	tl.correct(0.5)
	if tl.raw != 50*ms || tl.elapsed != 25*ms {
		t.Errorf("raw %v, elapsed %v; want 50ms, 25ms", tl.raw, tl.elapsed)
	}
	if tl.lat[0] != 10*ms || tl.lat[1] != 10*ms {
		t.Errorf("latencies %v, want [10ms 10ms]", tl.lat)
	}
}
