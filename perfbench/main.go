// Command perfbench is the repository benchmark. It drives the MIMONet PHY
// stack through its public functions on one seeded workload, checks every
// output, and prints the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced run, as the last line of standard output. README.md
// describes the workloads and metrics; run.sh builds and runs it from the
// repository root:
//
//	bash perfbench/run.sh --workload rx-sm2x2-mcs15 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// bench is one set-up workload. measure runs the untraced closed loop for a
// duration; unit runs one fixed stretch of it, recording spans into log
// when log is non-nil.
type bench interface {
	measure(d time.Duration) (*tally, error)
	unit(log *spanLog) (*tally, error)
	phyRate() float64
}

type workload struct {
	name  string
	setup func(seed int64, small bool, log *spanLog) (bench, error)
}

func rxWorkload(name string, spec rxSpec) workload {
	return workload{name, func(seed int64, small bool, log *spanLog) (bench, error) {
		return setupRx(spec, seed, small, log)
	}}
}

var (
	sm2x2MCS15    = rxSpec{mcs: 15, nrx: 2, snrDB: 35, pool: 512, smallPool: 4}
	oneByFourMCS0 = rxSpec{mcs: 0, nrx: 4, snrDB: 30, pool: 24, smallPool: 2}
)

// workloads is the benchmark's workload set, in BENCHMARK.json's order.
// README.md gives the reason for each.
var workloads = []workload{
	rxWorkload("rx-sm2x2-mcs15", sm2x2MCS15),
	rxWorkload("rx-1x4-mcs0", oneByFourMCS0),
	{"arq-2x2-mcs11-observed",
		func(seed int64, small bool, log *spanLog) (bench, error) { return setupArq(seed, small, log) }},
	{"sweep-e5-e18",
		func(seed int64, _ bool, log *spanLog) (bench, error) { return setupSweep(seed, log) }},
}

// setupRuns is how many times an untraced run sets its workload up; setup_s
// is their median.
const setupRuns = 7

type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	spansDir string
	small    bool // tiny inputs, for the package tests
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(rep.exitCode())
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced measurement and prints the per-layer metrics")
	spans := fs.String("spans-dir", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if _, ok := lookup(*name); !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return options{}, fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return options{}, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	return options{workload: *name, seed: *seed, duration: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, spansDir: *spans}, nil
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// report is one run's outcome.
type report struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	units             []metricDef
	details           map[string]any
}

func run(o options) (*report, error) {
	w, ok := lookup(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace {
		return runTraced(w, o)
	}
	setupStart := markHost()
	var b bench
	var setupRaw []float64
	for range setupRuns {
		b = nil
		runtime.GC() // the previous set-up's inputs are garbage now
		start := time.Now()
		var err error
		if b, err = w.setup(o.seed, o.small, nil); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupRaw = append(setupRaw, time.Since(start).Seconds())
	}
	steal := newStealMeter()
	measureStart := markHost()
	t, err := b.measure(o.duration)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	share := cpuShare(measureStart, markHost())
	t.correct(share)
	setupShare := cpuShare(setupStart, measureStart)
	setup := make([]float64, len(setupRaw))
	for i, s := range setupRaw {
		setup[i] = s * setupShare
	}
	rep := newReport(o, t, endToEnd, endToEndMetrics(t, setup, peakRSSMB()))
	rep.details["setup_runs_s"] = setup
	rep.details["setup_raw_s"] = setupRaw
	rep.details["host_steal_frac"] = steal.frac()
	rep.details["cpu_share"] = share
	rep.details["setup_cpu_share"] = setupShare
	return rep, nil
}

// runTraced alternates untraced and traced units of the workload until the
// run's time is up. The two halves of each pair do the same work, so their
// time ratio is the tracing overhead; a unit replays the same inputs every
// time, so its counts are exact for the seed and must repeat.
func runTraced(w workload, o options) (*report, error) {
	log := newSpanLog()
	b, err := w.setup(o.seed, o.small, log)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	var traced, untraced, first tally
	steal := newStealMeter()
	start := time.Now()
	for pair := 0; pair == 0 || time.Since(start) < o.duration; pair++ {
		u, err := b.unit(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		untraced.add(u)
		tu, err := b.unit(log)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		traced.add(tu)
		if pair == 0 {
			first = *tu
		} else if !sameCounts(&first, tu) {
			traced.violations++
		}
	}
	all := traced
	all.add(&untraced)
	rep := newReport(o, &all, perLayer, perLayerMetrics(log, &traced, &untraced, &first, b.phyRate()))
	path, err := log.write(o.spansDir, w.name, o.seed)
	if err != nil {
		return nil, err
	}
	rep.details["spans_file"] = path
	rep.details["spans"] = len(log.spans)
	rep.details["traced_units"] = traced.passes
	rep.details["host_steal_frac"] = steal.frac()
	return rep, nil
}

// sameCounts reports whether two replays of the same unit ended alike.
func sameCounts(a, b *tally) bool {
	return a.attempted == b.attempted && a.lost == b.lost && a.rounds == b.rounds &&
		a.subSent == b.subSent && a.subOK == b.subOK && a.syncFail == b.syncFail &&
		a.sigFail == b.sigFail && a.decodeFail == b.decodeFail && a.fcsFail == b.fcsFail
}

func newReport(o options, t *tally, units []metricDef, m map[string]float64) *report {
	return &report{
		correct:   t.violations == 0,
		attempted: t.attempted,
		failed:    t.violations,
		metrics:   m,
		units:     units,
		details: map[string]any{
			"workload":    o.workload,
			"seed":        o.seed,
			"trace":       o.trace,
			"go":          runtime.Version(),
			"gomaxprocs":  runtime.GOMAXPROCS(0),
			"nproc":       runtime.NumCPU(),
			"cpu":         cpuModel(),
			"commit":      commit(),
			"attempted":   t.attempted,
			"lost":        t.lost,
			"fail_frac":   t.failFrac(),
			"samples":     t.samples,
			"passes":      t.passes,
			"latency_n":   len(t.lat),
			"elapsed_s":   t.seconds(),
			"raw_s":       t.raw.Seconds(),
			"rx_antennas": t.nrx,
		},
	}
}

// print writes the run details, one line per metric, and last the JSON
// result line.
func (r *report) print(w io.Writer) error {
	details, err := json.Marshal(r.details)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "run %s\n", details)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.units))
	for _, d := range r.units {
		v := r.metrics[d.name]
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = value{v, d.unit}
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// exitCode is non-zero when any output failed its correctness check.
func (r *report) exitCode() int {
	if r.correct {
		return 0
	}
	return 1
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stealMeter measures the share of the host's CPU time that the hypervisor
// gave to other guests while the workload ran. A run with a high share
// measured a contended host, not the program.
type stealMeter struct{ steal, total float64 }

func newStealMeter() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) frac() float64 {
	s, t := cpuTicks()
	return ratio(s-m.steal, t-m.total)
}

// cpuTicks reads the summed CPU time counters of /proc/stat: the steal
// counter and the total over user, nice, system, idle, iowait, irq,
// softirq and steal. Both are 0 where the file is missing.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build saw
// one; a source checkout without git history has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	vcs := map[string]string{}
	for _, s := range info.Settings {
		vcs[s.Key] = s.Value
	}
	rev := vcs["vcs.revision"]
	if rev == "" {
		return "unknown"
	}
	if vcs["vcs.modified"] == "true" {
		rev += "+modified"
	}
	return rev
}
