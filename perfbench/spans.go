package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// span is one call into a layer, recorded by the benchmark around the call.
// Busy is the time the span accounts for: End-Start for a call the benchmark
// timed, the accumulated in-stage time for an RX stage read back from the
// receiver's trace ring (a stage such as chanest is entered twice per
// packet, so its first-entry-to-last-exit interval overstates it). Self is
// Busy minus the Busy of the span's children.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 marks a root span
	Name   string `json:"name"`
	Req    int64  `json:"req"` // packet, round or pass index
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Self   int64  `json:"self_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
}

// spanLog keeps a traced run's spans in memory until the run ends. Every
// method is a no-op on a nil log, which is how the untraced runs call the
// same code.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) at(t time.Time) int64 { return t.Sub(l.t0).Nanoseconds() }

// open starts a parent span; close ends it.
func (l *spanLog) open(name string, parent int, req int64) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Req: req, Start: l.at(time.Now())})
	return len(l.spans)
}

func (l *spanLog) close(id int) {
	if l == nil || id == 0 {
		return
	}
	s := &l.spans[id-1]
	s.End = l.at(time.Now())
	s.Busy = s.End - s.Start
}

// call runs fn as one span. On a traced run it also takes the heap
// allocation count and bytes of the call from runtime.MemStats deltas; the
// two ReadMemStats calls sit outside the timed interval.
func (l *spanLog) call(name string, parent int, req int64, fn func() error) (int, error) {
	if l == nil {
		return 0, fn()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := fn()
	end := time.Now()
	runtime.ReadMemStats(&m1)
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: l.at(start), End: l.at(end), Busy: end.Sub(start).Nanoseconds(),
		Allocs: m1.Mallocs - m0.Mallocs, Bytes: m1.TotalAlloc - m0.TotalAlloc,
	})
	return len(l.spans), err
}

// stageLayer names the layer each receiver trace stage runs in. The crc
// stage is left out: the benchmark's own mac.deaggregate span covers it.
var stageLayer = map[string]string{
	obs.StageSync:     "synchro.sync",
	obs.StageChanest:  "chanest.est",
	obs.StageDemod:    "ofdm.fft",
	obs.StageDetector: "mimo.detect",
	obs.StageViterbi:  "fec.viterbi",
}

// stages adds the receiver's own stage spans for one packet as children of
// its phy.rx.receive span.
func (l *spanLog) stages(parent int, req int64, snap obs.TraceSnapshot) {
	if l == nil {
		return
	}
	base := l.t0.UnixNano()
	for _, s := range snap.Spans {
		name, ok := stageLayer[s.Stage]
		if !ok {
			continue
		}
		l.spans = append(l.spans, span{
			ID: len(l.spans) + 1, Parent: parent, Name: name, Req: req,
			Start: s.StartNs - base, End: s.EndNs - base, Busy: s.TotalNs,
		})
	}
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n            int
	busy, self   int64
	allocs, byts uint64
	durs         []int64
}

// summarize fills in every span's self time and aggregates spans by name.
func (l *spanLog) summarize() map[string]*layerStat {
	child := make([]int64, len(l.spans)+1)
	for _, s := range l.spans {
		child[s.Parent] += s.Busy
	}
	out := make(map[string]*layerStat)
	for i := range l.spans {
		s := &l.spans[i]
		s.Self = s.Busy - child[s.ID]
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.n++
		st.busy += s.Busy
		st.self += s.Self
		st.allocs += s.Allocs
		st.byts += s.Bytes
		st.durs = append(st.durs, s.Busy)
	}
	return out
}

// write stores the spans as one JSON document and returns its path.
func (l *spanLog) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, l.spans})
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}

// quantile returns the q-quantile of ds (nearest rank); 0 for no samples.
func quantile(ds []int64, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]int64(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i])
}
