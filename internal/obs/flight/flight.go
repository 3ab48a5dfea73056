// Package flight is the link-level flight recorder: a bounded ring of
// per-packet PHY evidence — the IQ window around the sync point, the channel
// estimate with per-subcarrier condition numbers, per-subcarrier EVM, soft-bit
// statistics, and the packet's trace spans — dumped to self-contained JSON
// artifacts when an armed trigger fires (CRC failure, supervisor restart, an
// SNR drop against the running mean, or an on-demand POST /dump).
//
// The recorder follows the repo's nil-safe instrument convention: every
// method no-ops on a nil *Recorder, so the instrumented receive path costs
// nothing — zero allocations — when recording is disabled.
package flight

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/clock"
	"repro/internal/cmatrix"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sounding"
)

// Verdict strings shared by recorder evidence, dump files, and the
// mimonet-dump timeline. The PHY maps its receive errors onto these.
const (
	VerdictOK       = "ok"
	VerdictCRCFail  = "crc_fail"
	VerdictNoPacket = "no_packet"
	VerdictBadSIG   = "bad_sig"
	VerdictDecode   = "decode_error"
	VerdictRestart  = "restart"
	VerdictSent     = "sent"
)

// minSNRHistory is how many packets the SNR-drop trigger needs before it
// trusts the running mean enough to arm.
const minSNRHistory = 8

// ChannelEstimate is one subcarrier's estimated channel matrix with its
// condition number in dB.
type ChannelEstimate struct {
	Subcarrier int `json:"subcarrier"`
	// H is rows × cols × (re, im): H[r][c] maps TX stream c to RX chain r.
	H      [][][2]float64 `json:"h"`
	CondDB float64        `json:"cond_db"`
}

// SubcarrierEVM is the accumulated error-vector magnitude for one data tone.
type SubcarrierEVM struct {
	Subcarrier int     `json:"subcarrier"`
	EVMRMS     float64 `json:"evm_rms"`
	SNRdB      float64 `json:"snr_db"`
	Count      int64   `json:"count"`
}

// SoftBitStats summarizes the decoder input LLRs: weak soft bits (small
// magnitude) are the first symptom of a channel the detector cannot invert.
type SoftBitStats struct {
	Count    int     `json:"count"`
	MeanAbs  float64 `json:"mean_abs"`
	MinAbs   float64 `json:"min_abs"`
	MaxAbs   float64 `json:"max_abs"`
	WeakFrac float64 `json:"weak_frac"` // fraction with |LLR| < 1
}

// Evidence is everything the recorder keeps about one packet: enough to
// replay the post-mortem without the process that captured it.
type Evidence struct {
	PacketID   uint64 `json:"packet_id"`
	Node       string `json:"node"`
	Verdict    string `json:"verdict"`
	Note       string `json:"note,omitempty"`
	CapturedNs int64  `json:"captured_unix_ns"`

	SNRdB     float64 `json:"snr_db"`
	CFOHz     float64 `json:"cfo_hz,omitempty"`
	MCS       int     `json:"mcs"`
	SyncIndex int     `json:"sync_index"`
	// SyncIQ is chains × samples × (re, im): the raw window around the
	// detected sync point, before CFO correction mutates the buffers.
	SyncIQ   [][][2]float64    `json:"sync_iq,omitempty"`
	ChanEst  []ChannelEstimate `json:"chan_est,omitempty"`
	EVM      []SubcarrierEVM   `json:"evm,omitempty"`
	SoftBits SoftBitStats      `json:"soft_bits"`
	Trace    obs.TraceSnapshot `json:"trace"`
}

// Failed reports whether the verdict is a terminal failure (not ok, not a
// TX-side or synthetic entry).
func (e *Evidence) Failed() bool {
	switch e.Verdict {
	case VerdictOK, VerdictSent, VerdictRestart:
		return false
	}
	return true
}

// Config arms the recorder. The zero value of each trigger leaves it off.
type Config struct {
	Capacity int    // evidence ring size; default 16
	Dir      string // artifact directory; default "."
	Node     string // link role label: "tx", "rx", "sim"

	OnFailure bool    // dump when a packet's terminal verdict is a failure
	OnRestart bool    // dump when the supervisor restarts a block
	SNRDropDB float64 // dump when SNR falls this far below the running mean; 0 = off

	Clock clock.Clock // nil means the system clock
}

// Recorder holds the bounded evidence ring. Safe for concurrent use; all
// methods no-op on a nil receiver.
type Recorder struct {
	mu   sync.Mutex
	cfg  Config
	clk  clock.Clock
	ring []Evidence
	n    uint64 // total Record calls
	seq  int    // dump artifacts written

	snrSum float64 // running mean state for the SNR-drop trigger
	snrN   int
}

// New returns a recorder over a fresh ring. Use a nil *Recorder to disable
// recording entirely.
func New(cfg Config) *Recorder {
	if cfg.Capacity < 1 {
		cfg.Capacity = 16
	}
	if cfg.Dir == "" {
		cfg.Dir = "."
	}
	return &Recorder{cfg: cfg, clk: clock.Or(cfg.Clock), ring: make([]Evidence, cfg.Capacity)}
}

// Enabled reports whether evidence capture should run at all. The PHY gates
// every capture block on this so the disabled path stays allocation-free.
func (r *Recorder) Enabled() bool { return r != nil }

// Record stores one packet's evidence and evaluates the armed triggers.
// When a trigger fires it dumps the ring and returns the artifact path and
// the trigger reason; otherwise both are empty. Errors writing the artifact
// are returned alongside the reason that fired.
func (r *Recorder) Record(ev Evidence) (file, reason string, err error) {
	if r == nil {
		return "", "", nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ev.Node == "" {
		ev.Node = r.cfg.Node
	}
	if ev.CapturedNs == 0 {
		ev.CapturedNs = r.clk.Now().UnixNano()
	}
	r.ring[r.n%uint64(len(r.ring))] = ev
	r.n++

	switch {
	case r.cfg.OnFailure && ev.Failed():
		reason = ev.Verdict
	case r.snrTriggerLocked(ev):
		reason = "snr_drop"
	}
	// The mean update comes after the trigger check so the dropped packet
	// doesn't soften its own threshold; failed packets are excluded so a
	// burst of losses doesn't drag the baseline down.
	if !ev.Failed() && ev.Verdict != VerdictRestart {
		r.snrSum += ev.SNRdB
		r.snrN++
	}
	if reason == "" {
		return "", "", nil
	}
	file, err = r.dumpLocked(reason)
	return file, reason, err
}

func (r *Recorder) snrTriggerLocked(ev Evidence) bool {
	if r.cfg.SNRDropDB <= 0 || r.snrN < minSNRHistory || ev.Verdict == VerdictRestart {
		return false
	}
	return ev.SNRdB < r.snrSum/float64(r.snrN)-r.cfg.SNRDropDB
}

// RestartObserved notes a supervisor restart of the named block and, when
// the OnRestart trigger is armed, dumps the ring so the evidence preceding
// the crash survives it.
func (r *Recorder) RestartObserved(block string, attempt int, cause error) (file string, err error) {
	if r == nil {
		return "", nil
	}
	note := fmt.Sprintf("block %s restart #%d", block, attempt)
	if cause != nil {
		note += ": " + cause.Error()
	}
	f, _, err := r.Record(Evidence{Verdict: VerdictRestart, Note: note})
	if err != nil || f != "" {
		return f, err
	}
	if !r.cfg.OnRestart {
		return "", nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dumpLocked("restart")
}

// DumpFile is the self-contained JSON artifact one dump writes.
type DumpFile struct {
	Node      string     `json:"node"`
	Reason    string     `json:"reason"`
	Seq       int        `json:"seq"`
	CreatedNs int64      `json:"created_unix_ns"`
	Packets   []Evidence `json:"packets"` // oldest first
}

// Dump writes the current ring to a new artifact for the given reason and
// returns its path. This is the hook behind POST /dump.
func (r *Recorder) Dump(reason string) (string, error) {
	if r == nil {
		return "", fmt.Errorf("flight: recorder disabled")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dumpLocked(reason)
}

func (r *Recorder) dumpLocked(reason string) (string, error) {
	df := DumpFile{
		Node:      r.cfg.Node,
		Reason:    reason,
		Seq:       r.seq,
		CreatedNs: r.clk.Now().UnixNano(),
	}
	n := uint64(len(r.ring))
	count := r.n
	if count > n {
		count = n
	}
	df.Packets = make([]Evidence, 0, count)
	for back := count; back > 0; back-- {
		df.Packets = append(df.Packets, r.ring[(r.n-back)%n])
	}
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}
	name := fmt.Sprintf("flight-%s-%04d-%s.json", nameOr(r.cfg.Node, "node"), r.seq, reason)
	path := filepath.Join(r.cfg.Dir, name)
	data, err := json.MarshalIndent(df, "", "  ")
	if err != nil {
		return "", fmt.Errorf("flight: encode dump: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}
	r.seq++
	return path, nil
}

func nameOr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// CaptureIQ copies a window of ±half samples around center from each receive
// chain into the dump-ready pair layout, clamping at the buffer edges.
func CaptureIQ(chains [][]complex128, center, half int) [][][2]float64 {
	out := make([][][2]float64, len(chains))
	for c, ch := range chains {
		lo, hi := center-half, center+half+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(ch) {
			hi = len(ch)
		}
		if lo > hi {
			lo, hi = 0, 0
		}
		w := make([][2]float64, hi-lo)
		for i, v := range ch[lo:hi] {
			w[i] = [2]float64{real(v), imag(v)}
		}
		out[c] = w
	}
	return out
}

// CaptureChanEst converts per-subcarrier channel matrices (as produced by
// chanest.HTEstimate.DataMatrices) into dump-ready estimates with their
// condition numbers. subcarriers, when non-nil, labels each matrix with its
// tone index; otherwise positional indices are used. Nil matrices are
// skipped.
func CaptureChanEst(h []*cmatrix.Matrix, subcarriers []int) []ChannelEstimate {
	out := make([]ChannelEstimate, 0, len(h))
	for k, hk := range h {
		if hk == nil {
			continue
		}
		ce := ChannelEstimate{Subcarrier: k, H: make([][][2]float64, hk.Rows)}
		if subcarriers != nil && k < len(subcarriers) {
			ce.Subcarrier = subcarriers[k]
		}
		for rr := 0; rr < hk.Rows; rr++ {
			row := make([][2]float64, hk.Cols)
			for cc := 0; cc < hk.Cols; cc++ {
				v := hk.At(rr, cc)
				row[cc] = [2]float64{real(v), imag(v)}
			}
			ce.H[rr] = row
		}
		// encoding/json rejects NaN/Inf, so the error path uses a -1
		// sentinel (real condition numbers are >= 0 dB).
		if cond, err := sounding.ConditionDB(hk); err == nil {
			ce.CondDB = cond
		} else {
			ce.CondDB = -1
		}
		out = append(out, ce)
	}
	return out
}

// EVMBins converts per-tone metrics.EVM accumulators into dump-ready bins.
// subcarriers, when non-nil, labels each bin with its tone index. Tones that
// accumulated nothing are skipped.
func EVMBins(acc []metrics.EVM, subcarriers []int) []SubcarrierEVM {
	out := make([]SubcarrierEVM, 0, len(acc))
	for k := range acc {
		e := &acc[k]
		if e.Count() == 0 {
			continue
		}
		bin := SubcarrierEVM{
			Subcarrier: k,
			EVMRMS:     e.RMS(),
			SNRdB:      e.SNRdB(),
			Count:      e.Count(),
		}
		// A zero-error tone implies +Inf SNR, which encoding/json rejects;
		// cap at the same 150 dB ceiling the condition number uses.
		if math.IsInf(bin.SNRdB, 1) || bin.SNRdB > 150 {
			bin.SNRdB = 150
		}
		if subcarriers != nil && k < len(subcarriers) {
			bin.Subcarrier = subcarriers[k]
		}
		out = append(out, bin)
	}
	return out
}

// SoftStats summarizes decoder-input LLRs.
func SoftStats(llrs []float64) SoftBitStats {
	var acc SoftAccumulator
	for _, l := range llrs {
		acc.Add(l)
	}
	return acc.Stats()
}

// SoftAccumulator folds decoder-input LLRs into SoftBitStats one at a time,
// in the order given, so a caller can summarize a stream it never
// materializes. The zero value is ready to use.
type SoftAccumulator struct {
	st   SoftBitStats
	sum  float64
	weak int
}

// Add folds one LLR into the summary.
func (a *SoftAccumulator) Add(llr float64) {
	if a.st.Count == 0 {
		a.st.MinAbs = math.Inf(1)
	}
	a.st.Count++
	v := math.Abs(llr)
	a.sum += v
	if v < a.st.MinAbs {
		a.st.MinAbs = v
	}
	if v > a.st.MaxAbs {
		a.st.MaxAbs = v
	}
	if v < 1 {
		a.weak++
	}
}

// Stats returns the summary of the LLRs added so far.
func (a *SoftAccumulator) Stats() SoftBitStats {
	st := a.st
	if st.Count > 0 {
		st.MeanAbs = a.sum / float64(st.Count)
		st.WeakFrac = float64(a.weak) / float64(st.Count)
	}
	return st
}
