package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
)

// sweepExperiments are the two experiments one sweep pass runs: E5 is
// sharded over montecarlo workers, E18 runs serially.
var sweepExperiments = []string{"e5", "e18"}

// sweepCell is the link work behind one table cell of a Quick-mode pass:
// packets PPDUs of one MCS carrying payload-octet MAC payloads, each
// received as a capture padded by the channel's lead and tail samples on
// two antennas. The sim package does not report this, so the benchmark
// states it and checkGeometry holds the returned tables to it.
type sweepCell struct {
	mcs, packets, payload, pad int
}

func (c sweepCell) psduLen() int { return c.payload + mac.Overhead() }

// sweepGeometry returns the cells of one E5+E18 Quick pass, in the order
// their values appear in the tables.
func sweepGeometry() map[string][]sweepCell {
	var e5, e18 []sweepCell
	for range []float64{6, 18, 30} { // SNR rows
		for _, m := range []int{8, 9, 11, 13, 15} {
			e5 = append(e5, sweepCell{mcs: m, packets: 10, payload: 200, pad: 200 + 100})
		}
	}
	for range []float64{0, 800} { // Doppler rows, each a static and a tracked cell
		for range 2 {
			e18 = append(e18, sweepCell{mcs: 9, packets: 5, payload: 1500, pad: 240 + 90})
		}
	}
	return map[string][]sweepCell{"e5": e5, "e18": e18}
}

// checkGeometry fails when a table no longer has the shape sweepGeometry
// describes: one cell per entry, and every PER a multiple of 1/packets.
func checkGeometry(id string, t *sim.Table, cells []sweepCell) error {
	var vals []float64
	for _, row := range t.Rows {
		vals = append(vals, row[1:]...)
	}
	if len(vals) != len(cells) {
		return fmt.Errorf("sweep geometry: %s has %d cells, the benchmark expects %d", id, len(vals), len(cells))
	}
	for i, v := range vals {
		k := v * float64(cells[i].packets)
		if d := k - float64(int(k+0.5)); d > 1e-9 || d < -1e-9 {
			return fmt.Errorf("sweep geometry: %s cell %d (PER %g) is not a multiple of 1/%d packets", id, i, v, cells[i].packets)
		}
	}
	return nil
}

type sweepBench struct {
	seed    int64
	workers int
	ref     map[string][]byte // tables rendered at workers=1
	// Offered payload bits and antenna-samples per pass.
	bits, samples float64
}

// setupSweep renders the workers=1 reference tables the passes are checked
// against.
func setupSweep(seed int64, log *spanLog) (*sweepBench, error) {
	b := &sweepBench{seed: seed, workers: runtime.NumCPU(), ref: make(map[string][]byte)}
	geo := sweepGeometry()
	root := log.open("setup", 0, 0)
	defer log.close(root)
	for _, id := range sweepExperiments {
		var table *sim.Table
		var out []byte
		if _, err := log.call("sim."+id+".ref", root, 0, func() (err error) {
			table, out, err = runExperiment(id, seed, 1)
			return err
		}); err != nil {
			return nil, err
		}
		if err := checkGeometry(id, table, geo[id]); err != nil {
			return nil, err
		}
		b.ref[id] = out
		for _, c := range geo[id] {
			m, err := phy.Lookup(c.mcs)
			if err != nil {
				return nil, err
			}
			b.bits += float64(8 * c.packets * c.payload)
			b.samples += float64(c.packets * 2 * (phy.BurstLen(m, c.psduLen()) + c.pad))
		}
	}
	return b, nil
}

func runExperiment(id string, seed int64, workers int) (*sim.Table, []byte, error) {
	run, err := sim.Lookup(id)
	if err != nil {
		return nil, nil, err
	}
	opt := sim.DefaultOptions()
	opt.Seed, opt.Quick, opt.Workers = seed, true, workers
	table, err := run(opt)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", id, err)
	}
	var out strings.Builder
	if err := table.Render(&out); err != nil {
		return nil, nil, err
	}
	return table, []byte(out.String()), nil
}

// pass runs E5 and E18 at workers = nproc; each rendered table must be
// byte-identical to its workers=1 reference.
func (b *sweepBench) pass(t *tally, req int64, log *spanLog) error {
	start, cpu0 := time.Now(), processCPU()
	root := log.open("sweep.pass", 0, req)
	for _, id := range sweepExperiments {
		var out []byte
		if _, err := log.call("sim."+id, root, req, func() (err error) {
			_, out, err = runExperiment(id, b.seed, b.workers)
			return err
		}); err != nil {
			return err
		}
		t.attempted++
		if !bytes.Equal(out, b.ref[id]) {
			t.violations++
			t.lost++
		}
	}
	log.close(root)
	t.elapsed += time.Since(start)
	t.lap(start, cpu0)
	t.passes++
	t.goodBits += b.bits
	t.samples += b.samples
	t.nrx = 2
	return nil
}

// measure runs passes until d has passed.
func (b *sweepBench) measure(d time.Duration) (*tally, error) {
	t := &tally{}
	start := time.Now()
	for i := int64(0); time.Since(start) < d; i++ {
		if err := b.pass(t, i, nil); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (b *sweepBench) unit(log *spanLog) (*tally, error) {
	t := &tally{}
	return t, b.pass(t, 0, log)
}

// phyRate is 0: a pass runs six MCSs, so no single PHY rate applies.
func (b *sweepBench) phyRate() float64 { return 0 }
