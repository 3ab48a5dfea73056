package phy

import (
	"fmt"

	"repro/internal/fec"
	"repro/internal/mimo"
)

// A scatter table fuses deinterleave → stream merge → depuncture into one
// indexed store: pos[iss][k·N_BPSCS+b] is the offset within a symbol's
// 2·N_DBPS-wide depunctured mother-code span where the LLR the detector
// produced for stream iss, data tone k, bit b must land. The batch data
// path writes each detected LLR straight to its Viterbi branch-metric slot;
// positions never written are exactly the punctured positions, which the
// caller pre-zeroes.
//
// Per-symbol decomposition is exact because every HT MCS satisfies two
// alignment properties: the stream merger's round-robin block size divides
// N_CBPSS (so symbol boundaries are merge-round boundaries), and the
// puncture period divides N_DBPS (so every symbol starts at puncture
// phase 0). buildScatter verifies both by construction — it traces real
// tagged values through the production transforms rather than re-deriving
// the index algebra, so the table cannot drift from them.
type scatter struct {
	pos [][]int32
	// kept lists the span's surviving (non-punctured) offsets in ascending
	// order — the symbol's slice of the merged, pre-depuncture coded stream.
	kept []int32
}

// streamCodecs builds the per-stream deinterleavers and the stream parser of
// the MCS, the transforms the scatter table fuses.
func streamCodecs(mcs MCS) ([]*fec.Interleaver, *mimo.StreamParser, error) {
	ilv := make([]*fec.Interleaver, mcs.NSS)
	for iss := range ilv {
		il, err := fec.NewHTInterleaver(mcs.NBPSCS(), mcs.NSS, iss)
		if err != nil {
			return nil, nil, err
		}
		ilv[iss] = il
	}
	parser, err := mimo.NewStreamParser(mcs.NSS, mcs.NBPSCS())
	if err != nil {
		return nil, nil, err
	}
	return ilv, parser, nil
}

// buildScatter traces the scatter table of the MCS.
func buildScatter(mcs MCS) (*scatter, error) {
	ilv, parser, err := streamCodecs(mcs)
	if err != nil {
		return nil, err
	}
	nss := mcs.NSS
	ncbpss := mcs.NCBPSS()
	ndbps := mcs.NDBPS()

	// Tag every (stream, interleaved position) with a unique nonzero ID and
	// run one symbol through the exact deinterleave/merge/depuncture chain.
	streams := make([][]float64, nss)
	deint := make([][]float64, nss)
	for iss := 0; iss < nss; iss++ {
		streams[iss] = make([]float64, ncbpss)
		deint[iss] = make([]float64, ncbpss)
		for j := 0; j < ncbpss; j++ {
			streams[iss][j] = float64(iss*ncbpss + j + 1)
		}
		ilv[iss].DeinterleaveLLR(deint[iss], streams[iss])
	}
	merged, err := parser.MergeLLR(deint)
	if err != nil {
		return nil, err
	}
	dep, err := fec.Depuncture(merged, ndbps, mcs.Rate)
	if err != nil {
		return nil, err
	}

	scat := make([][]int32, nss)
	for iss := range scat {
		scat[iss] = make([]int32, ncbpss)
		for j := range scat[iss] {
			scat[iss][j] = -1
		}
	}
	var kept []int32
	for pos, v := range dep {
		if v == 0 {
			continue // punctured slot
		}
		id := int(v) - 1
		scat[id/ncbpss][id%ncbpss] = int32(pos)
		kept = append(kept, int32(pos))
	}
	// Every surviving coded bit must have landed exactly once; N_CBPS
	// surviving positions per symbol is the defining identity of the rate.
	if len(kept) != mcs.NCBPS() {
		return nil, fmt.Errorf("phy: scatter trace for MCS %d placed %d of %d coded bits", mcs.Index, len(kept), mcs.NCBPS())
	}
	for iss := range scat {
		for j, p := range scat[iss] {
			if p < 0 {
				return nil, fmt.Errorf("phy: scatter trace for MCS %d lost stream %d position %d", mcs.Index, iss, j)
			}
		}
	}
	return &scatter{pos: scat, kept: kept}, nil
}

// scatterTable returns the cached fused deinterleave/merge/depuncture table
// for the MCS, building it on first use. The cache is bounded by the MCS
// table size.
func (r *Receiver) scatterTable(mcs MCS) (*scatter, error) {
	if s, ok := r.scatterCache[mcs.Index]; ok {
		return s, nil
	}
	s, err := buildScatter(mcs)
	if err != nil {
		return nil, err
	}
	if r.scatterCache == nil {
		r.scatterCache = make(map[int]*scatter)
	}
	r.scatterCache[mcs.Index] = s
	return s, nil
}
