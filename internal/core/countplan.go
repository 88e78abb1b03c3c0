// The count/price split. A design point's cost has two factors: its
// access-count structure (how the tile streams of a (layer, tiling,
// schedule, policy) combination split into the four access categories
// of Eq. 2-3) and the per-access costs of one DRAM system. The counts
// are the expensive phase - they expand every tiling's tile groups and
// walk them once per policy - but they do not depend on the DRAM
// device's characterization at all, only on its addressing geometry
// (DRMap Sec. V-B's generality argument, made explicit in PENDRAM).
// Pricing is a handful of multiply-adds per design point.
//
// This file factors the evaluation kernel accordingly: CountScheduleColumn
// computes a grid column's backend-independent count plan (a FlatColumn)
// once, and PriceFlatInto reprices it under any evaluator whose CountKey
// matches - same geometry, element width, batch and counting convention.
// EvaluateScheduleColumn is exactly PriceFlatInto over
// CountScheduleColumn, so the serial scan, the parallel executor, the
// cluster shards and any plan cache above them share one code path and
// produce bit-for-bit identical results.
package core

import (
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/tiling"
)

// CellCounts is the access-count structure of one (tiling, policy)
// design point, split by transfer direction so both the paper's
// read-cost pricing and the direction-aware refinement can be repriced
// from the same plan: the read-only convention prices Read+Write with
// one cost set (integer-exact, so the sum equals the unsplit counts).
// The count kernel accumulates a tiling's cells in this form before it
// stores them into the plan's planes; FlatColumn.At reads one back.
type CellCounts struct {
	Read  mapping.Counts `json:"read"`
	Write mapping.Counts `json:"write"`
}

// CountKey is the projection of an evaluator that its access counts
// depend on - and nothing they do not. Two evaluators with equal
// CountKeys compute identical count plans for any workload, whatever
// their timing, energy characterization or controller capability, so a
// count plan may be priced under any evaluator sharing the key: the
// four paper architectures (one 2Gb x8 die) share plans, while e.g.
// DDR4's 16-bank geometry counts separately. The struct is comparable
// and JSON-encodes deterministically, so it serves directly as a map
// or content-address key.
type CountKey struct {
	Geometry        dram.Geometry `json:"geometry"`
	BytesPerElement int           `json:"bytes_per_element"`
	Batch           int           `json:"batch"`
	// Physical records the UsePhysicalCounts classification convention.
	Physical bool `json:"physical"`
}

// CountKey returns the evaluator's count signature.
func (ev *Evaluator) CountKey() CountKey {
	return CountKey{
		Geometry:        ev.Profile.Config.Geometry,
		BytesPerElement: ev.Accel.BytesPerElement,
		Batch:           ev.Batch,
		Physical:        ev.UsePhysicalCounts,
	}
}

// CountScheduleColumn computes one grid column's count plan: for every
// candidate tiling it expands the tile groups and accumulates the
// read/write access-category counts of every policy - the expensive
// phase of EvaluateScheduleColumn, and the part that is valid for every
// evaluator sharing this evaluator's CountKey.
//
// A stream's counts depend only on (policy, bursts), and a column's
// thousands of tilings repeat a few hundred burst lengths, so the call
// keeps a memo from burst length to the counts of every policy (one
// slab, len(policies) entries per length) and each tiling only
// accumulates Loads x memo[bursts] into an int64 scratch row. A cell's
// sums are final once its tiling's groups are summed, so the row is
// then stored into the plan's planes, the read+write totals as exact
// int64 sums. Integer accumulation is exact, so every cell equals
// GroupCountsRW over TileGroups bit for bit. The memo, the scratch row
// and the reused group buffer are local to the call and the evaluator
// is only read, so one evaluator may serve many concurrent calls.
func (ev *Evaluator) CountScheduleColumn(lg LayerGrid, scheduleIdx int, s tiling.Schedule, policies []mapping.Policy) *FlatColumn {
	np := len(policies)
	n := len(lg.Tilings) * np
	fc := &FlatColumn{LayerIndex: lg.Index, ScheduleIndex: scheduleIdx, Policies: np, cells: n, data: make([]float64, flatPlanes*n)}
	memo := make(map[int64]int) // bursts -> offset of its counts in slab
	var slab []mapping.Counts
	var groups []tiling.TileGroup
	row := make([]CellCounts, np)
	for ti, tl := range lg.Tilings {
		groups = tiling.AppendTileGroups(groups[:0], lg.Layer, tl, s, ev.Batch)
		clear(row)
		// An ofm tile's read and write streams are adjacent groups of
		// one length, so the previous group's lookup often still holds.
		lastElems, off := int64(-1), 0
		for _, grp := range groups {
			if grp.Elems != lastElems {
				bursts := ev.burstsOf(grp.Elems)
				var ok bool
				if off, ok = memo[bursts]; !ok {
					off = len(slab)
					for _, pol := range policies {
						slab = append(slab, ev.streamCounts(pol, bursts))
					}
					memo[bursts] = off
				}
				lastElems = grp.Elems
			}
			counts := slab[off : off+np]
			for pi := range row {
				if grp.Write {
					row[pi].Write.Add(counts[pi], grp.Loads)
				} else {
					row[pi].Read.Add(counts[pi], grp.Loads)
				}
			}
		}
		fc.storeRow(ti*np, row)
	}
	return fc
}

// CountColumn names the count plan for the benchmark probe, the only
// caller that still uses this name; all other code uses FlatColumn.
type CountColumn = FlatColumn

// Flatten returns fc itself: the count kernel writes the flat plan
// directly. It exists only for the benchmark probe, which times it as
// its own phase.
func (fc *FlatColumn) Flatten() *FlatColumn { return fc }
