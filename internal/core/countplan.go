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
// computes a grid column's backend-independent count plan (a CountColumn)
// once, and PriceCells reprices it under any evaluator whose CountKey
// matches - same geometry, element width, batch and counting convention.
// EvaluateScheduleColumn is exactly PriceCells over CountScheduleColumn,
// so the serial scan, the parallel executor, the cluster shards and any
// plan cache above them share one code path and produce bit-for-bit
// identical results.
package core

import (
	"math"

	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/tiling"
)

// CellCounts is the access-count structure of one (tiling, policy)
// design point, split by transfer direction so both the paper's
// read-cost pricing and the direction-aware refinement can be repriced
// from the same plan: the read-only convention prices Read+Write with
// one cost set (integer-exact, so the sum equals the unsplit counts).
type CellCounts struct {
	Read  mapping.Counts `json:"read"`
	Write mapping.Counts `json:"write"`
}

// CountColumn is the count plan of one (layer, schedule) grid column:
// the CellCounts of every (tiling, policy) design point the column
// searches, in the serial scan's iteration order. It retains per-tiling
// counts rather than a pre-reduced winner because the argmin depends on
// the objective value, which is priced per backend - reducing here
// would bake one backend's (or objective's) pick into the plan.
type CountColumn struct {
	LayerIndex    int `json:"layer"`
	ScheduleIndex int `json:"schedule"`
	// Policies is the row width of Cells (the policy count).
	Policies int `json:"policies"`
	// Cells holds the counts flattened tiling-major:
	// Cells[ti*Policies+pi] is tiling ti priced under policy pi.
	Cells []CellCounts `json:"cells"`
}

// Tilings returns the number of candidate tilings the plan covers.
func (cc *CountColumn) Tilings() int {
	if cc.Policies == 0 {
		return 0
	}
	return len(cc.Cells) / cc.Policies
}

// At returns the counts of (tiling ti, policy pi).
func (cc *CountColumn) At(ti, pi int) CellCounts {
	return cc.Cells[ti*cc.Policies+pi]
}

// CountKey is the projection of an evaluator that its access counts
// depend on - and nothing they do not. Two evaluators with equal
// CountKeys compute identical CountColumns for any workload, whatever
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
// accumulates Loads x memo[bursts]. Integer accumulation is exact, so
// every cell equals GroupCountsRW over TileGroups bit for bit. The memo
// and the reused group buffer are local to the call and the evaluator
// is only read, so one evaluator may serve many concurrent calls.
func (ev *Evaluator) CountScheduleColumn(lg LayerGrid, scheduleIdx int, s tiling.Schedule, policies []mapping.Policy) *CountColumn {
	np := len(policies)
	cc := &CountColumn{
		LayerIndex:    lg.Index,
		ScheduleIndex: scheduleIdx,
		Policies:      np,
		Cells:         make([]CellCounts, len(lg.Tilings)*np),
	}
	memo := make(map[int64]int) // bursts -> offset of its counts in slab
	var slab []mapping.Counts
	var groups []tiling.TileGroup
	for ti, tl := range lg.Tilings {
		groups = tiling.AppendTileGroups(groups[:0], lg.Layer, tl, s, ev.Batch)
		row := cc.Cells[ti*np : (ti+1)*np]
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
	}
	return cc
}

// priceCell prices one design point's counts under the evaluator's
// configured cost model. The read-cost path sums the directions first
// (integer-exact), so the result is bit-for-bit the cost the unsplit
// GroupCounts pricing produces.
func (ev *Evaluator) priceCell(c CellCounts) LayerEDP {
	if ev.UseWriteCosts {
		return ev.PriceRW(c.Read, c.Write)
	}
	total := c.Read
	total.Add(c.Write, 1)
	return priceWith(ev.Costs, total)
}

// PriceCells reprices a count plan under this evaluator's cost sets,
// timing and the given objective - the cheap phase. The scan order and
// the strict-minimum rule match the serial loop nest exactly, so the
// returned cells are bit-for-bit identical to EvaluateScheduleColumn's
// for any evaluator whose CountKey matches the plan's producer.
func (ev *Evaluator) PriceCells(cc *CountColumn, obj Objective) []CellResult {
	return ev.PriceCellsInto(cc, obj, nil)
}

// PriceCellsInto is PriceCells writing into out (grown only when its
// capacity is short), so a caller repricing many columns - the warm
// loop of the plan cache and the delta sweeps - reuses one scratch
// buffer instead of allocating per column.
func (ev *Evaluator) PriceCellsInto(cc *CountColumn, obj Objective, out []CellResult) []CellResult {
	tm := ev.Timing()
	out = resizeCells(out, cc.Policies)
	for pi := range out {
		out[pi] = CellResult{
			LayerIndex:    cc.LayerIndex,
			ScheduleIndex: cc.ScheduleIndex,
			PolicyIndex:   pi,
			Value:         math.Inf(1),
		}
	}
	tilings := cc.Tilings()
	for ti := 0; ti < tilings; ti++ {
		row := cc.Cells[ti*cc.Policies : (ti+1)*cc.Policies]
		for pi := range row {
			cost := ev.priceCell(row[pi])
			if v := obj.Value(cost, tm); v < out[pi].Value {
				out[pi].Value = v
				out[pi].Cost = cost
				out[pi].TilingIndex = ti
			}
		}
	}
	return out
}

// MinOverColumn reprices one policy of a count plan and returns the
// minimum-EDP tiling index and its cost, exactly as MinOverTilings
// scans: first strict EDP minimum wins. A column with no finite-EDP
// tiling returns index -1 and an infinite cost, matching the
// no-winner sentinel MinOverTilings has always produced.
func (ev *Evaluator) MinOverColumn(cc *CountColumn, policyIdx int) (int, LayerEDP) {
	tm := ev.Timing()
	best := LayerEDP{Cycles: math.Inf(1), Energy: math.Inf(1)}
	bestEDP := math.Inf(1)
	bestTiling := -1
	tilings := cc.Tilings()
	for ti := 0; ti < tilings; ti++ {
		e := ev.priceCell(cc.At(ti, policyIdx))
		if edp := e.EDP(tm); edp < bestEDP {
			bestEDP = edp
			best = e
			bestTiling = ti
		}
	}
	return bestTiling, best
}
