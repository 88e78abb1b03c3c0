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
// This file factors the evaluation kernel accordingly: CountLayer
// computes a layer's backend-independent count plans (one FlatColumn per
// schedule column) once, and PriceFlatInto reprices each under any
// evaluator whose CountKey matches - same geometry, element width, batch
// and counting convention. CountScheduleColumn is CountLayer over one
// schedule, and EvaluateScheduleColumn is PriceFlatInto over it, so the
// serial scan, the parallel executor, the cluster shards and any plan
// cache above them share one count kernel and produce bit-for-bit
// identical results.
package core

import (
	"fmt"
	"math/bits"

	"drmap/internal/cnn"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/tiling"
)

// CellCounts is the access-count structure of one (tiling, policy)
// design point, split by transfer direction so both the paper's
// read-cost pricing and the direction-aware refinement can be repriced
// from the same plan: the read-only convention prices Read+Write with
// one cost set (integer-exact, so the sum equals the unsplit counts).
// A plan stores Read and the Read+Write total in its planes;
// FlatColumn.At reads one back in this form, Write as total - read.
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

// maxExactCount bounds the plan counts: below 2^53 every count, and the
// sum or difference of two, is an exact float64 integer.
const maxExactCount = 1 << 53

// CheckCountRange rejects a network with a layer whose plan counts could
// reach 2^53 at the given element width and batch: its planes would
// round and its priced or simulated cycles could wrap int64. It costs a
// few multiplies per layer, so resolving a DSE or simulate job runs it.
func CheckCountRange(net cnn.Network, bytesPerElement, batch int) error {
	if batch < 1 {
		return fmt.Errorf("core: batch must be >= 1, got %d", batch)
	}
	if bytesPerElement < 1 {
		return fmt.Errorf("core: bytes per element must be positive, got %d", bytesPerElement)
	}
	for _, l := range net.Layers {
		if bound, ok := countBound(l, bytesPerElement, batch); !ok || bound >= maxExactCount {
			return fmt.Errorf("core: layer %s at batch %d: too large to count exactly (its DRAM accesses may reach 2^53)", l.Name, batch)
		}
	}
	return nil
}

// countBound bounds the accesses of any cell of a plan of layer l,
// whatever its tiling, schedule and policy; false if the bound overflows
// uint64. A stream of e elements is at most e*bytesPerElement bursts.
// Per image a cell moves at most X = HW*IJ*max(P,S)*max(Q,S) ifm
// elements (a tile of Th output rows reads (Th-1)S+P <= Th*max(P,S)
// input rows, reloaded at most J times), at most MACs <= X weight
// elements and at most 2I*HWJ <= 2X ofm elements, so 4X bounds the sum.
func countBound(l cnn.Layer, bytesPerElement, batch int) (uint64, bool) {
	bound := uint64(1)
	for _, f := range [...]int{4, l.H, l.W, l.I, l.J, max(l.P, l.Stride), max(l.Q, l.Stride), bytesPerElement, batch} {
		hi, lo := bits.Mul64(bound, uint64(f))
		if hi != 0 {
			return 0, false
		}
		bound = lo
	}
	return bound, true
}

// CountScheduleColumn computes one grid column's count plan - the
// expensive phase of EvaluateScheduleColumn, and the part that is valid
// for every evaluator sharing this evaluator's CountKey. It is CountLayer
// over the one schedule, with the column stamped as schedule
// scheduleIdx of its job.
func (ev *Evaluator) CountScheduleColumn(lg LayerGrid, scheduleIdx int, s tiling.Schedule, policies []mapping.Policy) *FlatColumn {
	fc := ev.CountLayer(lg, []tiling.Schedule{s}, policies)[0]
	fc.ScheduleIndex = scheduleIdx
	return fc
}

// CountLayer computes the count plans of one layer's run of schedule
// columns in one pass: column k is schedule k's plan, with
// ScheduleIndex k (a caller counting a sub-run of a job's schedules
// offsets it). A tiling's tile streams are the same under every
// schedule; only each tensor's load factor changes (tiling.Split). So
// each plan row expands its tiling once, sums every policy's
// access-category counts per tensor - sum over tile sizes of tiles x
// streamCounts(pol, bursts) for ifms, weights and ofms - and then forms
// each schedule's row as a four-term integer combination of those sums
// with the schedule's load factors: reads ifm*Ifm + wgt*Wgt +
// ofm*OfmRead, writes ofm*OfmWrite. AdaptiveReuse resolves per tiling
// from the same split.
//
// In a square layer a tiling and its Th/Tw mirror expand to the same
// multiset of tile streams and resolve AdaptiveReuse alike, so the later
// of the two reuses the earlier one's plan row instead of being counted
// and stored again (planRows); At, Tilings and Cells still cover every
// tiling, and the columns share the row index.
//
// A stream's counts depend only on (policy, bursts), and a layer's
// thousands of tilings repeat a few hundred burst lengths, so the call
// keeps a memo from burst length to the counts of every policy (one
// slab, len(policies) entries per length). A row's cells are final once
// its tiling's sums are combined, so each is stored into its column's
// planes: the reads, and the read+write totals as exact int64 sums.
// Integer arithmetic is exact and distributes, so every cell equals
// GroupCountsRW over TileGroups bit for bit. The memo and the
// per-tensor sums are local to the call and the evaluator is only read,
// so one evaluator may serve many concurrent calls.
func (ev *Evaluator) CountLayer(lg LayerGrid, schedules []tiling.Schedule, policies []mapping.Policy) []*FlatColumn {
	np := len(policies)
	rowOf, firstTiling := planRows(lg.Layer, lg.Tilings)
	cols := make([]*FlatColumn, len(schedules))
	n := flatPlanes * len(firstTiling) * np // one column's planes
	data := make([]float64, len(schedules)*n)
	for si := range cols {
		cols[si] = &FlatColumn{LayerIndex: lg.Index, ScheduleIndex: si, Policies: np,
			rowOf: rowOf, firstTiling: firstTiling, data: data[si*n : (si+1)*n : (si+1)*n]}
	}
	memo := make(map[int64]int) // bursts -> offset of its counts in slab
	var slab []mapping.Counts
	// sum adds tiles x counts(bursts) of every policy into acc for each
	// tile size. Adjacent sizes can hold equal element counts (a square
	// layer's two edge tiles), so the previous lookup is kept.
	sum := func(acc []mapping.Counts, sizes []tiling.TileCount) {
		lastElems, off := int64(-1), 0
		for _, g := range sizes {
			if g.Elems != lastElems {
				bursts := ev.burstsOf(g.Elems)
				var ok bool
				if off, ok = memo[bursts]; !ok {
					off = len(slab)
					for _, pol := range policies {
						slab = append(slab, ev.streamCounts(pol, bursts))
					}
					memo[bursts] = off
				}
				lastElems = g.Elems
			}
			counts := slab[off : off+np]
			for pi := range acc {
				acc[pi].Add(counts[pi], g.Tiles)
			}
		}
	}
	sums := make([]mapping.Counts, 3*np)
	ifm, wgt, ofm := sums[:np], sums[np:2*np], sums[2*np:]
	for r, ti := range firstTiling {
		sp := tiling.SplitOf(lg.Layer, lg.Tilings[ti], ev.Batch)
		clear(sums)
		sum(ifm, sp.Ifm())
		sum(wgt, sp.Wgt())
		sum(ofm, sp.Ofm())
		for si, s := range schedules {
			cols[si].storeRow(r, sp.Loads(s), ifm, wgt, ofm)
		}
	}
	return cols
}

// planRows assigns the column's tilings to plan rows: rowOf[ti] is
// tiling ti's row and firstTiling[r] the first tiling of row r. In a
// square layer (H == W and P == Q) a tiling whose Th/Tw mirror - or the
// tiling itself - appeared earlier takes that tiling's row; every other
// tiling opens a new one. Any other layer gets one row per tiling.
//
// The earlier-tiling lookup is an open-addressing table of tiling
// indices keyed by the mirror-invariant form (mirrorKeyOf): one []int32
// at most four times the tiling count. A generic map keyed by Tiling
// took a fifth of BenchmarkCountColumn/VGG-16's CPU profile.
func planRows(l cnn.Layer, tilings []tiling.Tiling) (rowOf, firstTiling []int32) {
	rowOf = make([]int32, len(tilings))
	rows := int32(0)
	if l.H == l.W && l.P == l.Q {
		shift := 64 - bits.Len(uint(2*len(tilings)))
		mask := uint64(1)<<(64-shift) - 1
		table := make([]int32, mask+1) // tiling index + 1; 0 is empty
		for ti, tl := range tilings {
			key := mirrorKeyOf(tl)
			h := key.hash() >> shift
			for table[h] != 0 && mirrorKeyOf(tilings[table[h]-1]) != key {
				h = (h + 1) & mask
			}
			if table[h] != 0 {
				rowOf[ti] = rowOf[table[h]-1]
				continue
			}
			table[h] = int32(ti) + 1
			rowOf[ti] = rows
			rows++
		}
	} else {
		for ti := range rowOf {
			rowOf[ti] = int32(ti)
		}
		rows = int32(len(tilings))
	}
	// Rows open in tiling order, so each row's first tiling is the
	// first tiling mapped to the next unseen row.
	firstTiling = make([]int32, 0, rows)
	for ti, r := range rowOf {
		if int(r) == len(firstTiling) {
			firstTiling = append(firstTiling, int32(ti))
		}
	}
	return rowOf, firstTiling
}

// mirrorKey is a tiling with Th <= Tw: a tiling and its Th/Tw mirror
// share one.
type mirrorKey tiling.Tiling

func mirrorKeyOf(t tiling.Tiling) mirrorKey {
	if t.Th > t.Tw {
		t.Th, t.Tw = t.Tw, t.Th
	}
	return mirrorKey(t)
}

// hash mixes the four steps multiplicatively; planRows takes the top
// bits as the table slot.
func (k mirrorKey) hash() uint64 {
	const m = 0x9E3779B97F4A7C15
	h := uint64(k.Th)
	h = h*m + uint64(k.Tw)
	h = h*m + uint64(k.Tj)
	h = h*m + uint64(k.Ti)
	return h * m
}

// CountColumn names the count plan for the benchmark probe, the only
// caller that still uses this name; all other code uses FlatColumn.
type CountColumn = FlatColumn

// Flatten returns fc itself: the count kernel writes the flat plan
// directly. It exists only for the benchmark probe, which times it as
// its own phase.
func (fc *FlatColumn) Flatten() *FlatColumn { return fc }
