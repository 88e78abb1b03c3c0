// The count plan's storage. A FlatColumn holds a column's counts as
// packed []float64 planes in one contiguous backing array, laid out from
// mapping.NumCategories: the read counts of each access category, planes
// [0, N), then their read+write totals, planes [N, 2N). Repricing is a
// branch-light linear scan over N sequential streams, no per-cell struct
// walks and no integer conversions - the warm path, where one plan is
// repriced for many backends and objectives. The totals are stored from
// the exact int64 sums, so the paper's read-cost convention prices
// exactly the unsplit counts, and the direction-aware convention derives
// each write count as total - read, which is exact below 2^53; both stay
// bit-for-bit identical to pricing the integer counts directly.
package core

import (
	"math"

	"drmap/internal/mapping"
	"drmap/internal/tiling"
)

// flatPlanes is the number of planes of a FlatColumn: each category's
// reads, then each one's read+write total.
const flatPlanes = 2 * int(mapping.NumCategories)

// storeRow and PriceFlatInto name each category (see Counts.Add).
var _ = [1]struct{}{}[mapping.NumCategories-4]

// FlatColumn is the count plan of one (layer, schedule) grid column:
// the counts of every (tiling, policy) design point the column searches,
// as contiguous float64 planes of plan rows, one row of Policies cells
// per distinct tile stream. Tilings that expand to the same tile
// streams - a square layer's Th/Tw mirror pairs - share one row:
// tiling ti's cell pi sits at index rowOf[ti]*Policies+pi of every
// plane, and firstTiling[r] is the first tiling stored in row r. It
// carries the read and read+write count of each access category, so one
// plan reprices under either pricing convention (UseWriteCosts on or
// off). It retains per-tiling counts rather than a pre-reduced winner
// because the argmin depends on the objective value, which is priced per
// backend. Build a layer's columns with Evaluator.CountLayer, or one
// with CountScheduleColumn. A FlatColumn is immutable once its producer
// has set its ScheduleIndex, and safe for concurrent repricing.
type FlatColumn struct {
	LayerIndex    int
	ScheduleIndex int
	// Policies is the row width (the policy count).
	Policies int

	// rowOf maps each tiling to its plan row; firstTiling maps each row
	// to the lowest tiling index stored in it, ascending by row.
	rowOf       []int32
	firstTiling []int32
	// data holds the flatPlanes planes back to back in one allocation;
	// plane p spans data[p*n : (p+1)*n], n = rows*Policies: category k's
	// reads are plane k, its read+write totals plane NumCategories+k.
	data []float64
}

// planeLen is the length of one plane: every stored row's cells.
func (fc *FlatColumn) planeLen() int { return len(fc.firstTiling) * fc.Policies }

// storeRow writes one plan row's finished counts into the planes: cell
// k, at index ri*Policies+k, reads ifm[k]*f.Ifm + wgt[k]*f.Wgt +
// ofm[k]*f.OfmRead and writes ofm[k]*f.OfmWrite. Both, and the
// read+write totals, are exact int64 sums converted once - not summed
// in float64 - so the read-cost convention prices exactly the unsplit
// counts.
func (fc *FlatColumn) storeRow(ri int, f tiling.Loads, ifm, wgt, ofm []mapping.Counts) {
	np := len(ifm)
	wgt, ofm = wgt[:np], ofm[:np]
	d, n, lo := fc.data, fc.planeLen(), ri*fc.Policies
	// One row's cells of each plane, each exactly np long, so the loop
	// indexes them without bounds checks.
	cell := func(p mapping.Category) []float64 { return d[int(p)*n+lo:][:np] }
	const col, bank, sub, row = mapping.DifColumn, mapping.DifBanks, mapping.DifSubarrays, mapping.DifRows
	const t = mapping.NumCategories // first total plane
	rCol, rBank, rSub, rRow := cell(col), cell(bank), cell(sub), cell(row)
	tCol, tBank, tSub, tRow := cell(t+col), cell(t+bank), cell(t+sub), cell(t+row)
	for k := range ifm {
		// Indexing in place keeps the counts in registers; a Counts
		// temporary is an array, which the compiler keeps on the stack.
		a, b, o := &ifm[k], &wgt[k], &ofm[k]
		r := a[col]*f.Ifm + b[col]*f.Wgt + o[col]*f.OfmRead
		rCol[k], tCol[k] = float64(r), float64(r+o[col]*f.OfmWrite)
		r = a[bank]*f.Ifm + b[bank]*f.Wgt + o[bank]*f.OfmRead
		rBank[k], tBank[k] = float64(r), float64(r+o[bank]*f.OfmWrite)
		r = a[sub]*f.Ifm + b[sub]*f.Wgt + o[sub]*f.OfmRead
		rSub[k], tSub[k] = float64(r), float64(r+o[sub]*f.OfmWrite)
		r = a[row]*f.Ifm + b[row]*f.Wgt + o[row]*f.OfmRead
		rRow[k], tRow[k] = float64(r), float64(r+o[row]*f.OfmWrite)
	}
}

// plane returns one packed plane.
func (fc *FlatColumn) plane(p mapping.Category) []float64 {
	n := fc.planeLen()
	return fc.data[int(p)*n : int(p+1)*n]
}

// Tilings returns the number of candidate tilings the plan covers,
// counting each tiling that shares a row.
func (fc *FlatColumn) Tilings() int { return len(fc.rowOf) }

// Cells returns the number of design points the plan covers.
func (fc *FlatColumn) Cells() int { return len(fc.rowOf) * fc.Policies }

// PlanBytes reports the resident memory of a run of count plans - the
// unit the plan cache's byte budget accounts: each column's planes and
// struct header, and each row index once however many adjacent columns
// share it (the columns of one CountLayer call share theirs).
func PlanBytes(cols []*FlatColumn) int64 {
	const headerBytes = 96 // struct fields + three slice headers, rounded up
	var n int64
	var last []int32 // the previous column's row index
	for _, fc := range cols {
		n += int64(len(fc.data))*8 + headerBytes
		if len(last) == 0 || len(fc.rowOf) == 0 || &fc.rowOf[0] != &last[0] {
			n += int64(len(fc.rowOf)+len(fc.firstTiling)) * 4
		}
		last = fc.rowOf
	}
	return n
}

// At reconstructs the CellCounts of (tiling ti, policy pi) from the
// planes, each write count as total - read - a test and debugging
// convenience. The round trip is exact while every count fits float64's
// 53-bit mantissa, which resolving a job checks (CheckCountRange).
func (fc *FlatColumn) At(ti, pi int) CellCounts {
	i := int(fc.rowOf[ti])*fc.Policies + pi
	var c CellCounts
	for k := range mapping.NumCategories {
		c.Read[k] = int64(fc.plane(k)[i])
		c.Write[k] = int64(fc.plane(mapping.NumCategories + k)[i]) - c.Read[k]
	}
	return c
}

// PriceFlatInto reprices a count plan under this evaluator's cost sets,
// timing and the given objective - the cheap phase - writing each
// policy's winner into out (grown only if its capacity is short) and
// returning it. It scans the stored rows only, in ascending order of
// their first tilings, and reports a winning row as that first tiling.
// A tiling sharing a row prices identically to the row's first tiling,
// which comes before it in the serial loop nest, so under the same
// strict-minimum rule it could never have won; every float64 operation
// matches pricing the integer counts with priceWith/PriceRW and
// Objective.Value. The cells are therefore bit-for-bit identical to the
// direct per-tiling scan for any evaluator whose CountKey matches the
// plan's producer. Under UseWriteCosts each write count is derived as
// total - read, which is exact for integers below 2^53. A policy with
// no finite-objective tiling keeps Value +Inf, tiling 0 and a zero cost.
// out may be reused across calls, which makes the scan allocation-free.
//
// The scan body is hand-flattened: plane slices are hoisted out of the
// loop and the pricing and objective arithmetic inlined (same
// left-associated expression shapes as priceWith and Objective.Value,
// no fused operations), so the per-cell work is pure float math plus
// one predictable branch - this loop is the entire warm path of a
// serving daemon, and call overhead per cell dominated it.
func (ev *Evaluator) PriceFlatInto(fc *FlatColumn, obj Objective, out []CellResult) []CellResult {
	tm := ev.Timing()
	if cap(out) < fc.Policies {
		out = make([]CellResult, fc.Policies)
	}
	out = out[:fc.Policies]
	for pi := range out {
		out[pi] = CellResult{
			LayerIndex:    fc.LayerIndex,
			ScheduleIndex: fc.ScheduleIndex,
			PolicyIndex:   pi,
			Value:         math.Inf(1),
		}
	}
	read, write := ev.Costs, ev.WriteCosts
	useWrite := ev.UseWriteCosts
	const col, bank, sub, row = mapping.DifColumn, mapping.DifBanks, mapping.DifSubarrays, mapping.DifRows
	// r is what the read costs price: the totals, or the reads alone
	// when writes are priced apart as t - r.
	const t = mapping.NumCategories // first total plane
	tCol, tBank, tSub, tRow := fc.plane(t+col), fc.plane(t+bank), fc.plane(t+sub), fc.plane(t+row)
	rCol, rBank, rSub, rRow := tCol, tBank, tSub, tRow
	if useWrite {
		rCol, rBank, rSub, rRow = fc.plane(col), fc.plane(bank), fc.plane(sub), fc.plane(row)
	}
	policies := fc.Policies
	i := 0
	for _, first := range fc.firstTiling {
		ti := int(first)
		for pi := 0; pi < policies; pi++ {
			cycles := rCol[i]*read[col].Cycles + rBank[i]*read[bank].Cycles + rSub[i]*read[sub].Cycles + rRow[i]*read[row].Cycles
			energy := rCol[i]*read[col].Energy + rBank[i]*read[bank].Energy + rSub[i]*read[sub].Energy + rRow[i]*read[row].Energy
			if useWrite {
				wCol, wBank, wSub, wRow := tCol[i]-rCol[i], tBank[i]-rBank[i], tSub[i]-rSub[i], tRow[i]-rRow[i]
				cycles += wCol*write[col].Cycles + wBank*write[bank].Cycles + wSub*write[sub].Cycles + wRow*write[row].Cycles
				energy += wCol*write[col].Energy + wBank*write[bank].Energy + wSub*write[sub].Energy + wRow*write[row].Energy
			}
			var v float64
			switch obj {
			case MinimizeEnergy:
				v = energy
			case MinimizeDelay:
				v = float64(int64(math.Round(cycles))) * tm.TCKNanos * 1e-9
			default:
				v = energy * (float64(int64(math.Round(cycles))) * tm.TCKNanos * 1e-9)
			}
			if v < out[pi].Value {
				out[pi].Value = v
				out[pi].Cost = LayerEDP{Cycles: cycles, Energy: energy}
				out[pi].TilingIndex = ti
			}
			i++
		}
	}
	return out
}
