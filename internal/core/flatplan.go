// The count plan's storage. A FlatColumn holds a column's counts as
// packed []float64 planes, per access category one of read counts and
// one of read+write totals, in one contiguous backing array: repricing
// is a branch-light linear scan over 4 sequential streams with a
// precomputed cost vector, no per-cell struct walks and no integer
// conversions - the warm path, where one plan is repriced for many
// backends and objectives. The totals are stored from the exact int64
// sums, so the paper's read-cost convention prices exactly the unsplit
// counts, and the direction-aware convention derives each write count
// as total - read, which is exact below 2^53; both stay bit-for-bit
// identical to pricing the integer counts directly (see PriceFlatInto).
package core

import (
	"math"

	"drmap/internal/mapping"
	"drmap/internal/tiling"
)

// Plane indices of a FlatColumn: the read counts of the four access
// categories of Eq. 2-3, then their read+write totals, which the paper's
// read-cost convention prices. A write count is total - read.
const (
	planeReadColumn = iota
	planeReadBanks
	planeReadSubarrays
	planeReadRows
	planeTotalColumn
	planeTotalBanks
	planeTotalSubarrays
	planeTotalRows
	flatPlanes
)

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
	// plane p spans data[p*n : (p+1)*n], n = rows*Policies.
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
	cell := func(p int) []float64 { return d[p*n+lo:][:np] }
	rCol, rBank, rSub, rRow := cell(planeReadColumn), cell(planeReadBanks), cell(planeReadSubarrays), cell(planeReadRows)
	tCol, tBank, tSub, tRow := cell(planeTotalColumn), cell(planeTotalBanks), cell(planeTotalSubarrays), cell(planeTotalRows)
	for k := range ifm {
		var r, w mapping.Counts
		r.Add(ifm[k], f.Ifm)
		r.Add(wgt[k], f.Wgt)
		r.Add(ofm[k], f.OfmRead)
		w.Add(ofm[k], f.OfmWrite)
		rCol[k] = float64(r.DifColumn)
		rBank[k] = float64(r.DifBanks)
		rSub[k] = float64(r.DifSubarrays)
		rRow[k] = float64(r.DifRows)
		tCol[k] = float64(r.DifColumn + w.DifColumn)
		tBank[k] = float64(r.DifBanks + w.DifBanks)
		tSub[k] = float64(r.DifSubarrays + w.DifSubarrays)
		tRow[k] = float64(r.DifRows + w.DifRows)
	}
}

// plane returns one packed plane.
func (fc *FlatColumn) plane(p int) []float64 {
	n := fc.planeLen()
	return fc.data[p*n : (p+1)*n]
}

// Tilings returns the number of candidate tilings the plan covers,
// counting each tiling that shares a row.
func (fc *FlatColumn) Tilings() int { return len(fc.rowOf) }

// Cells returns the number of design points the plan covers.
func (fc *FlatColumn) Cells() int { return len(fc.rowOf) * fc.Policies }

// SizeBytes reports the plan's resident memory: the backing array, the
// two index slices and the struct header - the unit the plan cache's
// byte budget accounts.
func (fc *FlatColumn) SizeBytes() int64 {
	const headerBytes = 96 // struct fields + three slice headers, rounded up
	return int64(len(fc.data))*8 + int64(len(fc.rowOf)+len(fc.firstTiling))*4 + headerBytes
}

// At reconstructs the CellCounts of (tiling ti, policy pi) from the
// planes, each write count as total - read - a test and debugging
// convenience. The round trip is exact while every count fits float64's
// 53-bit mantissa, which resolving a job checks (CheckCountRange).
func (fc *FlatColumn) At(ti, pi int) CellCounts {
	i := int(fc.rowOf[ti])*fc.Policies + pi
	counts := func(column int) mapping.Counts { // column, banks, subarrays, rows planes in order
		return mapping.Counts{
			DifColumn:    int64(fc.plane(column)[i]),
			DifBanks:     int64(fc.plane(column + 1)[i]),
			DifSubarrays: int64(fc.plane(column + 2)[i]),
			DifRows:      int64(fc.plane(column + 3)[i]),
		}
	}
	read, write := counts(planeReadColumn), counts(planeTotalColumn)
	write.Add(read, -1)
	return CellCounts{Read: read, Write: write}
}

// flatCosts is the precomputed cost vector of one pricing scan: the
// per-category cycle and energy costs the planes multiply against.
type flatCosts struct {
	colC, bankC, subC, rowC float64 // cycles
	colE, bankE, subE, rowE float64 // energy
}

func costsVec(c AccessCosts) flatCosts {
	return flatCosts{
		colC: c.Hit.Cycles, bankC: c.Bank.Cycles, subC: c.Subarray.Cycles, rowC: c.Row.Cycles,
		colE: c.Hit.Energy, bankE: c.Bank.Energy, subE: c.Subarray.Energy, rowE: c.Row.Energy,
	}
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
	read, write := costsVec(ev.Costs), costsVec(ev.WriteCosts)
	useWrite := ev.UseWriteCosts
	// r is what the read costs price: the totals, or the reads alone
	// when writes are priced apart as t - r.
	tCol, tBank, tSub, tRow := fc.plane(planeTotalColumn), fc.plane(planeTotalBanks), fc.plane(planeTotalSubarrays), fc.plane(planeTotalRows)
	rCol, rBank, rSub, rRow := tCol, tBank, tSub, tRow
	if useWrite {
		rCol, rBank, rSub, rRow = fc.plane(planeReadColumn), fc.plane(planeReadBanks), fc.plane(planeReadSubarrays), fc.plane(planeReadRows)
	}
	policies := fc.Policies
	i := 0
	for _, first := range fc.firstTiling {
		ti := int(first)
		for pi := 0; pi < policies; pi++ {
			cycles := rCol[i]*read.colC + rBank[i]*read.bankC + rSub[i]*read.subC + rRow[i]*read.rowC
			energy := rCol[i]*read.colE + rBank[i]*read.bankE + rSub[i]*read.subE + rRow[i]*read.rowE
			if useWrite {
				wCol, wBank, wSub, wRow := tCol[i]-rCol[i], tBank[i]-rBank[i], tSub[i]-rSub[i], tRow[i]-rRow[i]
				cycles += wCol*write.colC + wBank*write.bankC + wSub*write.subC + wRow*write.rowC
				energy += wCol*write.colE + wBank*write.bankE + wSub*write.subE + wRow*write.rowE
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
