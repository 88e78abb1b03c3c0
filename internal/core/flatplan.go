// The count plan's storage. A FlatColumn holds a column's counts as
// packed []float64 planes, one per access category and transfer
// direction, in one contiguous backing array: repricing is a
// branch-light linear scan over 4 (or 8) sequential streams with a
// precomputed cost vector, no per-cell struct walks and no integer
// conversions - the warm path, where one plan is repriced for many
// backends and objectives. The read-cost convention's summed counts are
// stored from the exact int64 sums, so both pricing conventions are
// served by one plan and both stay bit-for-bit identical to pricing the
// integer counts directly (see PriceFlatInto).
package core

import (
	"math"

	"drmap/internal/mapping"
)

// Plane indices of a FlatColumn: the four access categories of Eq. 2-3
// per direction, plus the precomputed read+write totals the paper's
// read-cost convention prices.
const (
	planeReadColumn = iota
	planeReadBanks
	planeReadSubarrays
	planeReadRows
	planeWriteColumn
	planeWriteBanks
	planeWriteSubarrays
	planeWriteRows
	planeTotalColumn
	planeTotalBanks
	planeTotalSubarrays
	planeTotalRows
	flatPlanes
)

// FlatColumn is the count plan of one (layer, schedule) grid column:
// the counts of every (tiling, policy) design point the column searches,
// as contiguous column-major float64 planes, cell (ti, pi) at index
// ti*Policies+pi of every plane. It carries the read, write and
// read+write count of each access category, so one plan reprices under
// either pricing convention (UseWriteCosts on or off). It retains
// per-tiling counts rather than a pre-reduced winner because the argmin
// depends on the objective value, which is priced per backend. Build one
// with Evaluator.CountScheduleColumn; a FlatColumn is immutable after
// construction and safe for concurrent repricing.
type FlatColumn struct {
	LayerIndex    int
	ScheduleIndex int
	// Policies is the row width (the policy count).
	Policies int

	cells int
	// data holds the flatPlanes planes back to back in one allocation;
	// plane p spans data[p*cells : (p+1)*cells].
	data []float64
}

// storeRow writes one tiling's finished counts into the planes, cell
// row[k] at index i+k. The total planes are converted from the exact
// int64 read+write sums - not summed in float64 - so the read-cost
// convention prices exactly the unsplit counts.
func (fc *FlatColumn) storeRow(i int, row []CellCounts) {
	d, n := fc.data, fc.cells
	for k := range row {
		r, w, j := &row[k].Read, &row[k].Write, i+k
		d[planeReadColumn*n+j] = float64(r.DifColumn)
		d[planeReadBanks*n+j] = float64(r.DifBanks)
		d[planeReadSubarrays*n+j] = float64(r.DifSubarrays)
		d[planeReadRows*n+j] = float64(r.DifRows)
		d[planeWriteColumn*n+j] = float64(w.DifColumn)
		d[planeWriteBanks*n+j] = float64(w.DifBanks)
		d[planeWriteSubarrays*n+j] = float64(w.DifSubarrays)
		d[planeWriteRows*n+j] = float64(w.DifRows)
		d[planeTotalColumn*n+j] = float64(r.DifColumn + w.DifColumn)
		d[planeTotalBanks*n+j] = float64(r.DifBanks + w.DifBanks)
		d[planeTotalSubarrays*n+j] = float64(r.DifSubarrays + w.DifSubarrays)
		d[planeTotalRows*n+j] = float64(r.DifRows + w.DifRows)
	}
}

// plane returns one packed plane.
func (fc *FlatColumn) plane(p int) []float64 {
	return fc.data[p*fc.cells : (p+1)*fc.cells]
}

// Tilings returns the number of candidate tilings the plan covers.
func (fc *FlatColumn) Tilings() int {
	if fc.Policies == 0 {
		return 0
	}
	return fc.cells / fc.Policies
}

// Cells returns the number of design points the plan covers.
func (fc *FlatColumn) Cells() int { return fc.cells }

// SizeBytes reports the plan's resident memory: the backing array plus
// the struct header - the unit the plan cache's byte budget accounts.
func (fc *FlatColumn) SizeBytes() int64 {
	const headerBytes = 64 // struct fields + slice header, rounded up
	return int64(len(fc.data))*8 + headerBytes
}

// At reconstructs the CellCounts of (tiling ti, policy pi) from the
// planes - a test and debugging convenience. The round trip is exact
// while every count fits float64's 53-bit mantissa, which the modeled
// access counts do by a wide margin.
func (fc *FlatColumn) At(ti, pi int) CellCounts {
	i := ti*fc.Policies + pi
	return CellCounts{
		Read: mapping.Counts{
			DifColumn:    int64(fc.plane(planeReadColumn)[i]),
			DifBanks:     int64(fc.plane(planeReadBanks)[i]),
			DifSubarrays: int64(fc.plane(planeReadSubarrays)[i]),
			DifRows:      int64(fc.plane(planeReadRows)[i]),
		},
		Write: mapping.Counts{
			DifColumn:    int64(fc.plane(planeWriteColumn)[i]),
			DifBanks:     int64(fc.plane(planeWriteBanks)[i]),
			DifSubarrays: int64(fc.plane(planeWriteSubarrays)[i]),
			DifRows:      int64(fc.plane(planeWriteRows)[i]),
		},
	}
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
// returning it. The scan order and the strict-minimum rule match the
// serial loop nest, and every float64 operation matches pricing the
// integer counts with priceWith/PriceRW and Objective.Value, so the
// cells are bit-for-bit identical to the direct per-tiling scan for any
// evaluator whose CountKey matches the plan's producer. A policy with
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
	rCol, rBank, rSub, rRow := fc.plane(planeReadColumn), fc.plane(planeReadBanks), fc.plane(planeReadSubarrays), fc.plane(planeReadRows)
	wCol, wBank, wSub, wRow := fc.plane(planeWriteColumn), fc.plane(planeWriteBanks), fc.plane(planeWriteSubarrays), fc.plane(planeWriteRows)
	if !useWrite {
		rCol, rBank, rSub, rRow = fc.plane(planeTotalColumn), fc.plane(planeTotalBanks), fc.plane(planeTotalSubarrays), fc.plane(planeTotalRows)
	}
	tilings, policies := fc.Tilings(), fc.Policies
	i := 0
	for ti := 0; ti < tilings; ti++ {
		for pi := 0; pi < policies; pi++ {
			cycles := rCol[i]*read.colC + rBank[i]*read.bankC + rSub[i]*read.subC + rRow[i]*read.rowC
			energy := rCol[i]*read.colE + rBank[i]*read.bankE + rSub[i]*read.subE + rRow[i]*read.rowE
			if useWrite {
				cycles += wCol[i]*write.colC + wBank[i]*write.bankC + wSub[i]*write.subC + wRow[i]*write.rowC
				energy += wCol[i]*write.colE + wBank[i]*write.bankE + wSub[i]*write.subE + wRow[i]*write.rowE
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
