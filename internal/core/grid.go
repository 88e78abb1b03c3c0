// The DSE evaluation grid. Algorithm 1 scans the cartesian product
// layer x tiling x schedule x policy; this file factors that scan into
// independently evaluable (layer, schedule, policy) cells plus a
// deterministic reduction, so the serial RunDSE and any parallel
// executor (package service) share one code path and produce
// bit-for-bit identical DSEResults.
package core

import (
	"fmt"
	"math"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/tiling"
)

// LayerGrid bundles one layer's share of the DSE grid: the layer, its
// position in the network, and the candidate partitionings every
// (schedule, policy) cell searches.
type LayerGrid struct {
	Index   int
	Layer   cnn.Layer
	Tilings []tiling.Tiling
}

// CellResult is the outcome of one (layer, schedule, policy) cell: the
// minimum-objective tiling, its cost and its objective value. The three
// indices locate the cell so a reducer can restore the serial scan
// order regardless of evaluation order.
type CellResult struct {
	LayerIndex    int
	ScheduleIndex int
	PolicyIndex   int
	TilingIndex   int
	Cost          LayerEDP
	Value         float64
}

// DSEGrid validates the DSE inputs and enumerates the per-layer grids.
// It returns an error when the network is invalid, the search space is
// empty, or a layer admits no buffer-fitting partitioning - the same
// failure modes RunDSE reports.
func DSEGrid(net cnn.Network, ev *Evaluator, schedules []tiling.Schedule, policies []mapping.Policy) ([]LayerGrid, error) {
	return DSEGridFor(net, ev.Accel, schedules, policies)
}

// DSEGridFor is DSEGrid from an accelerator configuration alone. The
// enumeration depends only on the workload and the accelerator buffers,
// not on any DRAM characterization, so a cluster coordinator can shard
// the column space and map tiling indices back to tilings without ever
// building an evaluator.
func DSEGridFor(net cnn.Network, acfg accel.Config, schedules []tiling.Schedule, policies []mapping.Policy) ([]LayerGrid, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if len(schedules) == 0 || len(policies) == 0 {
		return nil, fmt.Errorf("core: DSE needs at least one schedule and one policy")
	}
	grids := make([]LayerGrid, 0, len(net.Layers))
	for i, layer := range net.Layers {
		tilings := tiling.Enumerate(layer, acfg)
		if len(tilings) == 0 {
			return nil, fmt.Errorf("core: layer %s: no partitioning fits the buffers", layer.Name)
		}
		grids = append(grids, LayerGrid{Index: i, Layer: layer, Tilings: tilings})
	}
	return grids, nil
}

// ColumnSpan is a half-open range [Start, End) of (layer, schedule)
// column indices - the unit of work a cluster shard carries. Column i
// addresses layer i/len(schedules), schedule i%len(schedules), matching
// the parallel executor's index arithmetic.
type ColumnSpan struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len returns the number of columns in the span.
func (s ColumnSpan) Len() int { return s.End - s.Start }

// ColumnShards partitions the column index space [0, columns) into at
// most shards contiguous, near-equal spans. The partition is a pure
// function of its arguments, so every coordinator (and a coordinator
// restarted mid-run) cuts identical shards for the same job. shards <= 1
// (or shards >= columns) degenerates sensibly: one span, or one span per
// column.
func ColumnShards(columns, shards int) []ColumnSpan {
	if columns <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	if shards > columns {
		shards = columns
	}
	spans := make([]ColumnSpan, 0, shards)
	quo, rem := columns/shards, columns%shards
	start := 0
	for i := 0; i < shards; i++ {
		size := quo
		if i < rem {
			size++
		}
		spans = append(spans, ColumnSpan{Start: start, End: start + size})
		start += size
	}
	return spans
}

// EvaluateScheduleColumn searches one (layer, schedule) column of the
// grid: for every mapping policy it prices every candidate tiling and
// keeps the first strict minimum of the objective, exactly as the
// serial scan does. The tile groups of each tiling are computed once
// and shared across all policies - the reuse the serial loop nest gets
// for free. The evaluator is only read, so one evaluator may serve many
// concurrent calls.
//
// The search is the count -> price pipeline of countplan.go run
// back-to-back: callers that evaluate one column for many DRAM systems
// (or objectives) should instead keep the CountScheduleColumn plan and
// reprice it per system with PriceFlatInto, which produces these exact
// cells at a fraction of the cost.
func (ev *Evaluator) EvaluateScheduleColumn(lg LayerGrid, scheduleIdx int, s tiling.Schedule, policies []mapping.Policy, obj Objective) []CellResult {
	return ev.PriceFlatInto(ev.CountScheduleColumn(lg, scheduleIdx, s, policies), obj, nil)
}

// better reports whether cell a beats cell b under the serial scan
// order: strictly smaller objective value wins; ties resolve to the
// cell the serial loops (tiling outermost, then schedule, then policy)
// would have reached first.
func better(a, b CellResult) bool {
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	if a.TilingIndex != b.TilingIndex {
		return a.TilingIndex < b.TilingIndex
	}
	if a.ScheduleIndex != b.ScheduleIndex {
		return a.ScheduleIndex < b.ScheduleIndex
	}
	return a.PolicyIndex < b.PolicyIndex
}

// ReduceCells folds one layer's cell results into its LayerResult. The
// reduction is deterministic and order-independent: whatever order the
// cells were evaluated in, the chosen design point is the one the
// serial scan picks. MinEDP always reports the EDP of the chosen point
// regardless of the search objective, matching RunDSEObjective.
func ReduceCells(lg LayerGrid, schedules []tiling.Schedule, policies []mapping.Policy, cells []CellResult, tm dram.Timing) LayerResult {
	lr := LayerResult{Layer: lg.Layer, MinEDP: math.Inf(1)}
	found := false
	var best CellResult
	for _, c := range cells {
		if math.IsInf(c.Value, 1) || math.IsNaN(c.Value) {
			continue
		}
		if !found || better(c, best) {
			best = c
			found = true
		}
	}
	if !found {
		return lr
	}
	lr.Cost = best.Cost
	lr.MinEDP = best.Cost.EDP(tm)
	lr.Best = Combo{
		Tiling:   lg.Tilings[best.TilingIndex],
		Schedule: schedules[best.ScheduleIndex],
		Policy:   policies[best.PolicyIndex],
	}
	return lr
}

// EvaluateLayerGrid runs every (schedule, policy) cell of one layer
// serially and reduces - the per-layer unit RunDSE executes: one
// CountLayer pass, then each column priced.
func (ev *Evaluator) EvaluateLayerGrid(lg LayerGrid, schedules []tiling.Schedule, policies []mapping.Policy, obj Objective) LayerResult {
	cells := make([]CellResult, 0, len(schedules)*len(policies))
	var buf []CellResult
	for _, fc := range ev.CountLayer(lg, schedules, policies) {
		buf = ev.PriceFlatInto(fc, obj, buf)
		cells = append(cells, buf...)
	}
	return ReduceCells(lg, schedules, policies, cells, ev.Timing())
}
