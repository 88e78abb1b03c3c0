package service

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/obs"
	"drmap/internal/profile"
	"drmap/internal/tiling"
)

// defaultWorkers resolves a worker-count option: <= 0 means one worker
// per logical CPU.
func defaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// runPool runs fn(i) for every i in [0, n) over a bounded worker pool.
// Cancellation of ctx stops feeding new indices (started ones finish)
// and its error is returned.
func runPool(ctx context.Context, n, workers int, fn func(int)) error {
	workers = defaultWorkers(workers)
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	var ctxErr error
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return ctxErr
}

// ParallelDSE executes Algorithm 1 with the layer x schedule x policy
// grid fanned out over a worker pool, one layer per work unit: a layer's
// schedule columns are counted in one core.(*Evaluator).CountLayer pass,
// so each tiling is expanded once and shared across all schedules and
// policies, then each column is priced. That is the code the serial
// RunDSE runs, and core.ReduceCells restores the serial pick order, so
// the returned DSEResult is bit-for-bit identical to
// core.RunDSEObjective's for any worker count. The evaluator is shared
// (its methods only read it); cancellation of ctx abandons unstarted
// layers and returns the context's error.
func ParallelDSE(ctx context.Context, net cnn.Network, ev *core.Evaluator, schedules []tiling.Schedule, policies []mapping.Policy, obj core.Objective, workers int) (*core.DSEResult, error) {
	grids, err := core.DSEGrid(net, ev, schedules, policies)
	if err != nil {
		return nil, err
	}
	return parallelDSE(ctx, nil, grids, ev, schedules, policies, obj, workers, nil)
}

// parallelDSE is ParallelDSE with an optional service-wide gate: when
// non-nil, every layer evaluation holds one gate token, so the total
// CPU-bound parallelism across all concurrently running requests is
// bounded by the gate's capacity rather than multiplying per request.
//
// The worker that evaluates a layer reduces it right away with
// core.ReduceCells, so a progress sink on ctx (core.WithProgress)
// receives the layer's committed pick while other layers are still
// evaluating - the source of the v2 job API's streamed per-layer
// events. The reduction consumes the same cell multiset in any
// execution order, so the final DSEResult stays bit-for-bit identical
// to serial core.RunDSEObjective's.
//
// eval, when non-nil, replaces the direct per-layer evaluation - the
// service passes its plan-cache-backed runEval so repeated and
// multi-backend evaluations reprice cached count plans. It must return
// the cells the direct count and price would.
//
// The grid arrives pre-enumerated: it depends only on the workload and
// the accelerator buffers, so the service shares one enumeration across
// every backend, objective and batch of the same network (gridFor) -
// on the warm path re-enumerating tilings per job cost more than the
// repricing itself. Callers must treat grids as immutable.
func parallelDSE(ctx context.Context, gate chan struct{}, grids []core.LayerGrid, ev *core.Evaluator, schedules []tiling.Schedule, policies []mapping.Policy, obj core.Objective, workers int, eval runEvalFn) (*core.DSEResult, error) {
	if eval == nil {
		eval = func(_ context.Context, grids []core.LayerGrid, li, first, end int) [][]core.CellResult {
			cols := ev.CountLayer(grids[li], schedules[first:end], policies)
			out := make([][]core.CellResult, len(cols))
			for k, fc := range cols {
				fc.ScheduleIndex += first
				out[k] = ev.PriceFlatInto(fc, obj, getCellBuf())
			}
			return out
		}
	}
	prog := core.ProgressFrom(ctx)
	if prog != nil {
		prog.StartColumns(len(grids) * len(schedules))
	}
	layers := make([]core.LayerResult, len(grids))
	var skipped atomic.Bool
	err := runPool(ctx, len(grids), workers, func(li int) {
		if !acquireGate(ctx, gate) {
			skipped.Store(true)
			return
		}
		defer releaseGate(gate)
		cols := eval(ctx, grids, li, 0, len(schedules))
		if prog != nil {
			prog.ColumnsDone(len(schedules))
		}
		reduceStart := time.Now()
		cells := make([]core.CellResult, 0, len(schedules)*len(policies))
		for _, cc := range cols {
			cells = append(cells, cc...)
		}
		layers[li] = core.ReduceCells(grids[li], schedules, policies, cells, ev.Timing())
		obs.RecordSpan(ctx, "reduce", reduceStart, time.Now(),
			obs.Int("layer", li), obs.Int("cells", len(cells)))
		// The reduction copied everything it keeps; the layer's column
		// buffers go back to the pool for the next reprice.
		for _, cc := range cols {
			putCellBuf(cc)
		}
		if prog != nil {
			prog.LayerDone(li, len(grids), layers[li])
		}
	})
	if err == nil && skipped.Load() {
		err = ctx.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("service: parallel DSE canceled: %w", err)
	}
	return &core.DSEResult{Backend: ev.Backend(), Arch: ev.Arch(), Layers: layers}, nil
}

// acquireGate takes one gate token (immediately true for a nil gate);
// false means ctx was done first and no token is held.
func acquireGate(ctx context.Context, gate chan struct{}) bool {
	if gate == nil {
		return true
	}
	select {
	case gate <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// releaseGate returns acquireGate's token.
func releaseGate(gate chan struct{}) {
	if gate != nil {
		<-gate
	}
}

// columnRun is one layer's contiguous schedules [first, end) within a
// column span: the unit evaluateRuns counts in one pass.
type columnRun struct{ layer, first, end int }

// spanRuns cuts a span of the (layer, schedule) column space - column i
// covers layer i/nSchedules, schedule i%nSchedules - into its per-layer
// runs, in column order.
func spanRuns(span core.ColumnSpan, nSchedules int) []columnRun {
	var runs []columnRun
	for col := span.Start; col < span.End; {
		li, first := col/nSchedules, col%nSchedules
		end := min(nSchedules, first+span.End-col)
		runs = append(runs, columnRun{layer: li, first: first, end: end})
		col += end - first
	}
	return runs
}

// evaluateRuns fans one span of the column space over a local worker
// pool, one layer run (spanRuns) per work unit. The returned slice holds
// one cell list per column, indexed relative to span.Start. The gate
// bounds CPU-bound parallelism across concurrent requests (see
// parallelDSE); eval (required) evaluates each run - the service passes
// its plan-cache-backed runEval.
func evaluateRuns(ctx context.Context, gate chan struct{}, grids []core.LayerGrid, nSchedules int, span core.ColumnSpan, workers int, eval runEvalFn) ([][]core.CellResult, error) {
	runs := spanRuns(span, nSchedules)
	columns := make([][]core.CellResult, span.Len())
	var skipped atomic.Bool
	err := runPool(ctx, len(runs), workers, func(i int) {
		if !acquireGate(ctx, gate) {
			skipped.Store(true)
			return
		}
		defer releaseGate(gate)
		r := runs[i]
		offset := r.layer*nSchedules + r.first - span.Start
		copy(columns[offset:], eval(ctx, grids, r.layer, r.first, r.end))
	})
	if err == nil && skipped.Load() {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return columns, nil
}

// CharacterizeBackends runs the Fig. 1 characterization of several
// registered backends concurrently; each profile carries its backend
// identity. profile.CharacterizeBackend builds fresh
// memctrl.Controllers internally, so each worker owns its controllers
// and no simulator state is shared across goroutines. Results keep the
// input order; a canceled context abandons unstarted items.
func CharacterizeBackends(ctx context.Context, backends []dram.Backend, workers int) ([]*profile.Profile, error) {
	profiles := make([]*profile.Profile, len(backends))
	errs := make([]error, len(backends))
	err := runPool(ctx, len(backends), workers, func(i int) {
		profiles[i], errs[i] = profile.CharacterizeBackend(backends[i])
	})
	if err != nil {
		return nil, fmt.Errorf("service: characterization canceled: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("service: characterize %s: %w", backends[i].ID, err)
		}
	}
	return profiles, nil
}
