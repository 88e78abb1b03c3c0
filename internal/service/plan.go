// The service-side half of the count/price split (core/countplan.go):
// a content-addressed cache of backend-independent count plans, one per
// evaluated run of a layer's (layer, schedule) grid columns. Every
// execution path that evaluates grid columns - the local parallel
// executor behind /api/v1/dse and the v2 jobs, the batch fan-out, and
// the cluster workers' shard endpoint - routes through runEval, so a
// batch that fans one network over many DRAM backends counts each
// layer once and reprices it per backend, and a shard re-dispatched
// (or duplicated) to the same worker reprices instead of recounting.
package service

import (
	"context"
	"strconv"
	"sync"
	"time"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/mapping"
	"drmap/internal/obs"
)

// cellBufs pools the per-column []core.CellResult buffers of the warm
// reprice loop. parallelDSE returns a layer's column buffers here right
// after reducing the layer (the reduction copies the cells it keeps),
// so a steady-state batch reprices into recycled buffers instead of
// allocating one slice per (column, backend). Shard evaluations never
// recycle - their cells are serialized to the coordinator - which is
// safe: the pool simply doesn't see those buffers again.
var cellBufs = sync.Pool{New: func() any { return new([]core.CellResult) }}

func getCellBuf() []core.CellResult {
	return *cellBufs.Get().(*[]core.CellResult)
}

func putCellBuf(buf []core.CellResult) {
	if buf == nil {
		return
	}
	cellBufs.Put(&buf)
}

// planSizeBytes sizes a cached count plan - one layer run's columns -
// for the plan cache's byte budget (Options.PlanCacheBytes).
func planSizeBytes(v any) int64 { return core.PlanBytes(v.([]*core.FlatColumn)) }

// planColumns weighs a cached count plan by its column count, so the
// plan cache's entry bound (Options.PlanCacheEntries) stays a bound in
// grid columns whatever the length of the runs it holds.
func planColumns(v any) int { return len(v.([]*core.FlatColumn)) }

// runEvalFn evaluates one run of a job's grid columns - layer li,
// schedules [first, end) - into one cell list per column;
// parallelDSE and evaluateRuns fan it out. ctx carries the
// evaluation's telemetry hooks (trace ID, phase recorder), never
// cancellation - the pool feeding loop owns that.
type runEvalFn func(ctx context.Context, grids []core.LayerGrid, li, first, end int) [][]core.CellResult

// recordPhase observes one finished evaluation phase everywhere it is
// watched: the service-wide drmap_eval_phase_seconds histogram, the
// per-job recorder riding ctx (core.WithPhases), and - when ctx
// carries a span sink - a retroactive span named after the phase, so
// count/price work shows up in the trace tree under whatever span
// (dse, shard.evaluate) encloses the evaluation.
func (s *Service) recordPhase(ctx context.Context, phase string, start time.Time, attrs ...obs.Attr) {
	end := time.Now()
	d := end.Sub(start)
	s.phaseSeconds.With(phase).Observe(d.Seconds())
	if r := core.PhasesFrom(ctx); r != nil {
		r.RecordPhase(phase, d)
	}
	obs.RecordSpan(ctx, phase, start, end, attrs...)
}

// planKey content-addresses a job's count plan: the DSE cache key with
// everything priced per backend - cost sets, timing, controller
// capability, objective - stripped away, keeping only the count
// signature (core.CountKey) of the DRAM system. Jobs that differ only
// in backend (among backends sharing a die geometry) or in objective
// therefore share one plan. Policies are keyed by their full identity
// (ID, name and loop order), not the Table I ID alone: ID 0 marks
// *any* policy outside Table I, and shard requests carry arbitrary
// policy structs, so two distinct ID-0 policies must never alias.
type planKey struct {
	Accel     accel.Config
	Network   cnn.Network
	Schedules []string
	Policies  []mapping.Policy
	Count     core.CountKey
}

// PlanSignature fingerprints the backend-independent part of a job:
// jobs with equal signatures count identical plans, column for column.
// The plan-cache key of a layer run is the signature plus the layer
// index and schedule range, and a cluster coordinator places a job's
// shards by it, so the jobs sharing a signature send each span to the
// worker that already holds its plans.
func PlanSignature(job DSEJob) (string, error) {
	schedNames := make([]string, len(job.Schedules))
	for i, sc := range job.Schedules {
		schedNames[i] = sc.String()
	}
	return Fingerprint(cacheKey{Kind: "plan", Value: planKey{
		Accel:     job.Accel,
		Network:   job.Network,
		Schedules: schedNames,
		Policies:  job.Policies,
		Count:     countKeyOf(job),
	}})
}

// countKeyOf is the count key of the evaluator the service builds for
// a job (evaluatorFor), derived from the job alone.
func countKeyOf(job DSEJob) core.CountKey {
	return core.CountKey{
		Geometry:        job.Backend.Config.Geometry,
		BytesPerElement: job.Accel.BytesPerElement,
		Batch:           job.Batch,
	}
}

// countRun counts one layer run - layer li, schedules [first, end) of
// the job - in one core.CountLayer pass, stamps each column with its
// schedule index in the job, and books the time as one count phase.
// runEval's two branches share it, so a cached plan is byte-for-byte
// the plan a direct count would build.
func (s *Service) countRun(ctx context.Context, job DSEJob, ev *core.Evaluator, grids []core.LayerGrid, li, first, end int) []*core.FlatColumn {
	start := time.Now()
	cols := ev.CountLayer(grids[li], job.Schedules[first:end], job.Policies)
	for _, fc := range cols {
		fc.ScheduleIndex += first
	}
	s.recordPhase(ctx, core.PhaseCount, start,
		obs.Int("layer", li), obs.Str("schedules", scheduleRange(first, end)))
	return cols
}

// scheduleRange renders schedules [first, end) as "first-last", the
// form the plan-cache key and the count span carry.
func scheduleRange(first, end int) string {
	return strconv.Itoa(first) + "-" + strconv.Itoa(end-1)
}

// runEval returns the run evaluator a job's execution uses. Both
// branches count a run with countRun and reprice each of its columns
// under the job's backend and objective as a linear scan into a pooled
// cell buffer, so they produce identical cells. With the plan cache
// enabled, each run's plan is computed at most once per count signature
// (content-addressed, single-flight: the same run counted concurrently
// for two backends coalesces); without it, every run is counted fresh.
// Both split their time into the count and price phases (recordPhase) -
// the measurement the warm-repricing work reads. On the cached path
// only a fresh count (cache miss) records count time, while a hit or
// coalesced wait spends pricing time alone, which is exactly what the
// split should show.
func (s *Service) runEval(job DSEJob, ev *core.Evaluator) runEvalFn {
	// price reprices a run's columns; cached runs tag each price span
	// with whether the plan was shared (a hit or a coalesced wait).
	price := func(ctx context.Context, li int, cols []*core.FlatColumn, cached, shared bool) [][]core.CellResult {
		out := make([][]core.CellResult, len(cols))
		for k, fc := range cols {
			start := time.Now()
			out[k] = ev.PriceFlatInto(fc, job.Objective, getCellBuf())
			attrs := [...]obs.Attr{obs.Int("layer", li), obs.Int("schedule", fc.ScheduleIndex), obs.Bool("plan_cache_hit", shared)}
			n := 2
			if cached {
				n = 3
			}
			s.recordPhase(ctx, core.PhasePrice, start, attrs[:n]...)
		}
		return out
	}
	direct := func(ctx context.Context, grids []core.LayerGrid, li, first, end int) [][]core.CellResult {
		return price(ctx, li, s.countRun(ctx, job, ev, grids, li, first, end), false, false)
	}
	if s.planCache == nil {
		return direct
	}
	prefix, err := PlanSignature(job)
	if err != nil {
		// An unfingerprintable job (cannot happen for resolved jobs, which
		// JSON-encode by construction) still evaluates correctly, just
		// without sharing.
		return direct
	}
	return func(ctx context.Context, grids []core.LayerGrid, li, first, end int) [][]core.CellResult {
		key := prefix + ":" + strconv.Itoa(li) + ":" + scheduleRange(first, end)
		v, shared, err := s.planCache.Do(key, func() (any, error) {
			return s.countRun(ctx, job, ev, grids, li, first, end), nil
		})
		if err != nil {
			return direct(ctx, grids, li, first, end)
		}
		return price(ctx, li, v.([]*core.FlatColumn), true, shared)
	}
}
