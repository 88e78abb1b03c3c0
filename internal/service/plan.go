// The service-side half of the count/price split (core/countplan.go):
// a content-addressed cache of backend-independent count plans, one per
// evaluated (layer, schedule) grid column. Every execution path that
// evaluates grid columns - the local parallel executor behind
// /api/v1/dse and the v2 jobs, the batch fan-out, and the cluster
// workers' shard endpoint - routes through columnEval, so a batch that
// fans one network over many DRAM backends counts each column once and
// reprices it per backend, and a shard re-dispatched (or duplicated)
// to the same worker reprices instead of recounting.
package service

import (
	"context"
	"fmt"
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

// planSizeBytes sizes a cached count plan for the plan cache's byte
// budget (Options.PlanCacheBytes).
func planSizeBytes(v any) int64 {
	if fc, ok := v.(*core.FlatColumn); ok {
		return fc.SizeBytes()
	}
	return 0
}

// columnEvalFn evaluates one (layer, schedule) column of a job's grid
// into its cells; parallelDSE and evaluateColumns fan it out. ctx
// carries the evaluation's telemetry hooks (trace ID, phase recorder),
// never cancellation - the pool feeding loop owns that.
type columnEvalFn func(ctx context.Context, grids []core.LayerGrid, li, si int) []core.CellResult

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
// The per-column plan-cache key is the signature plus the column
// index, and a cluster coordinator places a job's shards by it, so the
// jobs sharing a signature send each span to the worker that already
// holds its plans.
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

// countPlan returns the plan-cache compute closure for one column:
// count the column into its flat plan and book the time as the count
// phase. columnEval's two branches share it, so a cached plan is
// byte-for-byte the plan a direct count would build.
func (s *Service) countPlan(ctx context.Context, job DSEJob, ev *core.Evaluator, grids []core.LayerGrid, li, si int) func() (any, error) {
	return func() (any, error) {
		start := time.Now()
		flat := ev.CountScheduleColumn(grids[li], si, job.Schedules[si], job.Policies)
		s.recordPhase(ctx, core.PhaseCount, start,
			obs.Int("layer", li), obs.Int("schedule", si))
		return flat, nil
	}
}

// columnEval returns the column evaluator a job's execution uses. Both
// branches count a column with countPlan and reprice the flat plan
// under the job's backend and objective as a linear scan into a pooled
// cell buffer (priceColumn), so they produce identical cells. With the
// plan cache enabled, each column's plan is computed at most once per
// count signature (content-addressed, single-flight: the same column
// counted concurrently for two backends coalesces); without it, every
// column is counted fresh. Both split their time into the count and
// price phases (recordPhase) - the measurement the warm-repricing work
// reads. On the cached path only a fresh count (cache miss) records
// count time, while a hit or coalesced wait spends pricing time alone,
// which is exactly what the split should show.
func (s *Service) columnEval(job DSEJob, ev *core.Evaluator) columnEvalFn {
	priceColumn := func(ctx context.Context, fc *core.FlatColumn, attrs ...obs.Attr) []core.CellResult {
		start := time.Now()
		cells := ev.PriceFlatInto(fc, job.Objective, getCellBuf())
		s.recordPhase(ctx, core.PhasePrice, start, attrs...)
		return cells
	}
	direct := func(ctx context.Context, grids []core.LayerGrid, li, si int) []core.CellResult {
		v, _ := s.countPlan(ctx, job, ev, grids, li, si)()
		return priceColumn(ctx, v.(*core.FlatColumn), obs.Int("layer", li), obs.Int("schedule", si))
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
	return func(ctx context.Context, grids []core.LayerGrid, li, si int) []core.CellResult {
		key := fmt.Sprintf("%s:%d:%d", prefix, li, si)
		v, shared, err := s.planCache.Do(key, s.countPlan(ctx, job, ev, grids, li, si))
		if err != nil {
			return direct(ctx, grids, li, si)
		}
		return priceColumn(ctx, v.(*core.FlatColumn),
			obs.Int("layer", li), obs.Int("schedule", si), obs.Bool("plan_cache_hit", shared))
	}
}
