package service

import (
	"context"
	"errors"
	"fmt"
	"math"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/tiling"
)

// DSEJob is a fully resolved Algorithm 1 run: the inputs a DSE request
// reduces to once every name has been parsed against the registry. It
// is the unit a DSERunner distributes - every field is a plain value
// (int enums, exported-field structs), so the job JSON-round-trips
// exactly and a worker on another host reproduces the search
// bit-for-bit without sharing this process's registry.
type DSEJob struct {
	Backend   dram.Backend
	Accel     accel.Config
	Network   cnn.Network
	Schedules []tiling.Schedule
	Policies  []mapping.Policy
	Objective core.Objective
	Batch     int

	// netKey is the network's part of the result-cache key, set by
	// parseDSE (see networkKey). It stays in this process: JSON skips
	// unexported fields, and a job without one is keyed by its layers.
	netKey string
}

// Grid enumerates the job's per-layer DSE grids. The enumeration
// depends only on the workload and accelerator, so coordinator and
// workers agree on column indexing without characterizing anything.
func (j DSEJob) Grid() ([]core.LayerGrid, error) {
	return core.DSEGridFor(j.Network, j.Accel, j.Schedules, j.Policies)
}

// Columns returns the size of the job's (layer, schedule) column space.
func (j DSEJob) Columns(grids []core.LayerGrid) int {
	return len(grids) * len(j.Schedules)
}

// Validate rejects jobs whose fixed fields cannot produce a result.
// It checks only the cheap invariants; workload feasibility (a layer
// with no buffer-fitting partitioning) is reported by Grid, which
// callers run exactly once anyway to obtain the grids.
func (j DSEJob) Validate() error {
	if j.Batch < 1 {
		return fmt.Errorf("service: job batch must be >= 1, got %d", j.Batch)
	}
	if err := j.Backend.Config.Validate(); err != nil {
		return fmt.Errorf("service: job backend: %w", err)
	}
	if err := j.Accel.Validate(); err != nil {
		return fmt.Errorf("service: job accelerator: %w", err)
	}
	if len(j.Schedules) == 0 || len(j.Policies) == 0 {
		return fmt.Errorf("service: job needs at least one schedule and one policy")
	}
	if hasDuplicate(j.Schedules) || hasDuplicate(j.Policies) {
		return fmt.Errorf("service: job repeats a schedule or a policy")
	}
	if err := j.Network.Validate(); err != nil {
		return err
	}
	return core.CheckCountRange(j.Network, j.Accel.BytesPerElement, j.Batch)
}

// hasDuplicate reports whether xs holds some element twice.
func hasDuplicate[T comparable](xs []T) bool {
	seen := make(map[T]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return true
		}
		seen[x] = true
	}
	return false
}

// DSERunner executes resolved DSE jobs. The service's local pool is the
// implicit default; a runner (e.g. a cluster coordinator fanning shards
// over remote workers) replaces it when set in Options. A runner that
// currently has no capacity returns an error wrapping ErrNoWorkers and
// the service falls back to the local pool, so a cluster degrades to
// standalone instead of failing requests.
//
// grids is the job's enumeration (DSEJob.Grid), which the service
// caches per (network, accelerator), so a runner never re-enumerates
// it; runners must treat it as immutable.
type DSERunner interface {
	RunDSE(ctx context.Context, job DSEJob, grids []core.LayerGrid) (*core.DSEResult, error)
}

// ErrNoWorkers signals a DSERunner with no remote capacity; the service
// answers such jobs from its local pool.
var ErrNoWorkers = errors.New("service: no cluster workers available")

// runJob executes a resolved DSE job: through the configured runner
// when one is set (falling back locally on ErrNoWorkers), else on the
// local worker pool with the cached characterization.
func (s *Service) runJob(ctx context.Context, job DSEJob) (*core.DSEResult, error) {
	grids, err := s.gridFor(job)
	if err != nil {
		return nil, err
	}
	if s.runner != nil {
		res, err := s.runner.RunDSE(ctx, job, grids)
		if err == nil || !errors.Is(err, ErrNoWorkers) {
			return res, err
		}
	}
	ev, err := s.evaluatorFor(job)
	if err != nil {
		return nil, err
	}
	return parallelDSE(ctx, s.gate, grids, ev, job.Schedules, job.Policies, job.Objective, s.workers, s.runEval(job, ev))
}

// EvaluateShard executes one shard - a span of the job's (layer,
// schedule) column space - on the local worker pool and returns its
// cells. The backend characterization comes from the content-addressed
// cache (so repeated shards of one job characterize once), the span's
// columns are counted one layer run at a time (spanRuns) through the
// count-plan cache (so a re-dispatched or duplicated shard, and shards
// of the same job for a count-compatible backend, reprice cached plans
// instead of recounting), evaluation
// holds the service gate like any other CPU-bound work, and cells with
// a non-finite objective value are dropped: core.ReduceCells skips them
// anyway, and finite-only cells keep the shard JSON-encodable. The
// returned cells are self-locating (layer/schedule/policy indices), so
// a coordinator can merge shards in any order, with any duplication,
// and still reduce to the serial scan's pick.
func (s *Service) EvaluateShard(ctx context.Context, job DSEJob, span core.ColumnSpan) ([]core.CellResult, error) {
	// The job arrives off the wire: validate it as the coordinator did
	// before the grid enumeration divides by its buffer sizes.
	if err := job.Validate(); err != nil {
		return nil, err
	}
	grids, err := s.gridFor(job)
	if err != nil {
		return nil, err
	}
	if span.Start < 0 || span.End < span.Start || span.End > job.Columns(grids) {
		return nil, fmt.Errorf("service: shard span [%d, %d) outside column space [0, %d)", span.Start, span.End, job.Columns(grids))
	}
	ev, err := s.evaluatorFor(job)
	if err != nil {
		return nil, err
	}
	columns, err := evaluateRuns(ctx, s.gate, grids, len(job.Schedules), span, s.workers, s.runEval(job, ev))
	if err != nil {
		return nil, fmt.Errorf("service: shard [%d, %d) canceled: %w", span.Start, span.End, err)
	}
	cells := make([]core.CellResult, 0, span.Len()*len(job.Policies))
	for _, col := range columns {
		for _, c := range col {
			if math.IsInf(c.Value, 0) || math.IsNaN(c.Value) {
				continue
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}
