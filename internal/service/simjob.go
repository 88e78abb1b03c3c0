package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/memctrl"
	"drmap/internal/obs"
	"drmap/internal/report"
)

// SimulateJob is a fully resolved cycle-accurate simulation: the DRAM
// backend, the mapping policy, one layer spec per simulated layer
// (tiling and schedule already picked), the element width and the
// controller knobs. Like DSEJob, every field is a plain value, so the
// job JSON-round-trips exactly and a cluster worker reproduces each
// layer bit-for-bit. Per-layer results are independent (each layer's
// tile streams simulate on their own controllers), which is what makes
// the job shardable across workers by layer index.
type SimulateJob struct {
	Backend dram.Backend     `json:"backend"`
	Policy  mapping.Policy   `json:"policy"`
	Specs   []core.LayerSpec `json:"specs"`
	// BytesPerElement sizes tensor elements.
	BytesPerElement int `json:"bytes_per_element"`
	// PagePolicy and Scheduler tune the simulated controller.
	PagePolicy memctrl.PagePolicy `json:"page_policy"`
	Scheduler  memctrl.Scheduler  `json:"scheduler"`
	// Parallel selects the parallel event engine. It never changes the
	// results - the engines are bit-for-bit identical - so it is
	// excluded from result cache keys; it only changes how fast the
	// results arrive.
	Parallel bool `json:"parallel,omitempty"`
}

// ControllerOptions assembles the job's memory-controller options.
func (j SimulateJob) ControllerOptions() memctrl.Options {
	return memctrl.Options{PagePolicy: j.PagePolicy, Scheduler: j.Scheduler}
}

// Validate rejects jobs whose fixed fields cannot simulate.
func (j SimulateJob) Validate() error {
	if err := j.Backend.Config.Validate(); err != nil {
		return fmt.Errorf("service: sim job backend: %w", err)
	}
	if len(j.Specs) == 0 {
		return fmt.Errorf("service: sim job needs at least one layer spec")
	}
	if j.BytesPerElement <= 0 {
		return fmt.Errorf("service: sim job bytes per element must be positive, got %d", j.BytesPerElement)
	}
	for i, sp := range j.Specs {
		if err := sp.Layer.Validate(); err != nil {
			return fmt.Errorf("service: sim job layer %d: %w", i, err)
		}
		// The same exact-range check a resolved request passes: a shard
		// posted straight to a worker must not simulate counts past it.
		if err := core.CheckCountRange(cnn.Network{Layers: []cnn.Layer{sp.Layer}}, j.BytesPerElement, sp.Batch); err != nil {
			return fmt.Errorf("service: sim job layer %d: %w", i, err)
		}
	}
	return nil
}

// SimulateRunner executes resolved simulate jobs - the simulate
// counterpart of DSERunner. A Service whose configured DSERunner also
// implements SimulateRunner (the cluster coordinator does) distributes
// simulate jobs through it; ErrNoWorkers falls back to the local
// engine, exactly like DSE.
type SimulateRunner interface {
	RunSimulate(ctx context.Context, job SimulateJob) ([]core.SimLayerResult, error)
}

// runSimJob executes a resolved simulate job: through the configured
// runner when it distributes simulations (falling back locally on
// ErrNoWorkers), else on the local event engine. The local path
// announces the layer count to the context's progress sink and streams
// each layer to the context's sim-layer sink the moment it finalizes.
func (s *Service) runSimJob(ctx context.Context, job SimulateJob) ([]core.SimLayerResult, error) {
	if s.runner != nil {
		if sr, ok := s.runner.(SimulateRunner); ok {
			res, err := sr.RunSimulate(ctx, job)
			if err == nil || !errors.Is(err, ErrNoWorkers) {
				return res, err
			}
		}
	}
	prog := core.ProgressFrom(ctx)
	sink := core.SimLayersFrom(ctx)
	if prog != nil {
		prog.StartColumns(len(job.Specs))
	}
	start := time.Now()
	opt := core.SimOptions{
		Controller:      job.ControllerOptions(),
		Parallel:        job.Parallel,
		Workers:         s.workers,
		BytesPerElement: job.BytesPerElement,
		// The hook runs on engine goroutines under the parallel driver;
		// the progress and layer sinks are documented concurrency-safe.
		OnLayer: func(lr core.SimLayerResult) {
			obs.RecordSpan(ctx, "sim.layer", start, time.Now(),
				obs.Int("index", lr.Index),
				obs.Str("layer", lr.Name),
				obs.Int("groups", lr.Groups),
				obs.Int("commands", int(lr.TotalCommands)))
			if prog != nil {
				prog.ColumnsDone(1)
			}
			if sink != nil {
				sink(lr, len(job.Specs))
			}
		},
	}
	res, err := core.SimulateNetwork(ctx, job.Backend.Config, job.Policy, job.Specs, opt)
	if err != nil && prog != nil {
		// Withdraw the abandoned attempt so a retry's announcement
		// starts from a clean total.
		prog.StartColumns(-len(job.Specs))
	}
	return res, err
}

// EvaluateSimShard simulates one shard - a span of the job's layer
// index space - on the local event engine and returns its layer
// results. Results are self-locating (each carries its global layer
// index), so a coordinator can merge shards in any order; simulating a
// contiguous sub-span is exact because layers share no state.
func (s *Service) EvaluateSimShard(ctx context.Context, job SimulateJob, span core.ColumnSpan) ([]core.SimLayerResult, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if span.Start < 0 || span.End < span.Start || span.End > len(job.Specs) {
		return nil, fmt.Errorf("service: sim shard span [%d, %d) outside layer space [0, %d)", span.Start, span.End, len(job.Specs))
	}
	res, err := core.SimulateNetwork(ctx, job.Backend.Config, job.Policy, job.Specs[span.Start:span.End], core.SimOptions{
		Controller:      job.ControllerOptions(),
		Parallel:        job.Parallel,
		Workers:         s.workers,
		BytesPerElement: job.BytesPerElement,
	})
	if err != nil {
		return nil, fmt.Errorf("service: sim shard [%d, %d): %w", span.Start, span.End, err)
	}
	for i := range res {
		res[i].Index += span.Start
	}
	return res, nil
}

// simLayerToJSON converts one layer result for responses and job
// events, pricing cycles in the backend's clock.
func simLayerToJSON(lr core.SimLayerResult, t dram.Timing) SimulateLayerJSON {
	return SimulateLayerJSON{
		Index:    lr.Index,
		Name:     lr.Name,
		Cost:     report.LayerEDPToJSON(lr.Cost, t),
		Groups:   lr.Groups,
		Requests: lr.Requests,
		Commands: lr.TotalCommands,
	}
}

// parseSimScheduler resolves a request's scheduler name.
func parseSimScheduler(name string) (memctrl.Scheduler, error) {
	switch name {
	case "", "fcfs":
		return memctrl.FCFS, nil
	case "frfcfs", "fr-fcfs":
		return memctrl.FRFCFS, nil
	default:
		return 0, fmt.Errorf("unknown scheduler %q (want fcfs or frfcfs)", name)
	}
}

// parsePagePolicy resolves a request's page-policy name.
func parsePagePolicy(name string) (memctrl.PagePolicy, error) {
	switch name {
	case "", "open", "open-row":
		return memctrl.OpenRow, nil
	case "closed", "closed-row":
		return memctrl.ClosedRow, nil
	default:
		return 0, fmt.Errorf("unknown page policy %q (want open or closed)", name)
	}
}

// parseSimEngine resolves a request's engine name to the Parallel flag.
func parseSimEngine(name string) (parallel bool, err error) {
	switch name {
	case "", "serial":
		return false, nil
	case "parallel":
		return true, nil
	default:
		return false, fmt.Errorf("unknown engine %q (want serial or parallel)", name)
	}
}
