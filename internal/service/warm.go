// The plan warmer: boot-time (and registration-time) background
// pre-warming of the count-plan cache. A freshly started daemon answers
// its first DSE of each (network, count signature) with a cold count
// pass; with -warm the daemon counts the registry x built-in-network
// plan set in the background at boot - and each dram.Register'd backend
// as it appears - so steady-state traffic starts on the vectorized
// reprice-only path immediately. Progress is surfaced as the
// drmap_plan_warm_* metric family and as the "warm" block of /healthz.
package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/obs"
	"drmap/internal/tiling"
)

// WarmNetworks is the default warm set: the paper's headline workloads,
// cheapest first so the most common requests warm earliest. resnet18
// and vgg16 are deliberately excluded - their flat plans run to
// hundreds of MiB and over a thousand distinct columns, so warming
// them by default would blow the default plan-cache budget and evict
// the very plans the boot pass just counted. Opt in with
// EnableWarm(ctx, "alexnet", "vgg16", ...) (drmap-serve:
// -warm-networks) and size -plan-cache / -plan-cache-bytes to hold
// the set.
var WarmNetworks = []string{"alexnet", "lenet5"}

// WarmStatus reports the plan warmer's progress; /healthz carries it as
// the "warm" block when warming is enabled.
type WarmStatus struct {
	// State is "warming" until the boot pass over the registry has
	// finished, then "ready". Register-time warms of later backends run
	// in the background without leaving the ready state.
	State    string   `json:"state"`
	Networks []string `json:"networks"`
	// Backends counts fully warmed backends (boot pass plus
	// registration-time), Columns the grid columns ensured resident,
	// Errors the failed warm attempts (bad backend configs).
	Backends int64 `json:"backends"`
	Columns  int64 `json:"columns"`
	Errors   int64 `json:"errors"`
}

// warmer tracks one service's plan warming. Passes are serialized by
// mu; the instruments are read lock-free by /healthz and /metrics.
type warmer struct {
	names []string
	nets  []cnn.Network

	mu       sync.Mutex // serializes warm passes
	backends *obs.Counter
	columns  *obs.Counter
	errors   *obs.Counter
	ready    *obs.Gauge // 1 once the boot pass has finished
	seconds  *obs.Gauge // boot-pass wall clock
}

func (w *warmer) status() WarmStatus {
	state := "warming"
	if w.ready.Value() == 1 {
		state = "ready"
	}
	return WarmStatus{
		State:    state,
		Networks: w.names,
		Backends: w.backends.Value(),
		Columns:  w.columns.Value(),
		Errors:   w.errors.Value(),
	}
}

// EnableWarm starts pre-warming the count-plan cache: a background boot
// pass counts the plan set of every currently registered backend for
// the given built-in networks (default WarmNetworks), and a
// dram.OnRegister subscription warms each later-registered backend the
// same way until ctx is canceled. Warmed plans use the default request
// shape - all schedules, the Table I policies, batch 1 - so default
// DSE, batch and v2 job traffic lands on the reprice-only path from the
// first request on. Call once, before serving; it fails when the plan
// cache is disabled or a network name is unknown.
func (s *Service) EnableWarm(ctx context.Context, networks ...string) error {
	if s.planCache == nil {
		return fmt.Errorf("service: warm needs the plan cache (PlanCacheEntries >= 0)")
	}
	if s.warm != nil {
		return fmt.Errorf("service: warm already enabled")
	}
	if len(networks) == 0 {
		networks = WarmNetworks
	}
	var nets []cnn.Network
	for _, name := range networks {
		net, err := parseNetwork(name, nil)
		if err != nil {
			return fmt.Errorf("service: warm: %w", err)
		}
		nets = append(nets, net)
	}
	r := s.registry
	w := &warmer{names: networks, nets: nets,
		backends: r.Counter("drmap_plan_warm_backends_total",
			"Backends fully warmed (boot pass plus registration-time).").With(),
		columns: r.Counter("drmap_plan_warm_columns_total",
			"Grid columns the plan warmer has ensured resident.").With(),
		errors: r.Counter("drmap_plan_warm_errors_total",
			"Plan-warm attempts that failed (e.g. invalid backend configs).").With(),
		ready: r.Gauge("drmap_plan_warm_ready",
			"1 once the boot warm pass over the backend registry has finished.").With(),
		seconds: r.Gauge("drmap_plan_warm_seconds",
			"Wall-clock seconds of the boot warm pass over the registry (0 until it finishes).").With(),
	}
	s.warm = w

	unsubscribe := dram.OnRegister(func(b dram.Backend) {
		go s.warmBackends(ctx, []dram.Backend{b})
	})
	go func() {
		defer unsubscribe()
		start := time.Now()
		s.warmBackends(ctx, dram.Backends())
		w.seconds.Set(time.Since(start).Seconds())
		w.ready.Set(1)
		// Keep the registration subscription alive until shutdown.
		<-ctx.Done()
	}()
	return nil
}

// warmBackends counts (and flattens) the plan set of the given backends
// for every warm network, through the same content-addressed
// single-flight cache path live requests use - so backends sharing a
// count signature warm from one count pass, an already-warm column is a
// map lookup, and a request arriving mid-warm coalesces with the warm
// instead of recounting. Passes are serialized so a burst of
// registrations cannot multiply the count work.
func (s *Service) warmBackends(ctx context.Context, backends []dram.Backend) {
	w := s.warm
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, b := range backends {
		if ctx.Err() != nil {
			return
		}
		// Characterizing here also pre-warms the profile cache; the
		// evaluator counts the plans PlanSignature keys.
		ev, err := s.evaluatorFor(b, 1)
		if err != nil {
			w.errors.Add(1)
			continue
		}
		failed := false
		for _, net := range w.nets {
			job := DSEJob{
				Backend: b, Accel: s.accel, Network: net,
				Schedules: tiling.Schedules, Policies: mapping.TableI(),
				Objective: core.MinimizeEDP, Batch: 1,
			}
			grids, err := s.gridFor(job)
			if err != nil {
				w.errors.Add(1)
				failed = true
				continue
			}
			prefix, err := PlanSignature(job)
			if err != nil {
				w.errors.Add(1)
				failed = true
				continue
			}
			for li := range grids {
				for si := range job.Schedules {
					if ctx.Err() != nil {
						return
					}
					// One gate token per column: the warmer is a single
					// goroutine, so warming takes at most one CPU slot
					// and never starves live requests.
					if !acquireGate(ctx, s.gate) {
						return
					}
					key := fmt.Sprintf("%s:%d:%d", prefix, li, si)
					_, _, err := s.planCache.Do(key, s.countPlan(ctx, job, ev, grids, li, si))
					releaseGate(s.gate)
					if err != nil {
						w.errors.Add(1)
						failed = true
					} else {
						w.columns.Add(1)
					}
				}
			}
		}
		if !failed {
			w.backends.Add(1)
		}
	}
}
