// Package service turns the DRMap tool flow (Fig. 8) into a concurrent,
// cacheable engine: a parallel DSE executor fanning the layer x schedule
// x policy grid over a worker pool, a bounded content-addressed result
// cache with single-flight deduplication, JSON request/response types
// for every entry point, and the HTTP handlers behind the drmap-serve
// daemon.
//
// # Serving
//
// The drmap-serve daemon (cmd/drmap-serve) exposes:
//
//	GET  /healthz             - liveness plus cache/evaluation counters
//	GET  /metrics             - Prometheus exposition of serving/cluster/job telemetry
//	GET  /api/v1/version      - build identity (version, go version, VCS revision)
//	GET  /api/v1/policies     - the Table I mapping policies
//	GET  /api/v1/backends     - the registered DRAM backends (ID-sorted)
//	POST /api/v1/characterize - Fig. 1 characterization {"archs":["ddr3",...]}
//	POST /api/v1/dse          - Algorithm 1 {"arch":"ddr3","network":"alexnet"}
//	POST /api/v1/batch        - many DSE jobs in one request {"jobs":[...]}
//	POST /api/v1/simulate     - trace-driven layer validation
//	POST /api/v1/sweep        - ablation sweeps {"kind":"subarrays"}
//
// plus the job-oriented v2 surface (async submit, progress, streaming,
// cancel - see JobManager and API.md):
//
//	POST   /api/v2/jobs             - submit a dse/batch/characterize/sweep/simulate job
//	GET    /api/v2/jobs             - list jobs (?kind=, ?state=, ?limit=)
//	GET    /api/v2/jobs/{id}        - status, progress, result once terminal
//	GET    /api/v2/jobs/{id}/events - NDJSON/SSE event stream (?from= resumes)
//	DELETE /api/v2/jobs/{id}        - cancel
//
// The v1 POST endpoints are thin synchronous wrappers over the same
// job manager (submit, then run on the request's goroutine), so both
// surfaces share one execution path, one cache, and one cluster runner.
//
// Every "arch" field accepts any registered DRAM backend ID (package
// dram's registry): the four paper architectures plus the generality
// presets, and whatever the embedding process registers at startup.
//
// Quickstart:
//
//	drmap-serve -addr :8080 &
//	curl -s localhost:8080/api/v1/dse -d '{"arch":"ddr3","network":"alexnet"}'
//	curl -s localhost:8080/api/v2/jobs -d '{"kind":"dse","dse":{"arch":"ddr3","network":"alexnet"}}'
//
// Identical requests are content-addressed (a key built from the
// resolved inputs: see dseKey for DSE, Fingerprint for the rest) and
// served from a bounded LRU cache; concurrent identical requests share
// one evaluation (single-flight).
package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/memctrl"
	"drmap/internal/obs"
	"drmap/internal/profile"
	"drmap/internal/report"
	"drmap/internal/sweep"
	"drmap/internal/tiling"
	"drmap/internal/trace"
)

// Options tune a Service.
type Options struct {
	// Workers sizes the DSE/characterization worker pools; <= 0 means
	// one per logical CPU.
	Workers int
	// CacheEntries bounds the result cache: 0 selects
	// DefaultCacheEntries, negative disables retention (single-flight
	// deduplication still applies).
	CacheEntries int
	// PlanCacheEntries bounds the count-plan cache in grid columns. The
	// cache holds one backend-independent count plan per evaluated run
	// of a layer's (layer, schedule) columns, weighed by its column
	// count: 0 selects DefaultPlanCacheEntries, negative disables the
	// cache entirely (every evaluation recounts, the pre-split behavior
	// - mainly useful for baselines and benchmarks).
	PlanCacheEntries int
	// PlanCacheBytes, when > 0, additionally caps the plan cache's
	// resident bytes: plans are stored vectorized (core.FlatColumn) and
	// sized exactly, and LRU plans are evicted once the sum exceeds the
	// budget, whatever the entry count. 0 leaves only the entry cap.
	PlanCacheBytes int64
	// Runner, when set, executes resolved DSE jobs - e.g. a cluster
	// coordinator distributing shards over remote workers - instead of
	// the local pool. A runner returning an error that wraps
	// ErrNoWorkers falls back to the local pool.
	Runner DSERunner
	// Registry, when set, is the metrics registry GET /metrics renders
	// and every instrument registers on; nil builds a fresh one.
	// Processes hosting several telemetry sources (job manager, cluster
	// roles) share the service's registry, so one scrape covers them
	// all.
	Registry *obs.Registry
	// Spans, when set, is the trace store GET /api/v1/traces reads and
	// every instrumented tier records spans into; nil builds one with
	// default bounds (obs.SpanStoreOptions zero values).
	Spans *obs.SpanStore
}

// DefaultCacheEntries is the drmap-serve default result-cache bound.
const DefaultCacheEntries = 256

// profileCacheEntries bounds the characterization cache. It is apart
// from the result cache, so a flood of DSE results cannot evict the
// profiles simulate picks and local DSE evaluations build on; a
// profile is a few KB, and the stock registry holds 8 backends.
const profileCacheEntries = 64

// DefaultPlanCacheEntries is the drmap-serve default count-plan-cache
// bound, in grid columns (an AlexNet DSE is 32 columns - 8 layers x 4
// schedules - per distinct count signature).
const DefaultPlanCacheEntries = 512

// Service is the concurrent DSE/characterization engine behind
// drmap-serve. It is safe for concurrent use.
type Service struct {
	workers int
	cache   *Cache
	// profiles holds characterizations, keyed by backend fingerprint.
	profiles *Cache
	// prints memoizes backend fingerprints; see backendPrint.
	printsMu sync.Mutex
	prints   map[dram.Backend]string
	evals    atomic.Int64 // fresh (non-cached, non-coalesced) computations
	// gate bounds the total CPU-bound DSE parallelism across all
	// concurrently running requests to `workers` tokens, so N distinct
	// in-flight requests queue for CPU instead of oversubscribing it
	// N*workers-fold.
	gate   chan struct{}
	runner DSERunner
	// planCache holds backend-independent count plans, one per (job
	// minus costs/timing, layer run of grid columns), weighed in
	// columns; nil when disabled. See plan.go.
	planCache *Cache
	registry  *obs.Registry
	// phaseSeconds is the drmap_eval_phase_seconds histogram; the column
	// evaluator observes count and price time into it (see plan.go).
	phaseSeconds *obs.HistogramVec
	// simCommands and simEngineSeconds instrument the cycle-accurate
	// validation path: issued DRAM commands by mnemonic, and simulate
	// wall-clock by event engine (see simjob.go).
	simCommands      *obs.CounterVec
	simEngineSeconds *obs.HistogramVec
	// spans is the tail-sampled trace store behind /api/v1/traces.
	spans *obs.SpanStore
}

// New builds a Service.
func New(opt Options) *Service {
	if opt.CacheEntries == 0 {
		opt.CacheEntries = DefaultCacheEntries
	}
	if opt.PlanCacheEntries == 0 {
		opt.PlanCacheEntries = DefaultPlanCacheEntries
	}
	var planCache *Cache
	if opt.PlanCacheEntries > 0 {
		planCache = NewCacheSized(opt.PlanCacheEntries, opt.PlanCacheBytes, planSizeBytes)
		planCache.weighOf = planColumns
	}
	if opt.Registry == nil {
		opt.Registry = obs.NewRegistry()
	}
	if opt.Spans == nil {
		opt.Spans = obs.NewSpanStore(obs.SpanStoreOptions{})
	}
	workers := defaultWorkers(opt.Workers)
	s := &Service{
		workers:   workers,
		cache:     NewCache(opt.CacheEntries),
		profiles:  NewCache(profileCacheEntries),
		prints:    make(map[dram.Backend]string),
		gate:      make(chan struct{}, workers),
		runner:    opt.Runner,
		planCache: planCache,
		registry:  opt.Registry,
		spans:     opt.Spans,
	}
	s.registerMetrics()
	return s
}

// SetRunner installs (or clears) the distributed DSE runner after
// construction - cmd wiring builds the service first, then the cluster
// coordinator around it. Call before serving requests.
func (s *Service) SetRunner(r DSERunner) { s.runner = r }

// Spans returns the service's trace store.
func (s *Service) Spans() *obs.SpanStore { return s.spans }

// internalError marks a failure that occurred while computing a result,
// as opposed to rejecting a request's inputs; the HTTP layer maps it to
// a 5xx status.
type internalError struct{ err error }

func (e *internalError) Error() string { return e.err.Error() }
func (e *internalError) Unwrap() error { return e.err }

// Workers returns the pool size.
func (s *Service) Workers() int { return s.workers }

// CacheStats snapshots the result cache counters.
func (s *Service) CacheStats() CacheStats { return s.cache.Stats() }

// PlanCacheStats snapshots the count-plan cache counters; all-zero when
// the plan cache is disabled. A hit means a grid column was repriced
// from a cached count plan instead of recounted - the multi-backend /
// multi-objective sharing the count -> price split buys.
func (s *Service) PlanCacheStats() CacheStats {
	if s.planCache == nil {
		return CacheStats{}
	}
	return s.planCache.Stats()
}

// Evaluations returns how many fresh computations the service has run;
// cached and coalesced requests do not increment it.
func (s *Service) Evaluations() int64 { return s.evals.Load() }

// Health reports liveness and serving counters.
func (s *Service) Health() HealthResponse {
	return HealthResponse{
		Status:      "ok",
		Workers:     s.workers,
		Evaluations: s.Evaluations(),
		Cache:       s.CacheStats(),
	}
}

// Policies lists the Table I mapping policies.
func (s *Service) Policies() PoliciesResponse {
	return PoliciesResponse{Policies: report.TableIJSON()}
}

// Backends lists the registered DRAM backends the service will accept
// in any "arch" field, sorted by ID.
func (s *Service) Backends() BackendsResponse {
	return BackendsResponse{Backends: report.BackendsJSON(dram.Backends())}
}

// cacheKey namespaces fingerprints by entry point so, e.g., a grid and
// a simulate over the same config never collide.
type cacheKey struct {
	Kind  string
	Value any
}

// fingerprintKey is the result-cache key of keyable under kind: the
// Fingerprint of its canonical JSON.
func fingerprintKey(kind string, keyable any) (string, error) {
	key, err := Fingerprint(cacheKey{Kind: kind, Value: keyable})
	if err != nil {
		return "", &internalError{err: err}
	}
	return key, nil
}

// eval runs compute through c under key, counting it as a fresh
// evaluation when it runs.
func (s *Service) eval(c *Cache, key string, compute func() (any, error)) (any, bool, error) {
	return c.Do(key, func() (any, error) {
		s.evals.Add(1)
		v, err := compute()
		if err != nil {
			// Inputs were validated before the computation started, so
			// whatever failed here is the server's fault.
			return nil, &internalError{err: err}
		}
		return v, nil
	})
}

// backendPrint is the Fingerprint of b (ID, name and configuration),
// memoized per backend value when b is the registered backend of its
// ID. The memo only ever holds values equal to a registry entry, so it
// is bounded by the registry however many arbitrary backends shard
// requests carry; a re-registered config is a different key, so it
// never aliases.
func (s *Service) backendPrint(b dram.Backend) (string, error) {
	s.printsMu.Lock()
	fp, ok := s.prints[b]
	s.printsMu.Unlock()
	if ok {
		return fp, nil
	}
	fp, err := Fingerprint(b)
	if err != nil {
		return "", &internalError{err: err}
	}
	if reg, ok := dram.Lookup(b.ID); ok && reg == b {
		s.printsMu.Lock()
		s.prints[b] = fp
		s.printsMu.Unlock()
	}
	return fp, nil
}

// profileFor characterizes one backend, cached and single-flight, and
// reports whether this call computed the profile fresh (as opposed to
// a cache hit or a coalesced in-flight evaluation). The cache key is
// the full backend's fingerprint (ID, name and configuration), so a
// re-registered ID with a different config can never serve stale data.
func (s *Service) profileFor(b dram.Backend) (p *profile.Profile, fresh bool, err error) {
	key, err := s.backendPrint(b)
	if err != nil {
		return nil, false, err
	}
	v, shared, err := s.eval(s.profiles, key, func() (any, error) {
		return profile.CharacterizeBackend(b)
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*profile.Profile), !shared, nil
}

// gridKey content-addresses a DSE grid: candidate tilings depend only
// on the workload and the accelerator buffers, so every backend,
// objective and batch size of the same (network, accel) pair shares
// one enumeration.
type gridKey struct {
	Network any
	Accel   accel.Config
}

// gridFor enumerates the job's DSE grid through the content-addressed
// cache, single-flight. On the warm path re-enumerating tilings per
// job costs more than repricing the cached plans, and a multi-backend
// batch enumerates the identical grid once instead of per backend.
// Every consumer treats the returned grids as immutable.
func (s *Service) gridFor(job DSEJob) ([]core.LayerGrid, error) {
	key, err := fingerprintKey("grid", gridKey{Network: job.Network, Accel: job.Accel})
	if err != nil {
		return nil, err
	}
	v, _, err := s.cache.Do(key, func() (any, error) { return job.Grid() })
	if err != nil {
		return nil, err
	}
	return v.([]core.LayerGrid), nil
}

// evaluatorFor builds the job's evaluator - its accelerator and batch
// on the cached characterization of its backend.
func (s *Service) evaluatorFor(job DSEJob) (*core.Evaluator, error) {
	p, _, err := s.profileFor(job.Backend)
	if err != nil {
		return nil, err
	}
	return core.NewEvaluator(p, job.Accel, job.Batch)
}

// dseKey is the result-cache key of a DSE job, built from fixed fields
// without reflection: a "dse" tag, the backend's print (ID plus
// configuration, see backendPrint), the accelerator's ints, the
// network's key (networkKey), the objective, the schedule names, the
// policy IDs and the batch. Every string is length-prefixed and every
// int fixed-width, so two different jobs never encode alike, and the
// NUL in the tag keeps the key apart from the hex Fingerprint keys that
// share the result cache. Preset changes, registry changes and custom
// layers therefore never alias.
func (s *Service) dseKey(job DSEJob) (string, error) {
	backend, err := s.backendPrint(job.Backend)
	if err != nil {
		return "", err
	}
	net := job.netKey
	if net == "" {
		net = networkKey(job.Network, false)
	}
	a := job.Accel
	// A key fits the stack buffer, so building it allocates only the
	// returned string.
	var buf [512]byte
	b := append(buf[:0], "dse\x00"...)
	b = appendKeyString(b, backend)
	for _, v := range [...]int{a.MACRows, a.MACCols, a.IfmBufBytes, a.WgtBufBytes, a.OfmBufBytes, a.BytesPerElement} {
		b = appendKeyInt(b, v)
	}
	b = appendKeyString(b, net)
	b = appendKeyString(b, job.Objective.String())
	b = appendKeyInt(b, len(job.Schedules))
	for _, sc := range job.Schedules {
		b = appendKeyString(b, sc.String())
	}
	b = appendKeyInt(b, len(job.Policies))
	for _, p := range job.Policies {
		b = appendKeyInt(b, p.ID)
	}
	b = appendKeyInt(b, job.Batch)
	return string(b), nil
}

// networkKey is a network's part of the DSE key. A built-in network,
// resolved by name, is keyed by a "builtin" tag and that name: its
// layers are fixed for the life of the process. Any other network is
// keyed by a "layers" tag and the SHA-256 of its name and layers,
// binary-encoded with length-prefixed names, so a custom stack never
// aliases a built-in one, even with the same layers.
func networkKey(n cnn.Network, builtin bool) string {
	if builtin {
		return "builtin\x00" + n.Name
	}
	var buf [1024]byte
	b := appendKeyString(buf[:0], n.Name)
	b = appendKeyInt(b, len(n.Layers))
	for _, l := range n.Layers {
		b = appendKeyString(b, l.Name)
		for _, v := range [...]int{int(l.Kind), l.H, l.W, l.J, l.I, l.P, l.Q, l.Stride, l.Pad} {
			b = appendKeyInt(b, v)
		}
	}
	sum := sha256.Sum256(b)
	return "layers\x00" + string(sum[:])
}

// appendKeyInt appends v as 8 little-endian bytes.
func appendKeyInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// appendKeyString appends v's length, then v.
func appendKeyString(b []byte, v string) []byte {
	return append(appendKeyInt(b, len(v)), v...)
}

// parseDSE resolves a DSE request into the job it runs: the one parse
// Service.DSE and a dse job share.
func parseDSE(req DSERequest) (DSEJob, error) {
	job := DSEJob{Accel: accel.TableII(), Batch: req.Batch}
	var err error
	if job.Backend, err = parseBackend(req.Arch); err != nil {
		return DSEJob{}, err
	}
	if job.Network, err = parseNetwork(req.Network, req.Layers); err != nil {
		return DSEJob{}, err
	}
	job.netKey = networkKey(job.Network, req.Network != "")
	if job.Schedules, err = parseSchedules(req.Schedules); err != nil {
		return DSEJob{}, err
	}
	if job.Policies, err = parsePolicies(req.Policies); err != nil {
		return DSEJob{}, err
	}
	if job.Objective, err = parseObjective(req.Objective); err != nil {
		return DSEJob{}, err
	}
	if job.Batch == 0 {
		job.Batch = 1
	}
	if err := core.CheckCountRange(job.Network, job.Accel.BytesPerElement, job.Batch); err != nil {
		return DSEJob{}, err
	}
	return job, nil
}

// DSE runs Algorithm 1 for the request, fanning the evaluation grid
// over the worker pool (total parallelism across all in-flight requests
// is bounded by the service's worker count). Identical requests are
// answered from the cache; concurrent identical requests share a
// single evaluation. The evaluation is detached from any one caller:
// each caller's wait is bounded by its own context, and an evaluation
// whose callers all gave up still completes and is cached, so retries
// hit the cache instead of recomputing.
func (s *Service) DSE(ctx context.Context, req DSERequest) (*DSEResponse, error) {
	job, err := parseDSE(req)
	if err != nil {
		return nil, err
	}
	return s.dse(ctx, job)
}

// dse runs a resolved DSE job through the result cache.
func (s *Service) dse(ctx context.Context, job DSEJob) (*DSEResponse, error) {
	key, err := s.dseKey(job)
	if err != nil {
		return nil, err
	}
	obj := job.Objective.String()
	// The "dse" span opens before the compute closure captures it, so
	// count/price/shard spans recorded under the detached evaluation
	// context parent under it even when the evaluation outlives ctx.
	sctx, span := obs.StartSpan(ctx, "dse",
		obs.Str("backend", job.Backend.ID),
		obs.Str("network", job.Network.Name),
		obs.Str("objective", obj),
		obs.Int("batch", job.Batch))
	v, shared, err := s.doBounded(ctx, key, func() (any, error) {
		res, err := s.runJob(context.WithoutCancel(sctx), job)
		if err != nil {
			return nil, err
		}
		// The evaluator's timing is its profile's config timing, i.e.
		// the backend's - available without characterizing locally when
		// a cluster ran the job.
		return &DSEResponse{
			Network:   job.Network.Name,
			Objective: obj,
			Batch:     job.Batch,
			Result:    report.DSEResultJSON(res, job.Backend.Config.Timing),
			hitBody:   new(encodedBody),
		}, nil
	})
	if err != nil {
		span.Fail(err)
		span.End()
		return nil, err
	}
	span.SetAttr(obs.Bool("cache_hit", shared))
	span.End()
	resp := *(v.(*DSEResponse))
	resp.Cached = shared
	return &resp, nil
}

// parseCharacterize resolves the backends a characterize request
// names: every registered backend when it names none.
func parseCharacterize(req CharacterizeRequest) ([]dram.Backend, error) {
	if len(req.Archs) == 0 {
		return dram.Backends(), nil
	}
	backends := make([]dram.Backend, len(req.Archs))
	for i, name := range req.Archs {
		b, err := parseBackend(name)
		if err != nil {
			return nil, err
		}
		backends[i] = b
	}
	return backends, nil
}

// Characterize measures the requested backends (every registered
// backend when the request names none), fanning uncached ones over the
// worker pool. As with the other endpoints, the caller's wait is
// bounded by ctx while the characterizations themselves finish and are
// cached per backend, so a timed-out client's retry picks up where it
// left.
func (s *Service) Characterize(ctx context.Context, req CharacterizeRequest) (*CharacterizeResponse, error) {
	backends, err := parseCharacterize(req)
	if err != nil {
		return nil, err
	}
	return s.characterize(ctx, backends)
}

// characterize runs the per-backend profile computations over the
// worker pool, detached from ctx, and assembles the response.
func (s *Service) characterize(ctx context.Context, backends []dram.Backend) (*CharacterizeResponse, error) {
	detached := context.WithoutCancel(ctx)
	return awaitDetached(ctx, func() (*CharacterizeResponse, error) {
		profiles := make([]*profile.Profile, len(backends))
		errs := make([]error, len(backends))
		fresh := make([]bool, len(backends))
		err := runPool(detached, len(backends), s.workers, func(i int) {
			profiles[i], fresh[i], errs[i] = s.profileFor(backends[i])
		})
		if err != nil {
			return nil, fmt.Errorf("service: characterization canceled: %w", err)
		}
		allCached := true
		for i := range backends {
			if errs[i] != nil {
				return nil, errs[i]
			}
			if fresh[i] {
				allCached = false
			}
		}
		return &CharacterizeResponse{Profiles: report.Fig1JSON(profiles), Cached: allCached}, nil
	})
}

// awaitDetached runs compute on its own goroutine and waits for it
// under ctx: a timed-out or disconnected caller gets the context's
// error while the computation finishes in the background (and caches
// whatever it caches). compute must not depend on ctx.
func awaitDetached[T any](ctx context.Context, compute func() (T, error)) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := compute()
		ch <- outcome{v: v, err: err}
	}()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// doBounded runs compute through the result cache under key, with the
// caller's wait bounded by ctx. A completed entry is answered on the
// caller's goroutine. Otherwise the single-flight computation is
// detached (awaitDetached): it finishes in the background and is
// cached, so its coalesced peers (each waiting under their own context)
// still get the result and a timed-out client's retry becomes a cache
// hit. compute must not depend on ctx.
func (s *Service) doBounded(ctx context.Context, key string, compute func() (any, error)) (any, bool, error) {
	if v, ok := s.cache.Get(key); ok {
		return v, true, nil
	}
	type shared struct {
		v      any
		shared bool
	}
	o, err := awaitDetached(ctx, func() (shared, error) {
		v, sh, err := s.eval(s.cache, key, compute)
		return shared{v: v, shared: sh}, err
	})
	return o.v, o.shared, err
}

// simInputs are a simulate request's parsed fields: the one parse
// Service.Simulate and a simulate job share.
type simInputs struct {
	backend     dram.Backend
	policy      mapping.Policy
	policyID    int
	networkMode bool
	network     cnn.Network
	spec        core.LayerSpec  // single-layer mode
	sched       tiling.Schedule // network mode's pick schedule
	batch       int
	bpe         int
	scheduler   memctrl.Scheduler
	pagePolicy  memctrl.PagePolicy
	parallel    bool
}

// parseSimulate resolves a simulate request's names and defaults. The
// single-layer parse order (backend, policy, layer, schedule, batch,
// element width) predates network mode and is preserved exactly, so
// error text never changes for existing clients.
func parseSimulate(req SimulateRequest) (*simInputs, error) {
	in := &simInputs{policyID: req.Policy}
	var err error
	in.backend, err = parseBackend(req.Arch)
	if err != nil {
		return nil, err
	}
	policies, err := parsePolicies([]int{req.Policy})
	if err != nil {
		return nil, err
	}
	in.policy = policies[0]
	in.networkMode = req.Network != ""
	if in.networkMode {
		if req.Layer != (LayerJSON{}) || req.Tiling != (report.TilingJSON{}) {
			return nil, fmt.Errorf("give either a network or a single layer+tiling, not both")
		}
		in.network, err = parseNetwork(req.Network, nil)
		if err != nil {
			return nil, err
		}
		schedName := req.Schedule
		if schedName == "" {
			schedName = "adaptive"
		}
		in.sched, err = parseSchedule(schedName)
		if err != nil {
			return nil, err
		}
	} else {
		layer, err := req.Layer.toLayer()
		if err != nil {
			return nil, err
		}
		sched, err := parseSchedule(req.Schedule)
		if err != nil {
			return nil, err
		}
		in.spec = core.LayerSpec{
			Layer:    layer,
			Tiling:   tiling.Tiling{Th: req.Tiling.Th, Tw: req.Tiling.Tw, Tj: req.Tiling.Tj, Ti: req.Tiling.Ti},
			Schedule: sched,
		}
	}
	in.batch = req.Batch
	if in.batch == 0 {
		in.batch = 1
	}
	in.spec.Batch = in.batch
	in.bpe = req.BytesPerElement
	if in.bpe == 0 {
		// Default to the Table II element width so the validation path
		// prices the same datatype the DSE models.
		in.bpe = accel.TableII().BytesPerElement
	}
	in.scheduler, err = parseSimScheduler(req.Scheduler)
	if err != nil {
		return nil, err
	}
	in.pagePolicy, err = parsePagePolicy(req.PagePolicy)
	if err != nil {
		return nil, err
	}
	in.parallel, err = parseSimEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	layers := in.network
	if !in.networkMode {
		layers = cnn.Network{Layers: []cnn.Layer{in.spec.Layer}}
	}
	if err := core.CheckCountRange(layers, in.bpe, in.batch); err != nil {
		return nil, err
	}
	return in, nil
}

// simSpecsFor expands the parsed inputs to concrete layer specs. In
// network mode, each layer's tiling (and, for adaptive, schedule) is
// picked by the DSE under the requested policy - the Fig. 8 flow:
// search analytically, then validate the picked design points in the
// cycle-accurate simulator. The search runs as a DSE job would: the
// cached grid, the local pool and the count-plan cache, whose picks are
// the serial scan's bit for bit, so a repeated network pick reprices
// instead of recounting. The caller's progress sink is masked: a
// simulate job counts layers, not DSE columns.
func (s *Service) simSpecsFor(ctx context.Context, in *simInputs) ([]core.LayerSpec, error) {
	if !in.networkMode {
		return []core.LayerSpec{in.spec}, nil
	}
	job := DSEJob{
		Backend: in.backend, Accel: accel.TableII(), Network: in.network,
		Schedules: []tiling.Schedule{in.sched}, Policies: []mapping.Policy{in.policy},
		Objective: core.MinimizeEDP, Batch: in.batch,
	}
	ev, err := s.evaluatorFor(job)
	if err != nil {
		return nil, err
	}
	grids, err := s.gridFor(job)
	if err != nil {
		return nil, err
	}
	res, err := parallelDSE(core.WithProgress(ctx, nil), s.gate, grids, ev, job.Schedules, job.Policies,
		job.Objective, s.workers, s.runEval(job, ev))
	if err != nil {
		return nil, err
	}
	specs := make([]core.LayerSpec, len(res.Layers))
	for i, lr := range res.Layers {
		specs[i] = core.LayerSpec{Layer: lr.Layer, Tiling: lr.Best.Tiling, Schedule: lr.Best.Schedule, Batch: in.batch}
	}
	return specs, nil
}

// Simulate runs the cycle-accurate controller and energy model (the
// validation path): one layer at a fixed design point, or - in network
// mode - every layer of a workload at its DSE-picked design point.
// Results are engine-independent (serial and parallel are bit-for-bit
// identical), so the engine choice is excluded from the cache key;
// like DSE, the evaluation is detached from any one caller and a
// distributed runner shards network jobs across cluster workers.
func (s *Service) Simulate(ctx context.Context, req SimulateRequest) (*SimulateResponse, error) {
	in, err := parseSimulate(req)
	if err != nil {
		return nil, err
	}
	return s.simulate(ctx, in)
}

// simulate runs a resolved simulate request through the result cache.
func (s *Service) simulate(ctx context.Context, in *simInputs) (*SimulateResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	specs, err := s.simSpecsFor(ctx, in)
	if err != nil {
		return nil, err
	}
	job := SimulateJob{
		Backend: in.backend, Policy: in.policy, Specs: specs,
		BytesPerElement: in.bpe,
		PagePolicy:      in.pagePolicy, Scheduler: in.scheduler,
		Parallel: in.parallel,
	}
	// The cache key is the job minus the engine choice: either engine
	// produces the identical response, so serial and parallel requests
	// share one entry.
	type simKey struct {
		Backend    dram.Backend
		Policy     int
		Specs      []core.LayerSpec
		BPE        int
		Scheduler  memctrl.Scheduler
		PagePolicy memctrl.PagePolicy
	}
	key, err := fingerprintKey("simulate", simKey{
		Backend: in.backend, Policy: in.policyID, Specs: specs,
		BPE: in.bpe, Scheduler: in.scheduler, PagePolicy: in.pagePolicy,
	})
	if err != nil {
		return nil, err
	}
	engineName := "serial"
	if in.parallel {
		engineName = "parallel"
	}
	// As with DSE, the "sim.run" span opens before the detached
	// evaluation context is captured, so per-layer and shard spans
	// recorded by the compute closure parent under it.
	sctx, span := obs.StartSpan(ctx, "sim.run",
		obs.Str("backend", in.backend.ID),
		obs.Str("engine", engineName),
		obs.Int("policy", in.policyID),
		obs.Int("layers", len(specs)))
	evalCtx := context.WithoutCancel(sctx)
	v, shared, err := s.doBounded(ctx, key, func() (any, error) {
		start := time.Now()
		res, err := s.runSimJob(evalCtx, job)
		if err != nil {
			return nil, err
		}
		s.simEngineSeconds.With(engineName).Observe(time.Since(start).Seconds())
		tm := in.backend.Config.Timing
		resp := &SimulateResponse{Arch: in.backend.Name}
		var total core.LayerEDP
		for _, lr := range res {
			total.Add(lr.Cost)
			for kind, n := range lr.Commands {
				s.simCommands.With(kind).Add(n)
			}
		}
		if in.networkMode {
			resp.Network = in.network.Name
			resp.Layers = make([]SimulateLayerJSON, len(res))
			for i, lr := range res {
				resp.Layers[i] = simLayerToJSON(lr, tm)
			}
			resp.Cost = report.LayerEDPToJSON(total, tm)
		} else {
			resp.Layer = in.spec.Layer.Name
			resp.Cost = report.LayerEDPToJSON(res[0].Cost, tm)
		}
		return resp, nil
	})
	if err != nil {
		span.Fail(err)
		span.End()
		return nil, err
	}
	span.SetAttr(obs.Bool("cache_hit", shared))
	span.End()
	resp := *(v.(*SimulateResponse))
	resp.Cached = shared
	return &resp, nil
}

// sweepInputs are a sweep request's parsed fields: the one parse
// Service.Sweep and a sweep job share. Each swept value resolves to
// one point, a DSE job (see resolvePoints).
type sweepInputs struct {
	kind    string
	values  []int
	backend dram.Backend
	network cnn.Network
	points  []DSEJob // one per value, in order
}

// maxSweepValues caps a sweep's values list: each value is a point the
// sweep runs, detached from the request timeout.
const maxSweepValues = 64

// parseSweep resolves a sweep request's names and defaults, in the
// order network, backend, kind.
func parseSweep(req SweepRequest) (*sweepInputs, error) {
	in := &sweepInputs{kind: req.Kind, values: req.Values}
	netName := req.Network
	if netName == "" {
		netName = "alexnet"
	}
	var err error
	if in.network, err = parseNetwork(netName, nil); err != nil {
		return nil, err
	}
	archName := req.Arch
	if archName == "" {
		archName = "ddr3"
	}
	if in.backend, err = parseBackend(archName); err != nil {
		return nil, err
	}
	batch := req.Batch
	if batch == 0 {
		batch = 1
	}
	defaults := map[string][]int{
		"subarrays": {2, 4, 8, 16},
		"buffers":   {32, 64, 128, 256},
		"batch":     {1, 2, 4, 8},
	}[req.Kind]
	if defaults == nil {
		return nil, fmt.Errorf("unknown sweep kind %q (want subarrays, buffers or batch)", req.Kind)
	}
	if len(in.values) == 0 {
		in.values = defaults
	}
	if len(in.values) > maxSweepValues {
		return nil, fmt.Errorf("sweep: %d values given, at most %d allowed", len(in.values), maxSweepValues)
	}
	// A repeated value would rerun its point and repeat its row: keep
	// the first of each, in order, as parsePolicies does.
	values := make([]int, 0, len(in.values))
	seen := make(map[int]bool, len(in.values))
	for _, v := range in.values {
		if !seen[v] {
			seen[v] = true
			values = append(values, v)
		}
	}
	in.values = values
	if err := in.resolvePoints(batch); err != nil {
		return nil, err
	}
	return in, nil
}

// resolvePoints builds each value's point: a DRMap-only, all-schedules,
// minimum-EDP DSE of the built-in network on the Table II accelerator
// at the given batch, with the swept field set. A subarrays point runs
// on an unregistered SALP-MASA backend, so it never aliases the
// registered masa die. A point the sweep could not run, or could only
// run into an invalid geometry or a rounded count, is rejected: each
// subarray count must give a valid SALP-MASA die, each buffer size a
// valid Table II accelerator, and each point's batch must be countable
// exactly (core.CheckCountRange).
func (in *sweepInputs) resolvePoints(batch int) error {
	in.points = make([]DSEJob, len(in.values))
	for i, v := range in.values {
		job := DSEJob{
			Backend: in.backend, Accel: accel.TableII(), Network: in.network,
			Schedules: tiling.Schedules, Policies: []mapping.Policy{mapping.DRMap()},
			Objective: core.MinimizeEDP, Batch: batch,
			netKey: networkKey(in.network, true),
		}
		switch in.kind {
		case "subarrays":
			cfg := dram.SALPMASAConfig()
			cfg.Geometry.Subarrays = v
			if err := cfg.Validate(); err != nil {
				return fmt.Errorf("sweep subarrays %d: %w", v, err)
			}
			job.Backend = dram.Backend{Config: cfg}
		case "buffers":
			if v < 1 || v > math.MaxInt/1024 {
				return fmt.Errorf("sweep buffers %d KB: want 1 to %d", v, math.MaxInt/1024)
			}
			job.Accel.IfmBufBytes, job.Accel.WgtBufBytes, job.Accel.OfmBufBytes = v*1024, v*1024, v*1024
			if err := job.Accel.Validate(); err != nil {
				return fmt.Errorf("sweep buffers %d KB: %w", v, err)
			}
		case "batch":
			job.Batch = v
		}
		in.points[i] = job
	}
	for _, job := range in.points {
		if err := core.CheckCountRange(job.Network, job.Accel.BytesPerElement, job.Batch); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	return nil
}

// Sweep runs one ablation sweep (subarrays, buffers or batch). Each
// point runs as a DSE job through the path a batch item takes: the
// result, plan and profile caches, single-flight, the CPU gate and the
// cluster runner.
func (s *Service) Sweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	in, err := parseSweep(req)
	if err != nil {
		return nil, err
	}
	return s.sweep(ctx, in)
}

// sweep runs a resolved sweep's points concurrently over the worker
// pool, as batch runs its items, and tabulates them in value order.
// The table is not cached itself; Cached reports that every point was
// a result-cache hit.
func (s *Service) sweep(ctx context.Context, in *sweepInputs) (*SweepResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resps := make([]*DSEResponse, len(in.points))
	errs := make([]error, len(in.points))
	if err := runPool(ctx, len(in.points), s.workers, func(i int) {
		resps[i], errs[i] = s.dse(ctx, in.points[i])
	}); err != nil {
		return nil, err
	}
	const edpColumn = "DRMap-total-EDP[uJs]"
	var t *sweep.Table
	switch in.kind {
	case "subarrays":
		t = &sweep.Table{Name: "Ablation: subarrays per bank (SALP-MASA, " + in.network.Name + ")",
			Header: []string{"subarrays", "subarray-cycles/access", "subarray-nJ/access", edpColumn}}
	case "buffers":
		t = &sweep.Table{Name: fmt.Sprintf("Ablation: on-chip buffer capacity (%s, %s)", in.backend.Label(), in.network.Name),
			Header: []string{"buffer-KB", edpColumn}}
	default:
		t = &sweep.Table{Name: fmt.Sprintf("Ablation: batch size (%s, %s)", in.backend.Label(), in.network.Name),
			Header: []string{"batch", edpColumn}}
	}
	cached := true
	for i, v := range in.values {
		if errs[i] != nil {
			return nil, errs[i]
		}
		cached = cached && resps[i].Cached
		row := []float64{resps[i].Result.TotalEDPJs * 1e6}
		if in.kind == "subarrays" {
			// The profile the point's evaluator priced with: each die is
			// characterized once, into the profile cache.
			prof, _, err := s.profileFor(in.points[i].Backend)
			if err != nil {
				return nil, err
			}
			cost := prof.Stream[trace.AccessSubarraySwitch]
			row = append([]float64{cost.Cycles, cost.Energy * 1e9}, row...)
		}
		if err := t.AddRow(strconv.Itoa(v), row...); err != nil {
			return nil, err
		}
	}
	return &SweepResponse{Table: report.SweepTableJSON(t), Cached: cached}, nil
}
