package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"drmap/internal/core"
	"drmap/internal/obs"
	"drmap/internal/service"
)

// Coordinator defaults.
const (
	// DefaultShardsPerWorker over-partitions the column space so a slow
	// or dying worker strands at most 1/ShardsPerWorker of its share.
	DefaultShardsPerWorker = 4
	// DefaultMaxAttempts bounds how many workers one shard may burn
	// through before the job fails over to the local pool.
	DefaultMaxAttempts = 3
	// DefaultShardTimeout bounds one shard dispatch. Without it a
	// worker that freezes mid-shard (deadlocked, SIGSTOPped - TCP still
	// ACKs, so nothing else errors) would wedge the dispatch, and with
	// it the single-flight cache entry of the whole request, forever.
	// Shards evaluate in milliseconds to seconds; two minutes is
	// generous headroom, not a tuning knob.
	DefaultShardTimeout = 2 * time.Minute
	// idleShardConnsPerHost sizes the default client's keep-alive pool
	// per worker. Every span of a job is in flight at once and batch
	// items run concurrently, so one worker sees tens of concurrent
	// shard POSTs; http.DefaultTransport keeps 2 idle connections per
	// host, and every POST beyond them would dial a fresh TCP
	// connection.
	idleShardConnsPerHost = 64
)

// CoordinatorOptions tune a Coordinator.
type CoordinatorOptions struct {
	// HeartbeatTTL expires workers that stop heartbeating; <= 0 means
	// DefaultHeartbeatTTL.
	HeartbeatTTL time.Duration
	// ShardsPerWorker over-partitions the column space; <= 0 means
	// DefaultShardsPerWorker.
	ShardsPerWorker int
	// MaxAttempts bounds per-shard redispatch; <= 0 means
	// DefaultMaxAttempts.
	MaxAttempts int
	// ShardTimeout bounds one shard dispatch round trip, so a frozen
	// worker is retried elsewhere instead of hanging the job; <= 0
	// means DefaultShardTimeout.
	ShardTimeout time.Duration
	// Client performs shard dispatch; nil means a client whose
	// keep-alive pool holds idleShardConnsPerHost connections per worker
	// (each call is already bounded by ShardTimeout).
	Client *http.Client
	// Now is the membership clock; nil means time.Now. Injectable so
	// stale-heartbeat handling is testable without sleeping.
	Now func() time.Time
	// Registry receives the coordinator's membership and shard series;
	// nil builds a private one. Pass the owning Service's Registry() so
	// they show on its GET /metrics page.
	Registry *obs.Registry
	// Logger receives shard retry and job completion lines, trace ID
	// attached; nil discards them.
	Logger *slog.Logger
}

// Coordinator partitions DSE and simulate jobs into shards, dispatches
// them to registered workers through one span dispatcher (runShards),
// and merges the results. It implements service.DSERunner and
// service.SimulateRunner, so installing it as a Service's Runner makes
// DSE, batch and simulate requests cluster-distributed transparently.
// It is safe for concurrent use.
type Coordinator struct {
	members         *Membership
	client          *http.Client
	shardsPerWorker int
	maxAttempts     int
	shardTimeout    time.Duration

	inflight  *obs.Gauge   // shards currently dispatched
	completed *obs.Counter // shards merged successfully
	retries   *obs.Counter // shard dispatches that failed and were retried

	logger          *slog.Logger
	dispatchSeconds *obs.Histogram // one observation per successful shard round trip
	mergeSeconds    *obs.Histogram // one observation per merged job

	// slotMu guards the memoized weighted dispatch table (see
	// pickWorker): rebuilt only when the live membership's IDs or
	// capacities change, not on every pick.
	slotMu  sync.Mutex
	slotKey string
	slotTab []WorkerInfo
}

// NewCoordinator builds a Coordinator with an empty membership.
func NewCoordinator(opt CoordinatorOptions) *Coordinator {
	spw := opt.ShardsPerWorker
	if spw <= 0 {
		spw = DefaultShardsPerWorker
	}
	attempts := opt.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultMaxAttempts
	}
	client := opt.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = idleShardConnsPerHost
		tr.MaxIdleConns = 0 // the per-host cap bounds the pool
		client = &http.Client{Transport: tr}
	}
	shardTimeout := opt.ShardTimeout
	if shardTimeout <= 0 {
		shardTimeout = DefaultShardTimeout
	}
	reg := opt.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := opt.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	c := &Coordinator{
		members:         NewMembership(opt.HeartbeatTTL, opt.Now),
		client:          client,
		shardsPerWorker: spw,
		maxAttempts:     attempts,
		shardTimeout:    shardTimeout,
		inflight: reg.Gauge("drmap_cluster_inflight_shards",
			"Shards currently dispatched and unresolved.").With(),
		completed: reg.Counter("drmap_cluster_shards_completed_total",
			"Shards completed across all distributed runs.").With(),
		retries: reg.Counter("drmap_cluster_shard_retries_total",
			"Shard dispatch attempts beyond each shard's first.").With(),
		logger: logger,
		dispatchSeconds: reg.Histogram("drmap_cluster_shard_dispatch_seconds",
			"Time to dispatch one shard (DSE or simulate) to a worker and receive its results.", nil).With(),
		mergeSeconds: reg.Histogram("drmap_cluster_merge_seconds",
			"Time to merge one job's shard results (DSE or simulate) into its result.", nil).With(),
	}
	reg.Func("drmap_cluster_workers", obs.KindGauge,
		"Cluster members currently alive (heartbeat within TTL).",
		func() float64 { return float64(len(c.members.Live())) })
	return c
}

// Membership exposes the worker registry (registration handlers and
// tests drive it directly).
func (c *Coordinator) Membership() *Membership { return c.members }

// Mount registers the coordinator's endpoints on a mux:
//
//	POST /cluster/v1/register - worker registration/heartbeat
//	GET  /cluster/v1/workers  - membership listing
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathRegister, c.handleRegister)
	mux.HandleFunc("GET "+PathWorkers, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, WorkersResponse{Workers: c.members.Snapshot()})
	})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad register body: " + err.Error()})
		return
	}
	if req.ID == "" || req.URL == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "register needs id and url"})
		return
	}
	c.members.Heartbeat(WorkerInfo{ID: req.ID, URL: req.URL, Capacity: req.Capacity})
	writeJSON(w, http.StatusOK, RegisterResponse{OK: true, TTLMillis: c.members.TTL().Milliseconds()})
}

// RunDSE distributes one resolved DSE job, whose enumeration is grids
// (job.Grid), across the live workers by (layer, schedule) column span
// and merges the shards into a DSEResult bit-for-bit identical to
// serial core.RunDSE; with no live workers it wraps
// service.ErrNoWorkers. The spans are placed by the job's count-plan
// signature (service.PlanSignature), so the jobs sharing one - the
// die-sharing backends and the objectives of one workload - send each
// span to the worker that counted its columns. A progress sink on ctx
// (core.WithProgress) sees the columns as runShards reports them, then
// every layer's pick after the merge, so a distributed v2 job streams
// shard completions as progress events.
func (c *Coordinator) RunDSE(ctx context.Context, job service.DSEJob, grids []core.LayerGrid) (*core.DSEResult, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	// Resolved jobs JSON-encode by construction; an unfingerprintable
	// one places by the empty key.
	sig, _ := service.PlanSignature(job)
	res, err := runShards(ctx, c, shardJob[core.CellResult, *core.DSEResult]{
		kind: "dse", placement: sig, units: job.Columns(grids),
		request: func(span core.ColumnSpan, shard, total int) ShardRequest {
			return ShardRequest{Job: job, Span: span, Shard: shard, Total: total}
		},
		payload: func(sr ShardResponse) []core.CellResult { return sr.Cells },
		merge: func(shards [][]core.CellResult) (*core.DSEResult, error) {
			return Merge(job, grids, slices.Concat(shards...))
		},
	})
	if err != nil {
		return nil, err
	}
	if prog := core.ProgressFrom(ctx); prog != nil {
		for li, lr := range res.Layers {
			prog.LayerDone(li, len(res.Layers), lr)
		}
	}
	return res, nil
}

// maxDispatchWeight caps one worker's weight in the dispatch sequence,
// so a misreported capacity cannot starve its peers (or balloon the
// slot table).
const maxDispatchWeight = 256

// pickWorker places attempt (0-based) of span of a job whose
// placement key hashes to base: slot (base+span+attempt) mod n of the
// live slot table (see weightedSlots), rebuilt as MarkDead and
// heartbeats change the membership. Placement is a pure function of
// the key, the span index and the live set, so every job sharing a
// key sends span i to the same worker, where its cached count plans
// are; consecutive spans walk the table, so each job still spreads
// over the workers in proportion to their capacities (a worker
// advertising an 8-slot pool receives four times the spans of a
// 2-slot one); and a retry moves on to the next slot. The merge is
// order- and duplication-independent, so placement never changes the
// result, only where the work ran.
func (c *Coordinator) pickWorker(base uint64, span, attempt int) (WorkerInfo, bool) {
	slots := c.weightedSlotsCached(c.members.Live())
	if len(slots) == 0 {
		return WorkerInfo{}, false
	}
	return slots[(base+uint64(span)+uint64(attempt))%uint64(len(slots))], true
}

// placementBase hashes a job's placement key to its first slot.
func placementBase(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// weightedSlotsCached memoizes the expanded slot table keyed by the
// live set's (ID, capacity) pairs, so per-pick cost is one O(n) key
// build instead of expanding and sorting up to n*maxDispatchWeight
// slots on every shard dispatch.
func (c *Coordinator) weightedSlotsCached(live []WorkerInfo) []WorkerInfo {
	var key strings.Builder
	for _, w := range live {
		key.WriteString(w.ID)
		key.WriteByte(':')
		key.WriteString(strconv.Itoa(w.Capacity))
		key.WriteByte(';')
	}
	k := key.String()
	c.slotMu.Lock()
	defer c.slotMu.Unlock()
	if c.slotKey != k {
		c.slotTab = weightedSlots(live)
		c.slotKey = k
	}
	return c.slotTab
}

// weightedSlots expands live workers into an interleaved dispatch
// sequence with each worker appearing in proportion to its advertised
// capacity (min 1, capped by maxDispatchWeight). Interleaving spreads
// each worker's slots evenly: slot j of a weight-w worker sits at
// fractional position (j+0.5)/w, and the sequence is those positions
// sorted (ties broken by worker ID, which Live already ordered), so
// consecutive dispatches rotate across workers instead of draining one
// worker's quota at a time.
func weightedSlots(live []WorkerInfo) []WorkerInfo {
	if len(live) == 0 {
		return nil
	}
	type slot struct {
		pos float64
		w   WorkerInfo
	}
	var slots []slot
	for _, w := range live {
		weight := w.Capacity
		if weight < 1 {
			weight = 1
		}
		if weight > maxDispatchWeight {
			weight = maxDispatchWeight
		}
		for j := 0; j < weight; j++ {
			slots = append(slots, slot{pos: (float64(j) + 0.5) / float64(weight), w: w})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].pos < slots[j].pos })
	out := make([]WorkerInfo, len(slots))
	for i, s := range slots {
		out[i] = s.w
	}
	return out
}

// Merge folds shard cells into the job's DSEResult. The reduction is
// core.ReduceCells - the exact code the serial scan and the single-host
// parallel executor reduce through - so the merged result is bit-for-bit
// identical to theirs regardless of shard order, interleaving, or
// duplicate delivery (a duplicated cell can never beat itself under the
// serial tie-break). Cells outside the job's grid or with a non-finite
// EDP are rejected, and so is a (layer, schedule, policy) cell no shard
// delivered - every grid layer has a feasible tiling, so every such
// cell is finite: they indicate a faulty worker or one evaluating a
// different job than the coordinator cut.
func Merge(job service.DSEJob, grids []core.LayerGrid, cells []core.CellResult) (*core.DSEResult, error) {
	tm := job.Backend.Config.Timing
	perLayer := make([][]core.CellResult, len(grids))
	covered := make([]bool, len(grids)*len(job.Schedules)*len(job.Policies))
	for _, cell := range cells {
		if cell.LayerIndex < 0 || cell.LayerIndex >= len(grids) ||
			cell.ScheduleIndex < 0 || cell.ScheduleIndex >= len(job.Schedules) ||
			cell.PolicyIndex < 0 || cell.PolicyIndex >= len(job.Policies) ||
			cell.TilingIndex < 0 || cell.TilingIndex >= len(grids[cell.LayerIndex].Tilings) ||
			math.IsInf(cell.Cost.EDP(tm), 0) || math.IsNaN(cell.Cost.EDP(tm)) {
			return nil, fmt.Errorf("cluster: merge: cell %+v outside the job's grid or not finite", cell)
		}
		perLayer[cell.LayerIndex] = append(perLayer[cell.LayerIndex], cell)
		covered[(cell.LayerIndex*len(job.Schedules)+cell.ScheduleIndex)*len(job.Policies)+cell.PolicyIndex] = true
	}
	if i := slices.Index(covered, false); i >= 0 {
		return nil, fmt.Errorf("cluster: merge: (layer, schedule, policy) cell %d missing from every shard", i)
	}
	res := &core.DSEResult{Backend: job.Backend, Arch: job.Backend.Config.Arch}
	for li, lg := range grids {
		res.Layers = append(res.Layers, core.ReduceCells(lg, job.Schedules, job.Policies, perLayer[li], tm))
	}
	return res, nil
}

// writeJSON writes a JSON response body (the cluster endpoints' shapes
// are small; no indentation).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
