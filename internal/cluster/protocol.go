// Package cluster shards the DRMap design-space exploration across
// processes: a coordinator partitions the (layer, schedule) column
// space of a resolved DSE job into deterministic shards, dispatches
// them over HTTP/JSON to registered workers (placed by the job's
// count-plan signature on a capacity-weighted slot table, so jobs that
// share count plans send each span to the worker holding them and
// bigger pools receive proportionally more shards), retries on worker
// failure, and merges the returned cells through
// core.ReduceCells - so the distributed result is bit-for-bit
// identical to single-host service.ParallelDSE and serial core.RunDSE,
// for any worker count, any shard interleaving, and any duplicate
// delivery. A core.Progress sink on the context observes shard
// completions and merged layers, feeding the v2 job API's streams.
//
// # Topology
//
// One coordinator, N workers. Workers register with the coordinator by
// POSTing /cluster/v1/register periodically; a registration doubles as
// a heartbeat, and a worker whose heartbeat goes stale past the TTL
// drops out of dispatch. A coordinator restart starts with an empty
// membership: jobs fall back to the local pool (service.ErrNoWorkers)
// until the workers' next heartbeat re-registers them - no state to
// recover, no stale assignment to reconcile.
//
// # Shard protocol
//
//	POST {worker}/cluster/v1/shard     ShardRequest  -> ShardResponse
//	POST {coordinator}/cluster/v1/register  RegisterRequest -> RegisterResponse
//	GET  {coordinator}/cluster/v1/workers   -> WorkersResponse
//
// A shard carries the full resolved job (backend config included), so
// workers need no shared registry state; they characterize the backend
// themselves through their content-addressed cache. Cells are
// self-locating (layer/schedule/policy/tiling indices), which makes the
// merge order-independent and idempotent under redelivery. Simulate
// jobs shard over layer indices through the same dispatcher. Shard
// bodies are capped at MaxShardBytes in both directions.
package cluster

import (
	"drmap/internal/core"
	"drmap/internal/obs"
	"drmap/internal/service"
)

// Endpoint paths of the shard protocol.
const (
	PathRegister = "/cluster/v1/register"
	PathShard    = "/cluster/v1/shard"
	PathWorkers  = "/cluster/v1/workers"
)

// MaxShardBytes caps shard request bodies on the worker and shard
// response bodies on the coordinator. Built-in shard messages are tens
// of kilobytes (job JSON, cells or layers, at most
// obs.DefaultSpanBufferCap spans): two orders of magnitude of headroom.
const MaxShardBytes = 1 << 22

// RegisterRequest announces (and re-announces: it is the heartbeat) a
// worker to the coordinator.
type RegisterRequest struct {
	// ID is the worker's stable self-chosen identity.
	ID string `json:"id"`
	// URL is the base URL the coordinator dials for shards.
	URL string `json:"url"`
	// Capacity is the worker's local pool size. It weights the worker's
	// share of the placement slot table: a worker advertising twice the
	// capacity receives twice each job's shards (see
	// Coordinator.pickWorker).
	Capacity int `json:"capacity"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	OK bool `json:"ok"`
	// TTLMillis tells the worker how often it must heartbeat to stay
	// in dispatch (heartbeat well under this, e.g. at TTL/3).
	TTLMillis int64 `json:"ttl_millis"`
}

// ShardRequest asks a worker to evaluate one span of a job's column
// space: a DSE job's (layer, schedule) columns, or - when Sim is set -
// a simulate job's layer indices.
type ShardRequest struct {
	// Job is the fully resolved DSE job; it JSON-round-trips exactly
	// (int enums and float64s re-decode to identical bits). Ignored
	// when Sim is set.
	Job service.DSEJob `json:"job"`
	// Sim, when set, makes this a simulate shard: the worker runs the
	// cycle-accurate engine over Span's layer indices instead of
	// pricing DSE columns. Like Job, it JSON-round-trips exactly, so
	// every worker reproduces each layer's command stream bit-for-bit.
	Sim *service.SimulateJob `json:"sim,omitempty"`
	// Span is the half-open column range to evaluate.
	Span core.ColumnSpan `json:"span"`
	// Shard and Total locate the shard in the job's partition, for logs.
	Shard int `json:"shard"`
	Total int `json:"total"`
}

// ShardResponse returns a shard's cells. Cells are self-locating and
// finite-valued (workers drop infeasible cells, which the reduction
// skips anyway), so responses merge in any order.
type ShardResponse struct {
	WorkerID string            `json:"worker_id"`
	Cells    []core.CellResult `json:"cells"`
	// SimLayers answers a simulate shard (ShardRequest.Sim set): one
	// result per layer in the span, each carrying its global layer
	// index, so the coordinator merges shards by placement.
	SimLayers []core.SimLayerResult `json:"sim_layers,omitempty"`
	// Spans are the worker's own spans for this shard (shard.evaluate
	// plus its count/price children), parented under the coordinator's
	// dispatch span via X-Drmap-Span-Id; the coordinator forwards them
	// into its trace store so GET /api/v1/traces/{id} shows one
	// cross-process tree. Bounded by obs.DefaultSpanBufferCap.
	Spans []obs.Span `json:"spans,omitempty"`
}

// WorkerStatus is one membership entry on GET /cluster/v1/workers.
type WorkerStatus struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Capacity int    `json:"capacity"`
	// Live reports whether the worker is currently eligible for
	// dispatch (heartbeat fresh, not marked dead).
	Live bool `json:"live"`
	// AgeMillis is the time since the last heartbeat.
	AgeMillis int64 `json:"age_millis"`
}

// WorkersResponse lists the coordinator's membership, sorted by ID.
type WorkersResponse struct {
	Workers []WorkerStatus `json:"workers"`
}
