package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"drmap/internal/core"
	"drmap/internal/obs"
	"drmap/internal/service"
)

// DefaultHeartbeatInterval is how often a worker re-registers - one
// third of the default TTL, so two consecutive heartbeats may be lost
// before the coordinator drops the worker.
const DefaultHeartbeatInterval = DefaultHeartbeatTTL / 3

// AdvertiseFor derives a dialable base URL from a listen address when
// the operator gives none: ":8081" is reachable as 127.0.0.1 only when
// coordinator and worker share a host, so cross-host deployments must
// pass an explicit advertise URL.
func AdvertiseFor(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

// WorkerOptions tune a Worker.
type WorkerOptions struct {
	// ID is the worker's stable identity; empty derives one from the
	// hostname and PID.
	ID string
	// AdvertiseURL is the base URL the coordinator dials for shards
	// (e.g. "http://10.0.0.7:8081"). Required to register.
	AdvertiseURL string
	// CoordinatorURL is the coordinator's base URL; empty runs the
	// worker serve-only (something else registers it, e.g. a test).
	CoordinatorURL string
	// HeartbeatInterval is the registration cadence; <= 0 means
	// DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration
	// Client performs registration calls; nil means a 10s-timeout
	// client (heartbeats must fail fast, not hang past the TTL).
	Client *http.Client
	// Logger receives one line per shard served, carrying the trace ID
	// the coordinator stamped on the dispatch; nil discards them.
	Logger *slog.Logger
}

// Worker executes shards on a local Service - through its worker pool,
// its CPU gate, and its content-addressed characterization cache - and
// keeps itself registered with a coordinator via heartbeat. It is safe
// for concurrent use.
type Worker struct {
	svc      *service.Service
	id       string
	opt      WorkerOptions
	client   *http.Client
	shards   *obs.Counter // shards served
	rejected *obs.Counter // shard requests rejected as malformed

	logger       *slog.Logger
	shardSeconds *obs.Histogram  // one observation per shard evaluated
	traceShards  *obs.CounterVec // shards served per trace ID, capped
}

// NewWorker builds a worker around a Service. Its shard counts, timing
// and per-trace counters register on the Service's metrics registry,
// so the worker's GET /metrics page carries them.
func NewWorker(svc *service.Service, opt WorkerOptions) *Worker {
	id := opt.ID
	if id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	if opt.HeartbeatInterval <= 0 {
		opt.HeartbeatInterval = DefaultHeartbeatInterval
	}
	logger := opt.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	reg := svc.Registry()
	return &Worker{svc: svc, id: id, opt: opt, client: client,
		shards: reg.Counter("drmap_worker_shards_served_total",
			"Shard requests this worker evaluated.").With(),
		rejected: reg.Counter("drmap_worker_shards_rejected_total",
			"Shard requests this worker rejected.").With(),
		logger: logger,
		shardSeconds: reg.Histogram("drmap_worker_shard_seconds",
			"Time to evaluate one shard on this worker.", nil).With(),
		traceShards: reg.CappedCounter("drmap_trace_shards_total",
			"Shards served per trace ID (most recent trace IDs only).", 0, "trace_id"),
	}
}

// ID returns the worker's identity.
func (w *Worker) ID() string { return w.id }

// ShardsServed returns how many shards this worker has executed.
func (w *Worker) ShardsServed() int64 { return w.shards.Value() }

// Mount registers the worker's shard endpoint on a mux:
//
//	POST /cluster/v1/shard
func (w *Worker) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathShard, w.handleShard)
}

func (w *Worker) handleShard(rw http.ResponseWriter, r *http.Request) {
	ctx, trace := obs.EnsureTrace(r.Context(), r.Header.Get(obs.TraceHeader))
	rw.Header().Set(obs.TraceHeader, trace)
	var req ShardRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, MaxShardBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		w.rejected.Add(1)
		w.logger.Warn("shard rejected", "trace_id", trace, "err", err)
		writeJSON(rw, status, map[string]string{"error": "bad shard body: " + err.Error()})
		return
	}
	// The shard's spans are recorded twice over: into a bounded buffer
	// returned in the response (the coordinator splices them into its
	// trace tree, parented under its dispatch span via X-Drmap-Span-Id)
	// and into this worker's own trace store for local debugging.
	buf := obs.NewSpanBuffer(0)
	ctx = obs.WithSpanSink(ctx, obs.TeeSpans(buf, w.svc.Spans()))
	ctx = obs.WithSpanProcess(ctx, "worker/"+w.id)
	if parent := r.Header.Get(obs.SpanHeader); parent != "" {
		ctx = obs.WithSpanParent(ctx, parent)
	}
	kind := "dse"
	if req.Sim != nil {
		kind = "simulate"
	}
	ctx, span := obs.StartSpan(ctx, "shard.evaluate",
		obs.Str("worker", w.id), obs.Str("kind", kind),
		obs.Int("shard", req.Shard), obs.Int("of", req.Total),
		obs.Int("span_start", req.Span.Start), obs.Int("span_end", req.Span.End))
	start := time.Now()
	var cells []core.CellResult
	var simLayers []core.SimLayerResult
	var err error
	if req.Sim != nil {
		simLayers, err = w.svc.EvaluateSimShard(ctx, *req.Sim, req.Span)
	} else {
		cells, err = w.svc.EvaluateShard(ctx, req.Job, req.Span)
	}
	if err != nil {
		span.Fail(err)
		span.End()
		w.rejected.Add(1)
		w.logger.Warn("shard rejected", "trace_id", trace, "shard", req.Shard, "of", req.Total, "err", err)
		writeJSON(rw, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	span.SetAttr(obs.Int("cells", len(cells)+len(simLayers)))
	span.End()
	dur := time.Since(start)
	w.shards.Add(1)
	w.shardSeconds.Observe(dur.Seconds())
	w.traceShards.With(trace).Inc()
	w.logger.Info("shard served",
		"trace_id", trace, "kind", kind, "shard", req.Shard, "of", req.Total,
		"columns", req.Span.Len(), "cells", len(cells)+len(simLayers), "duration_ms", dur.Milliseconds())
	writeJSON(rw, http.StatusOK, ShardResponse{WorkerID: w.id, Cells: cells, SimLayers: simLayers, Spans: buf.Spans()})
}

// Register performs one registration/heartbeat round trip.
func (w *Worker) Register(ctx context.Context) error {
	if w.opt.CoordinatorURL == "" {
		return fmt.Errorf("cluster: worker %s has no coordinator URL", w.id)
	}
	if w.opt.AdvertiseURL == "" {
		return fmt.Errorf("cluster: worker %s has no advertise URL", w.id)
	}
	body, err := json.Marshal(RegisterRequest{ID: w.id, URL: w.opt.AdvertiseURL, Capacity: w.svc.Workers()})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opt.CoordinatorURL+PathRegister, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: register %s: %w", w.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("cluster: register %s: coordinator returned %s: %s", w.id, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// Run keeps the worker registered until ctx is canceled: one immediate
// registration, then a heartbeat every interval. Heartbeat failures are
// retried at the same cadence (the coordinator may be restarting; the
// worker re-registers as soon as it is back), reported through onError
// when set.
func (w *Worker) Run(ctx context.Context, onError func(error)) error {
	if err := w.Register(ctx); err != nil && onError != nil {
		onError(err)
	}
	t := time.NewTicker(w.opt.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			if err := w.Register(ctx); err != nil && onError != nil {
				onError(err)
			}
		}
	}
}
