package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"drmap/internal/core"
	"drmap/internal/obs"
	"drmap/internal/service"
)

// shardJob is all one sharded job kind hands the span dispatcher; the
// fan-out, retry, progress and telemetry are shared. E is the element
// a shard response carries for the kind, R its result.
type shardJob[E, R any] struct {
	// kind names the job kind ("dse", "simulate") on spans, log lines
	// and errors.
	kind string
	// placement keys where the spans run (see pickWorker): jobs with
	// one key send span i to the same worker.
	placement string
	// units sizes the shardable index space: DSE columns, sim layers.
	units int
	// request builds the wire request for one span.
	request func(span core.ColumnSpan, shard, total int) ShardRequest
	// payload extracts the kind's results from a shard response.
	payload func(ShardResponse) []E
	// merge folds the spans' payloads, in span order, into the result.
	merge func(shards [][]E) (R, error)
}

// runShards distributes one job across the live workers: it cuts the
// job's index space into ShardsPerWorker spans per worker, places them
// by the job's placement key (see pickWorker), dispatches every span
// concurrently (see dispatchRemote) and merges the payloads.
// With no live workers it returns an error wrapping
// service.ErrNoWorkers, which the owning Service answers from its local
// pool - a cluster degrades to standalone rather than failing.
//
// A progress sink on ctx receives the unit total up front and one
// ColumnsDone per resolved span. A failed dispatch withdraws both: the
// owning service's local fallback announces the same units again, and
// an accumulating sink would otherwise double-count the job.
func runShards[E, R any](ctx context.Context, c *Coordinator, sj shardJob[E, R]) (res R, err error) {
	workers := len(c.members.Live())
	if workers == 0 {
		return res, fmt.Errorf("cluster: %w", service.ErrNoWorkers)
	}
	prog := core.ProgressFrom(ctx)
	if prog != nil {
		prog.StartColumns(sj.units)
	}
	spans := core.ColumnShards(sj.units, workers*c.shardsPerWorker)
	start := time.Now()
	shards, done, err := fanOut(ctx, c, sj, placementBase(sj.placement), spans)
	if err != nil {
		if prog != nil {
			prog.ColumnsDone(-done)
			prog.StartColumns(-sj.units)
		}
		c.logger.Warn("cluster dispatch failed",
			"trace_id", obs.TraceFrom(ctx), "kind", sj.kind, "shards", len(spans), "err", err)
		return res, err
	}
	mergeStart := time.Now()
	res, err = sj.merge(shards)
	mergeDur := time.Since(mergeStart)
	c.mergeSeconds.Observe(mergeDur.Seconds())
	if rec := core.PhasesFrom(ctx); rec != nil {
		rec.RecordPhase(core.PhaseShardMerge, mergeDur)
	}
	cells := 0
	for _, s := range shards {
		cells += len(s)
	}
	obs.RecordSpan(ctx, "shard.merge", mergeStart, mergeStart.Add(mergeDur),
		obs.Str("kind", sj.kind), obs.Int("shards", len(spans)), obs.Int("cells", cells))
	if err != nil {
		return res, err
	}
	c.logger.Info("cluster job merged",
		"trace_id", obs.TraceFrom(ctx), "kind", sj.kind, "columns", sj.units, "shards", len(spans),
		"workers", workers, "duration_ms", time.Since(start).Milliseconds())
	return res, nil
}

// fanOut dispatches every span concurrently and returns their payloads in
// span order, plus how many units it reported done to the progress sink
// (so a failing caller can withdraw them). base is the job's placement
// hash. The first failure cancels the remaining spans.
func fanOut[E, R any](ctx context.Context, c *Coordinator, sj shardJob[E, R], base uint64, spans []core.ColumnSpan) ([][]E, int, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	prog := core.ProgressFrom(ctx)
	results := make([][]E, len(spans))
	var done atomic.Int64
	var wg sync.WaitGroup
	var failOnce sync.Once
	var firstErr error
	for i, span := range spans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr, err := c.dispatchRemote(ctx, sj.kind, base, sj.request(span, i, len(spans)))
			if err != nil {
				failOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
			results[i] = sj.payload(sr)
			done.Add(int64(span.Len()))
			if prog != nil {
				prog.ColumnsDone(span.Len())
			}
		}()
	}
	wg.Wait()
	return results, int(done.Load()), firstErr
}

// dispatchRemote sends one shard to the live worker its placement
// (base, req.Shard) picks, retrying one slot on when a dispatch fails
// or times out (the failed worker is marked dead until its next
// heartbeat, so the rebuilt slot table no longer holds it). Running out of live workers or
// attempts surfaces as service.ErrNoWorkers so the job as a whole fails
// over to the owning service's local pool. The worker's spans are
// forwarded into ctx's trace and stripped from the response.
func (c *Coordinator) dispatchRemote(ctx context.Context, kind string, base uint64, req ShardRequest) (ShardResponse, error) {
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	shard := fmt.Sprintf("cluster: %s shard %d/%d", kind, req.Shard, req.Total)
	var lastErr error
	for attempt := 1; attempt <= c.maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return ShardResponse{}, fmt.Errorf("%s canceled: %w", shard, err)
		}
		w, ok := c.pickWorker(base, req.Shard, attempt-1)
		if !ok {
			if lastErr != nil {
				return ShardResponse{}, fmt.Errorf("%s: every live worker failed (last: %v): %w", shard, lastErr, service.ErrNoWorkers)
			}
			return ShardResponse{}, fmt.Errorf("%s: %w", shard, service.ErrNoWorkers)
		}
		start := time.Now()
		// One dispatch span per attempt: a failed attempt records as a
		// failed span, and the worker's returned spans splice in under
		// the successful one.
		sctx, dspan := obs.StartSpan(ctx, "shard.dispatch",
			obs.Str("kind", kind), obs.Str("worker", w.ID),
			obs.Int("shard", req.Shard), obs.Int("of", req.Total),
			obs.Int("span_start", req.Span.Start), obs.Int("span_end", req.Span.End),
			obs.Int("attempt", attempt))
		sr, err := c.postShard(sctx, w, req)
		if err == nil {
			dspan.End()
			obs.ForwardSpans(ctx, sr.Spans)
			sr.Spans = nil
			dur := time.Since(start)
			c.dispatchSeconds.Observe(dur.Seconds())
			if rec := core.PhasesFrom(ctx); rec != nil {
				rec.RecordPhase(core.PhaseShardDispatch, dur)
			}
			c.completed.Add(1)
			return sr, nil
		}
		dspan.Fail(err)
		dspan.End()
		if ctx.Err() != nil {
			// The caller gave up; the worker is not at fault.
			return ShardResponse{}, fmt.Errorf("%s canceled: %w", shard, ctx.Err())
		}
		lastErr = fmt.Errorf("worker %s: %w", w.ID, err)
		c.members.MarkDead(w.ID)
		c.retries.Add(1)
		c.logger.Warn("shard dispatch retrying",
			"trace_id", obs.TraceFrom(ctx), "kind", kind, "shard", req.Shard, "of", req.Total,
			"worker", w.ID, "attempt", attempt, "err", err)
	}
	return ShardResponse{}, fmt.Errorf("%s failed after %d attempts (last: %v): %w", shard, c.maxAttempts, lastErr, service.ErrNoWorkers)
}

// postShard performs one shard HTTP round trip, bounded by the shard
// timeout so a frozen worker surfaces as a retryable failure, and by
// MaxShardBytes so an oversized reply does too.
func (c *Coordinator) postShard(ctx context.Context, w WorkerInfo, req ShardRequest) (ShardResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, c.shardTimeout)
	defer cancel()
	body, err := json.Marshal(req)
	if err != nil {
		return ShardResponse{}, fmt.Errorf("encode shard: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.URL+PathShard, bytes.NewReader(body))
	if err != nil {
		return ShardResponse{}, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if trace := obs.TraceFrom(ctx); trace != "" {
		// The shard inherits the job's trace ID, so one batch run is one
		// trace across coordinator and worker logs and metrics.
		httpReq.Header.Set(obs.TraceHeader, trace)
	}
	if span := obs.SpanIDFrom(ctx); span != "" {
		// The dispatch span's ID rides along so the worker's spans
		// parent under it in the assembled tree.
		httpReq.Header.Set(obs.SpanHeader, span)
	}
	resp, err := c.client.Do(httpReq)
	if err != nil {
		return ShardResponse{}, err
	}
	defer func() {
		// Drain whatever the decoder left unread: a body closed short
		// of EOF takes its connection down with it, and the next shard
		// to this worker would dial again.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, MaxShardBytes))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return ShardResponse{}, fmt.Errorf("shard endpoint returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var sr ShardResponse
	if err := json.NewDecoder(http.MaxBytesReader(nil, resp.Body, MaxShardBytes)).Decode(&sr); err != nil {
		return ShardResponse{}, fmt.Errorf("decode shard response (limit %d bytes): %w", MaxShardBytes, err)
	}
	return sr, nil
}
