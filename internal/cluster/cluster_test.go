package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/profile"
	"drmap/internal/service"
	"drmap/internal/tiling"
)

// serialDSE runs the reference serial scan for a backend.
func serialDSE(t *testing.T, backendID string, net cnn.Network) *core.DSEResult {
	t.Helper()
	return serialDSEObjective(t, backendID, net, core.MinimizeEDP)
}

// serialDSEObjective runs the reference serial scan for a backend
// under an objective.
func serialDSEObjective(t *testing.T, backendID string, net cnn.Network, obj core.Objective) *core.DSEResult {
	t.Helper()
	b, ok := dram.Lookup(backendID)
	if !ok {
		t.Fatalf("backend %q not registered", backendID)
	}
	p, err := profile.CharacterizeBackend(b)
	if err != nil {
		t.Fatalf("characterize %s: %v", backendID, err)
	}
	ev, err := core.NewEvaluator(p, accel.TableII(), 1)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	res, err := core.RunDSEObjective(net, ev, tiling.Schedules, mapping.TableI(), obj)
	if err != nil {
		t.Fatalf("serial RunDSEObjective: %v", err)
	}
	return res
}

// gridOf enumerates a job's grid, which the owning service hands the
// coordinator from its grid cache.
func gridOf(t *testing.T, job service.DSEJob) []core.LayerGrid {
	t.Helper()
	grids, err := job.Grid()
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return grids
}

// jobFor builds the resolved DSEJob the service would cut for a plain
// {"arch": id, "network": ...} request.
func jobFor(t *testing.T, backendID string, net cnn.Network) service.DSEJob {
	t.Helper()
	b, ok := dram.Lookup(backendID)
	if !ok {
		t.Fatalf("backend %q not registered", backendID)
	}
	return service.DSEJob{
		Backend: b, Accel: accel.TableII(), Network: net,
		Schedules: tiling.Schedules, Policies: mapping.TableI(),
		Objective: core.MinimizeEDP, Batch: 1,
	}
}

// testWorker is one in-process worker: its own Service (own pool, own
// caches - nothing shared with the coordinator or its peers) behind an
// httptest server, with an optional request interceptor for failure
// injection.
type testWorker struct {
	worker *Worker
	server *httptest.Server
	// fail, when set, is consulted per shard request (after n requests
	// have been counted); returning true makes the server kill the
	// connection mid-request, like a process dying mid-shard.
	fail func(reqNum int64) bool
	reqs atomic.Int64
}

func newTestWorker(t *testing.T, id string, fail func(reqNum int64) bool) *testWorker {
	tw, _ := newTestWorkerModes(t, id, fail, nil)
	return tw
}

// newFrozenWorker builds a worker whose matching requests freeze - the
// handler blocks without reading or writing, like a deadlocked process
// whose kernel still ACKs. The returned unfreeze func releases the
// stuck handlers so the httptest server can close; call it (deferred)
// before the test ends.
func newFrozenWorker(t *testing.T, id string, freeze func(reqNum int64) bool) (*testWorker, func()) {
	return newTestWorkerModes(t, id, nil, freeze)
}

func newTestWorkerModes(t *testing.T, id string, fail, freeze func(reqNum int64) bool) (*testWorker, func()) {
	t.Helper()
	svc := service.New(service.Options{Workers: 2, CacheEntries: 32})
	tw := &testWorker{fail: fail}
	tw.worker = NewWorker(svc, WorkerOptions{ID: id})
	mux := http.NewServeMux()
	tw.worker.Mount(mux)
	unfreeze := make(chan struct{})
	tw.server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := tw.reqs.Add(1)
		if freeze != nil && freeze(n) {
			// Freeze mid-request. The request context alone is not
			// enough to get unstuck: with an unread body the server
			// never notices the client hanging up, which is exactly
			// the failure mode the coordinator's shard timeout covers.
			select {
			case <-r.Context().Done():
			case <-unfreeze:
			}
			return
		}
		if tw.fail != nil && tw.fail(n) {
			// Die mid-request: hijack the connection and slam it shut,
			// exactly what a killed worker process looks like.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("test server does not support hijacking")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
			return
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(tw.server.Close)
	var once sync.Once
	return tw, func() { once.Do(func() { close(unfreeze) }) }
}

// register adds the worker to a coordinator's membership directly (the
// HTTP registration path is exercised by the end-to-end test).
func (tw *testWorker) register(c *Coordinator) {
	c.Membership().Heartbeat(WorkerInfo{ID: tw.worker.ID(), URL: tw.server.URL, Capacity: 2})
}

// kindCase is one sharded job kind as the shared-dispatcher tests drive
// it: run submits the kind's job to a coordinator, want computes the
// single-process reference result it must merge to.
type kindCase struct {
	kind string
	run  func(ctx context.Context, c *Coordinator) (any, error)
	want func(t *testing.T) any
}

// kindCases returns one LeNet-5 case per sharded job kind on a backend,
// so a dispatcher test covers DSE and simulate as two table rows.
func kindCases(t *testing.T, backendID string) []kindCase {
	t.Helper()
	net := cnn.LeNet5()
	dse := jobFor(t, backendID, net)
	grids := gridOf(t, dse)
	sim := simJobFor(t, backendID, net, true)
	return []kindCase{
		{"dse",
			func(ctx context.Context, c *Coordinator) (any, error) { return c.RunDSE(ctx, dse, grids) },
			func(t *testing.T) any { return serialDSE(t, backendID, net) }},
		{"simulate",
			func(ctx context.Context, c *Coordinator) (any, error) { return c.RunSimulate(ctx, sim) },
			func(t *testing.T) any { return localSim(t, sim) }},
	}
}

// goroutineBaseline records the live goroutine count and returns a
// check that fails the test unless the count falls back to it: every
// fan-out, cache-wait and retry goroutine the coordinator started must
// exit. Idle keep-alive connections are closed first, since their
// reader/writer goroutines outlive a job by design.
func goroutineBaseline(t *testing.T, c *Coordinator) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			c.client.CloseIdleConnections()
			n := runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines still running, %d before the job:\n%s", n, base, buf[:runtime.Stack(buf, true)])
				return
			}
		}
	}
}

// TestDistributedDSEMatchesSerialAllPaperBackends is the tentpole
// acceptance contract: coordinator + 2 workers, AlexNet, all four paper
// backends - the merged distributed result is bit-for-bit identical to
// serial RunDSE (reflect.DeepEqual compares every float64 exactly).
func TestDistributedDSEMatchesSerialAllPaperBackends(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	w1 := newTestWorker(t, "w1", nil)
	w2 := newTestWorker(t, "w2", nil)
	w1.register(coord)
	w2.register(coord)
	net := cnn.AlexNet()
	for _, id := range []string{"ddr3", "salp1", "salp2", "masa"} {
		serial := serialDSE(t, id, net)
		job := jobFor(t, id, net)
		dist, err := coord.RunDSE(context.Background(), job, gridOf(t, job))
		if err != nil {
			t.Fatalf("%s: distributed RunDSE: %v", id, err)
		}
		if !reflect.DeepEqual(serial, dist) {
			t.Errorf("%s: distributed DSE diverged from serial\nserial: %+v\ndistributed: %+v", id, serial, dist)
		}
	}
	if w1.worker.ShardsServed() == 0 || w2.worker.ShardsServed() == 0 {
		t.Errorf("dispatch did not use both workers (w1=%d, w2=%d shards)",
			w1.worker.ShardsServed(), w2.worker.ShardsServed())
	}
}

// TestDistributedDSESurvivesWorkerDeathMidRun kills one of two workers
// mid-run (its connections start dropping after it has served one
// shard) and requires the retried, re-sharded result to still be
// bit-for-bit identical to serial RunDSE.
func TestDistributedDSESurvivesWorkerDeathMidRun(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	healthy := newTestWorker(t, "healthy", nil)
	dying := newTestWorker(t, "dying", func(n int64) bool { return n > 1 })
	healthy.register(coord)
	dying.register(coord)

	net := cnn.AlexNet()
	serial := serialDSE(t, "ddr3", net)
	job := jobFor(t, "ddr3", net)
	checkLeaks := goroutineBaseline(t, coord)
	dist, err := coord.RunDSE(context.Background(), job, gridOf(t, job))
	if err != nil {
		t.Fatalf("distributed RunDSE with dying worker: %v", err)
	}
	checkLeaks()
	if !reflect.DeepEqual(serial, dist) {
		t.Error("distributed DSE diverged from serial after worker death")
	}
	if coord.retries.Value() == 0 {
		t.Error("expected shard retries after the worker died mid-run")
	}
	if len(coord.Membership().Live()) != 1 {
		t.Errorf("dead worker still listed live: %v", coord.Membership().Live())
	}
}

// TestDistributedDSEAllWorkersDeadFailsOver: when every worker dies
// mid-run, the job surfaces service.ErrNoWorkers so the owning service
// falls back to its local pool instead of failing the request.
func TestDistributedDSEAllWorkersDeadFailsOver(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	dead := newTestWorker(t, "dead", func(int64) bool { return true })
	dead.register(coord)
	job := jobFor(t, "ddr3", cnn.LeNet5())
	_, err := coord.RunDSE(context.Background(), job, gridOf(t, job))
	if !errors.Is(err, service.ErrNoWorkers) {
		t.Fatalf("got %v, want an error wrapping service.ErrNoWorkers", err)
	}
}

// TestDuplicateShardDelivery: merging the same cells twice (a shard
// delivered to two workers, or re-delivered after a retry raced a slow
// success) reduces to the identical result - the serial tie-break can
// never prefer a duplicate over the original.
func TestDuplicateShardDelivery(t *testing.T) {
	svc := service.New(service.Options{Workers: 2, CacheEntries: 8})
	job := jobFor(t, "salp2", cnn.LeNet5())
	grids, err := job.Grid()
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	spans := core.ColumnShards(job.Columns(grids), 5)
	var cells []core.CellResult
	for _, span := range spans {
		cs, err := svc.EvaluateShard(context.Background(), job, span)
		if err != nil {
			t.Fatalf("shard %+v: %v", span, err)
		}
		cells = append(cells, cs...)
	}
	serial := serialDSE(t, "salp2", cnn.LeNet5())

	once, err := Merge(job, grids, cells)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !reflect.DeepEqual(serial, once) {
		t.Error("sharded merge diverged from serial")
	}

	duplicated := append(append([]core.CellResult{}, cells...), cells...)
	twice, err := Merge(job, grids, duplicated)
	if err != nil {
		t.Fatalf("merge duplicated: %v", err)
	}
	if !reflect.DeepEqual(serial, twice) {
		t.Error("duplicate shard delivery changed the merged result")
	}
}

// TestMergeRejectsForeignCells: cells outside the job's grid (a worker
// answering for a different job), cells with a non-finite EDP, and a
// grid cell no shard delivered fail the merge instead of silently
// corrupting the reduction.
func TestMergeRejectsForeignCells(t *testing.T) {
	job := jobFor(t, "ddr3", cnn.LeNet5())
	grids, err := job.Grid()
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Options{Workers: 2, CacheEntries: 8})
	cells, err := svc.EvaluateShard(context.Background(), job, core.ColumnSpan{Start: 0, End: job.Columns(grids)})
	if err != nil {
		t.Fatalf("EvaluateShard: %v", err)
	}
	if _, err := Merge(job, grids, cells); err != nil {
		t.Fatalf("well-formed merge rejected: %v", err)
	}
	for _, bad := range []core.CellResult{
		{LayerIndex: len(grids), Value: 1},
		{ScheduleIndex: len(job.Schedules), Value: 1},
		{PolicyIndex: -1, Value: 1},
		{TilingIndex: 1 << 30, Value: 1},
		{Cost: core.LayerEDP{Cycles: 1e300, Energy: 1e300}, Value: 1},
	} {
		if _, err := Merge(job, grids, append(cells[:len(cells):len(cells)], bad)); err == nil {
			t.Errorf("merge accepted foreign cell %+v", bad)
		}
	}
	if _, err := Merge(job, grids, cells[1:]); err == nil {
		t.Error("merge accepted a grid with a cell missing from every shard")
	}
}

// TestCoordinatorStaleHeartbeats pins the membership TTL contract: a
// worker that stops heartbeating drops out of dispatch, and a fresh
// heartbeat brings it back.
func TestCoordinatorStaleHeartbeats(t *testing.T) {
	clock := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }

	coord := NewCoordinator(CoordinatorOptions{HeartbeatTTL: 10 * time.Second, Now: now})
	w := newTestWorker(t, "w", nil)
	w.register(coord)
	if got := len(coord.Membership().Live()); got != 1 {
		t.Fatalf("live workers = %d, want 1", got)
	}

	advance(11 * time.Second)
	if got := len(coord.Membership().Live()); got != 0 {
		t.Fatalf("stale worker still live after TTL: %d", got)
	}
	job := jobFor(t, "ddr3", cnn.LeNet5())
	if _, err := coord.RunDSE(context.Background(), job, gridOf(t, job)); !errors.Is(err, service.ErrNoWorkers) {
		t.Fatalf("RunDSE with only stale workers: got %v, want ErrNoWorkers", err)
	}

	w.register(coord) // the worker's next heartbeat revives it
	serial := serialDSE(t, "ddr3", cnn.LeNet5())
	dist, err := coord.RunDSE(context.Background(), job, gridOf(t, job))
	if err != nil {
		t.Fatalf("RunDSE after re-heartbeat: %v", err)
	}
	if !reflect.DeepEqual(serial, dist) {
		t.Error("post-revival distributed DSE diverged from serial")
	}
}

// TestCoordinatorRestartFallsBackLocally models a coordinator restart:
// the replacement starts with an empty membership (there is no
// persistent assignment state to recover), so a service wired to it
// serves DSE from the local pool - with results identical to serial -
// until workers re-register, after which jobs distribute again.
func TestCoordinatorRestartFallsBackLocally(t *testing.T) {
	restarted := NewCoordinator(CoordinatorOptions{})
	svc := service.New(service.Options{Workers: 2, CacheEntries: 8, Runner: restarted})

	serial := serialDSE(t, "masa", cnn.LeNet5())
	resp, err := svc.DSE(context.Background(), service.DSERequest{Arch: "masa", Network: "lenet5"})
	if err != nil {
		t.Fatalf("DSE during coordinator restart window: %v", err)
	}
	if resp.Result.TotalEDPJs != serial.TotalEDP() {
		t.Errorf("local fallback TotalEDP %g, want %g", resp.Result.TotalEDPJs, serial.TotalEDP())
	}
	if restarted.completed.Value() != 0 {
		t.Error("no workers are registered; nothing should have been dispatched")
	}

	// A worker heartbeats in; the next (distinct) job distributes.
	w := newTestWorker(t, "w", nil)
	w.register(restarted)
	if _, err := svc.DSE(context.Background(), service.DSERequest{Arch: "salp1", Network: "lenet5"}); err != nil {
		t.Fatalf("DSE after worker re-registered: %v", err)
	}
	if restarted.completed.Value() == 0 {
		t.Error("worker re-registered but no shards were dispatched")
	}
}

// TestClusterEndToEnd boots the full HTTP topology - a coordinator
// daemon (service handler + cluster endpoints + distributed runner) and
// two worker daemons registering over HTTP - and drives it through
// POST /api/v1/batch: >= 4 (backend, network) jobs in one request,
// distributed across both workers, results identical to serial, with
// cache sharing visible in the hit counters on a repeat. This is the
// test the CI cluster job runs under the race detector.
func TestClusterEndToEnd(t *testing.T) {
	svc := service.New(service.Options{Workers: 4, CacheEntries: 64})
	coord := NewCoordinator(CoordinatorOptions{Registry: svc.Registry()})
	svc.SetRunner(coord)
	mux := service.NewHandler(svc, 2*time.Minute)
	coord.Mount(mux)
	coordSrv := httptest.NewServer(mux)
	t.Cleanup(coordSrv.Close)

	// Two workers register through the real HTTP registration path.
	for _, id := range []string{"w1", "w2"} {
		tw := newTestWorker(t, id, nil)
		tw.worker.opt.CoordinatorURL = coordSrv.URL
		tw.worker.opt.AdvertiseURL = tw.server.URL
		if err := tw.worker.Register(context.Background()); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	if live := coord.Membership().Live(); len(live) != 2 {
		t.Fatalf("live workers = %d, want 2", len(live))
	}

	jobs := []struct{ arch, network string }{
		{"ddr3", "lenet5"}, {"salp1", "lenet5"}, {"masa", "lenet5"}, {"ddr4", "lenet5"},
	}
	var body strings.Builder
	body.WriteString(`{"jobs":[`)
	for i, j := range jobs {
		if i > 0 {
			body.WriteString(",")
		}
		fmt.Fprintf(&body, `{"arch":%q,"network":%q}`, j.arch, j.network)
	}
	body.WriteString(`]}`)

	post := func() service.BatchResponse {
		resp, err := http.Post(coordSrv.URL+"/api/v1/batch", "application/json", strings.NewReader(body.String()))
		if err != nil {
			t.Fatalf("POST /api/v1/batch: %v", err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
		}
		var br service.BatchResponse
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
		return br
	}

	first := post()
	if first.Completed != len(jobs) || first.Failed != 0 {
		t.Fatalf("batch completed=%d failed=%d, want %d/0: %+v", first.Completed, first.Failed, len(jobs), first.Results)
	}
	for i, item := range first.Results {
		serial := serialDSE(t, jobs[i].arch, cnn.LeNet5())
		if item.Result == nil {
			t.Fatalf("job %d has no result", i)
		}
		if got, want := item.Result.Result.TotalEDPJs, serial.TotalEDP(); got != want {
			t.Errorf("job %d (%s): distributed TotalEDP %g, want serial %g", i, jobs[i].arch, got, want)
		}
	}
	if coord.completed.Value() == 0 {
		t.Error("batch did not dispatch any shards to the cluster")
	}

	// The same batch again: every job is a cache hit, shared across the
	// batch entry point - verified by the hit counters - and no shard is
	// dispatched again.
	before := svc.CacheStats()
	dispatched := coord.completed.Value()
	second := post()
	for i, item := range second.Results {
		if item.Result == nil || !item.Result.Cached {
			t.Errorf("repeat batch job %d not served from cache", i)
		}
	}
	after := svc.CacheStats()
	if after.Hits < before.Hits+int64(len(jobs)) {
		t.Errorf("cache hits went %d -> %d, want >= %d", before.Hits, after.Hits, before.Hits+int64(len(jobs)))
	}
	if again := coord.completed.Value(); again != dispatched {
		t.Errorf("repeat batch dispatched shards: completed %v -> %v", dispatched, again)
	}

	// The metrics endpoint exposes the cluster gauges.
	mresp, err := http.Get(coordSrv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"drmap_evaluations_total", "drmap_cache_hits_total", "drmap_cluster_workers 2", "drmap_cluster_inflight_shards"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics output missing %q:\n%s", want, metrics)
		}
	}

	// The membership listing answers over HTTP too.
	wresp, err := http.Get(coordSrv.URL + PathWorkers)
	if err != nil {
		t.Fatalf("GET %s: %v", PathWorkers, err)
	}
	defer wresp.Body.Close()
	var wl WorkersResponse
	if err := json.NewDecoder(wresp.Body).Decode(&wl); err != nil {
		t.Fatalf("decode workers: %v", err)
	}
	if len(wl.Workers) != 2 || !wl.Workers[0].Live || !wl.Workers[1].Live {
		t.Errorf("workers listing %+v, want 2 live workers", wl.Workers)
	}
}

// TestShardRequestRoundTripsExactly pins the wire-format contract the
// bit-for-bit guarantee rests on: a ShardRequest (job included) and a
// ShardResponse survive JSON encode/decode unchanged - float64 costs,
// int enums, policy orders and all.
func TestShardRequestRoundTripsExactly(t *testing.T) {
	job := jobFor(t, "hbm2", cnn.LeNet5())
	req := ShardRequest{Job: job, Span: core.ColumnSpan{Start: 3, End: 9}, Shard: 1, Total: 4}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back ShardRequest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Errorf("ShardRequest did not round-trip:\nsent: %+v\ngot:  %+v", req, back)
	}

	svc := service.New(service.Options{Workers: 2, CacheEntries: 8})
	cells, err := svc.EvaluateShard(context.Background(), job, core.ColumnSpan{Start: 0, End: 4})
	if err != nil {
		t.Fatalf("EvaluateShard: %v", err)
	}
	resp := ShardResponse{WorkerID: "w", Cells: cells}
	rb, err := json.Marshal(resp)
	if err != nil {
		t.Fatalf("marshal response: %v", err)
	}
	var rback ShardResponse
	if err := json.Unmarshal(rb, &rback); err != nil {
		t.Fatalf("unmarshal response: %v", err)
	}
	if !reflect.DeepEqual(resp, rback) {
		t.Error("ShardResponse did not round-trip bit-for-bit")
	}
}

// TestFrozenWorkerTimesOutAndRetries: a worker that freezes mid-shard
// (accepts the request, never answers - TCP stays healthy) is cut off
// by the shard timeout and its shards retry on the survivor, keeping
// either kind's result bit-for-bit equal to the single-process run
// instead of hanging the job
// (and its single-flight cache entry) forever.
func TestFrozenWorkerTimesOutAndRetries(t *testing.T) {
	for _, kc := range kindCases(t, "ddr3") {
		t.Run(kc.kind, func(t *testing.T) {
			// The timeout must be long enough that a healthy worker's
			// LeNet5 shard (milliseconds) never trips it even on a loaded
			// -race CI box, and short enough to keep the test brisk.
			coord := NewCoordinator(CoordinatorOptions{ShardTimeout: 2 * time.Second})
			healthy := newTestWorker(t, "healthy", nil)
			frozen, unfreeze := newFrozenWorker(t, "frozen", func(int64) bool { return true })
			defer unfreeze()
			healthy.register(coord)
			frozen.register(coord)

			want := kc.want(t)
			start := time.Now()
			dist, err := kc.run(context.Background(), coord)
			if err != nil {
				t.Fatalf("%s with frozen worker: %v", kc.kind, err)
			}
			if !reflect.DeepEqual(want, dist) {
				t.Errorf("distributed %s diverged from the single-process run after worker froze", kc.kind)
			}
			if coord.retries.Value() == 0 {
				t.Error("expected retries after shard timeouts")
			}
			if elapsed := time.Since(start); elapsed > 30*time.Second {
				t.Errorf("job took %s; the frozen worker was not timed out", elapsed)
			}
		})
	}
}

// TestAttemptExhaustionFailsOver: when every attempt burns a worker
// that keeps failing (heartbeats racing the dead-marks keep them
// nominally live), the shard error still wraps service.ErrNoWorkers so
// the owning service falls back to its local pool rather than 500ing.
func TestAttemptExhaustionFailsOver(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{MaxAttempts: 2})
	bad1 := newTestWorker(t, "bad1", func(int64) bool { return true })
	bad2 := newTestWorker(t, "bad2", func(int64) bool { return true })
	bad1.register(coord)
	bad2.register(coord)
	job := jobFor(t, "ddr3", cnn.LeNet5())
	_, err := coord.RunDSE(context.Background(), job, gridOf(t, job))
	if !errors.Is(err, service.ErrNoWorkers) {
		t.Fatalf("got %v, want an error wrapping service.ErrNoWorkers", err)
	}

	// The same topology behind a service: requests are served locally.
	svc := service.New(service.Options{Workers: 2, CacheEntries: 8, Runner: coord})
	bad1.register(coord) // revive for another round of failures
	bad2.register(coord)
	resp, err := svc.DSE(context.Background(), service.DSERequest{Arch: "ddr3", Network: "lenet5"})
	if err != nil {
		t.Fatalf("DSE with only failing workers: %v", err)
	}
	serial := serialDSE(t, "ddr3", cnn.LeNet5())
	if resp.Result.TotalEDPJs != serial.TotalEDP() {
		t.Errorf("local fallback TotalEDP %g, want %g", resp.Result.TotalEDPJs, serial.TotalEDP())
	}
}

// TestRepeatedDistributedDSERepricesOnWorkers: the second distributed
// run of a job reprices the workers' cached vectorized count plans
// (plan-cache hits, no new misses) and both runs stay bit-for-bit
// identical to serial RunDSE - the warm path through the full
// coordinator -> shard -> merge stack. The CI cluster job runs this
// under the race detector.
func TestRepeatedDistributedDSERepricesOnWorkers(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	// Build the worker by hand to keep its Service (and plan-cache
	// counters) in reach.
	svc := service.New(service.Options{Workers: 2, CacheEntries: 32})
	w := NewWorker(svc, WorkerOptions{ID: "w"})
	mux := http.NewServeMux()
	w.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	coord.Membership().Heartbeat(WorkerInfo{ID: "w", URL: srv.URL, Capacity: 2})

	net := cnn.LeNet5()
	serial := serialDSE(t, "salp2", net)
	job := jobFor(t, "salp2", net)
	first, err := coord.RunDSE(context.Background(), job, gridOf(t, job))
	if err != nil {
		t.Fatalf("first distributed RunDSE: %v", err)
	}
	cold := svc.PlanCacheStats()
	if cold.Misses == 0 {
		t.Fatal("first run did not populate the worker's plan cache")
	}

	second, err := coord.RunDSE(context.Background(), job, gridOf(t, job))
	if err != nil {
		t.Fatalf("second distributed RunDSE: %v", err)
	}
	warm := svc.PlanCacheStats()
	if warm.Misses != cold.Misses {
		t.Errorf("second run recounted on the worker: misses %d -> %d", cold.Misses, warm.Misses)
	}
	if warm.Hits <= cold.Hits {
		t.Errorf("second run did not reprice the worker's plans: hits %d -> %d", cold.Hits, warm.Hits)
	}
	for name, got := range map[string]*core.DSEResult{"cold": first, "warm": second} {
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("%s distributed DSE diverged from serial", name)
		}
	}
}
