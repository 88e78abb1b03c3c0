package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"drmap/internal/obs"
	"drmap/internal/service"
)

// syncBuf is a concurrency-safe log sink: slog handlers write from the
// HTTP handler goroutines, assertions read from the test goroutine.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestTracePropagatesCoordinatorToWorker is the telemetry acceptance
// contract: one async DSE job submitted with a caller-chosen trace ID
// runs through coordinator shard dispatch to a worker process, and that
// single ID is then visible in (1) the job status view, (2) the event
// stream's terminal timings event, (3) the worker's structured shard
// log, and (4) both processes' Prometheus metrics. Runs under -race in
// the CI cluster job.
func TestTracePropagatesCoordinatorToWorker(t *testing.T) {
	const trace = "deadbeefcafe0042"

	// Coordinator process: service + job manager + cluster runner on one
	// registry, behind the real Observe middleware (which adopts the
	// inbound trace header).
	reg := obs.NewRegistry()
	var coordLog syncBuf
	coordLogger, err := obs.NewLogger(&coordLog, "info", "json")
	if err != nil {
		t.Fatalf("coordinator logger: %v", err)
	}
	coord := NewCoordinator(CoordinatorOptions{Registry: reg, Logger: coordLogger})
	svc := service.New(service.Options{
		Workers: 2, CacheEntries: 32, Runner: coord,
		Registry: reg,
	})
	jm := service.NewJobManager(svc, service.JobManagerOptions{})
	mux := service.NewHandlerWithJobs(svc, jm, time.Minute)
	coord.Mount(mux)
	coordSrv := httptest.NewServer(service.Observe(mux, reg, coordLogger, svc.Spans()))
	t.Cleanup(coordSrv.Close)

	// Worker process: its own service (own registry), trace-carrying
	// shard log captured for inspection.
	var workerLog syncBuf
	workerLogger, err := obs.NewLogger(&workerLog, "info", "json")
	if err != nil {
		t.Fatalf("worker logger: %v", err)
	}
	wsvc := service.New(service.Options{Workers: 2, CacheEntries: 32})
	w := NewWorker(wsvc, WorkerOptions{ID: "w1", Logger: workerLogger})
	wmux := http.NewServeMux()
	w.Mount(wmux)
	workerSrv := httptest.NewServer(wmux)
	t.Cleanup(workerSrv.Close)
	coord.Membership().Heartbeat(WorkerInfo{ID: w.ID(), URL: workerSrv.URL, Capacity: 2})

	// Submit one async DSE job carrying the trace header.
	req, err := http.NewRequest(http.MethodPost, coordSrv.URL+"/api/v2/jobs",
		strings.NewReader(`{"kind":"dse","dse":{"arch":"ddr3","network":"lenet5"}}`))
	if err != nil {
		t.Fatalf("build submit request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit job: %v", err)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != trace {
		t.Errorf("submit response trace header = %q, want %q", got, trace)
	}
	var submitted service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if submitted.TraceID != trace {
		t.Fatalf("submitted job trace_id = %q, want %q", submitted.TraceID, trace)
	}

	// (2) Follow the event stream to completion; the terminal timings
	// event must carry the trace ID and the shard phase split.
	var timingsEvent *service.JobEvent
	sresp, err := http.Get(coordSrv.URL + "/api/v2/jobs/" + submitted.ID + "/events?from=0")
	if err != nil {
		t.Fatalf("open event stream: %v", err)
	}
	defer sresp.Body.Close()
	dec := json.NewDecoder(sresp.Body)
	for {
		var ev service.JobEvent
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatalf("decode event: %v", err)
		}
		if ev.Type == service.EventTimings {
			e := ev
			timingsEvent = &e
		}
	}
	if timingsEvent == nil {
		t.Fatal("event stream delivered no timings event")
	}
	if timingsEvent.TraceID != trace {
		t.Errorf("timings event trace_id = %q, want %q", timingsEvent.TraceID, trace)
	}
	if timingsEvent.Timings == nil || timingsEvent.Timings.RunSeconds <= 0 {
		t.Errorf("timings event carries no run duration: %+v", timingsEvent.Timings)
	}

	// (1) The terminal job view: same trace ID, per-job timing breakdown
	// with the cluster's dispatch and merge phases attributed.
	jresp, err := http.Get(coordSrv.URL + "/api/v2/jobs/" + submitted.ID)
	if err != nil {
		t.Fatalf("get job: %v", err)
	}
	defer jresp.Body.Close()
	var view service.JobView
	if err := json.NewDecoder(jresp.Body).Decode(&view); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	if view.State != service.JobSucceeded {
		t.Fatalf("job state %s, want succeeded", view.State)
	}
	if view.TraceID != trace {
		t.Errorf("job view trace_id = %q, want %q", view.TraceID, trace)
	}
	if view.Timings == nil {
		t.Fatal("terminal job view carries no timings")
	}
	if view.Timings.ShardDispatchSeconds <= 0 {
		t.Errorf("shard dispatch seconds = %g, want > 0 (job ran on the cluster)", view.Timings.ShardDispatchSeconds)
	}
	if view.Timings.ShardMergeSeconds <= 0 {
		t.Errorf("shard merge seconds = %g, want > 0", view.Timings.ShardMergeSeconds)
	}

	// (3) The worker logged every shard with the job's trace ID.
	wlog := workerLog.String()
	if !strings.Contains(wlog, `"msg":"shard served"`) {
		t.Fatalf("worker log has no shard lines:\n%s", wlog)
	}
	if !strings.Contains(wlog, `"trace_id":"`+trace+`"`) {
		t.Errorf("worker log lost the trace ID %q:\n%s", trace, wlog)
	}

	// (4a) Coordinator metrics: strictly parseable exposition carrying
	// the per-trace request counter, the job run histogram, and the
	// cluster dispatch/merge timings.
	mresp, err := http.Get(coordSrv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET coordinator /metrics: %v", err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	cexp, err := obs.ParseExposition(string(raw))
	if err != nil {
		t.Fatalf("coordinator metrics unparseable: %v\n%s", err, raw)
	}
	if v, ok := cexp.Value("drmap_trace_requests_total", map[string]string{"trace_id": trace}); !ok || v <= 0 {
		t.Errorf("coordinator drmap_trace_requests_total{trace_id=%q} = %v, %v; want > 0", trace, v, ok)
	}
	if v, ok := cexp.Value("drmap_job_run_seconds_count", map[string]string{"kind": "dse"}); !ok || v <= 0 {
		t.Errorf("coordinator drmap_job_run_seconds_count{kind=dse} = %v, %v; want > 0", v, ok)
	}
	for _, name := range []string{"drmap_cluster_shard_dispatch_seconds_count", "drmap_cluster_merge_seconds_count"} {
		if v, ok := cexp.Value(name, nil); !ok || v <= 0 {
			t.Errorf("coordinator %s = %v, %v; want > 0", name, v, ok)
		}
	}

	// (4b) Worker metrics: the shard timing histogram and the same trace
	// ID in the per-trace shard counter.
	wexp, err := obs.ParseExposition(wsvc.Registry().Expose())
	if err != nil {
		t.Fatalf("worker metrics unparseable: %v", err)
	}
	if v, ok := wexp.Value("drmap_worker_shard_seconds_count", nil); !ok || v <= 0 {
		t.Errorf("worker drmap_worker_shard_seconds_count = %v, %v; want > 0", v, ok)
	}
	if v, ok := wexp.Value("drmap_trace_shards_total", map[string]string{"trace_id": trace}); !ok || v <= 0 {
		t.Errorf("worker drmap_trace_shards_total{trace_id=%q} = %v, %v; want > 0", trace, v, ok)
	}
	// The worker's evaluation also split count and price phases.
	for _, phase := range []string{"count", "price"} {
		if v, ok := wexp.Value("drmap_eval_phase_seconds_count", map[string]string{"phase": phase}); !ok || v <= 0 {
			t.Errorf("worker drmap_eval_phase_seconds_count{phase=%q} = %v, %v; want > 0", phase, v, ok)
		}
	}

	// The coordinator's access log ties the same trace to the submit.
	if clog := coordLog.String(); !strings.Contains(clog, trace) {
		t.Errorf("coordinator log lost the trace ID %q:\n%s", trace, clog)
	}
}

// TestMidBatchScrape is the CI cluster job's scrape contract: while a
// multi-item batch is still running through coordinator and worker,
// GET /metrics on both processes must serve strictly parseable
// Prometheus exposition carrying the tentpole telemetry families -
// request durations, job lifecycle, phase timers, shard timings. A
// half-rendered page or a family lost in the registry migration fails
// here, not in a dashboard.
func TestMidBatchScrape(t *testing.T) {
	reg := obs.NewRegistry()
	coord := NewCoordinator(CoordinatorOptions{Registry: reg})
	svc := service.New(service.Options{
		Workers: 2, CacheEntries: 32, Runner: coord,
		Registry: reg,
	})
	jm := service.NewJobManager(svc, service.JobManagerOptions{})
	mux := service.NewHandlerWithJobs(svc, jm, time.Minute)
	coord.Mount(mux)
	coordSrv := httptest.NewServer(service.Observe(mux, reg, nil, svc.Spans()))
	t.Cleanup(coordSrv.Close)

	// The worker serves the full API surface (like drmap-worker does),
	// so its /metrics is scraped over HTTP exactly as in production.
	wsvc := service.New(service.Options{Workers: 2, CacheEntries: 32})
	w := NewWorker(wsvc, WorkerOptions{ID: "w1"})
	wmux := service.NewHandler(wsvc, time.Minute)
	w.Mount(wmux)
	workerSrv := httptest.NewServer(service.Observe(wmux, wsvc.Registry(), nil, wsvc.Spans()))
	t.Cleanup(workerSrv.Close)
	coord.Membership().Heartbeat(WorkerInfo{ID: w.ID(), URL: workerSrv.URL, Capacity: 2})

	// An 8-item batch: enough work that the first finished item leaves
	// the batch still mid-run.
	body := `{"kind":"batch","batch":{"jobs":[
		{"arch":"ddr3","network":"lenet5"},{"arch":"salp1","network":"lenet5"},
		{"arch":"salp2","network":"lenet5"},{"arch":"masa","network":"lenet5"},
		{"arch":"ddr4","network":"lenet5"},{"arch":"lpddr3","network":"lenet5"},
		{"arch":"lpddr4","network":"lenet5"},{"arch":"hbm2","network":"lenet5"}]}}`
	resp, err := http.Post(coordSrv.URL+"/api/v2/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit batch: %v", err)
	}
	var submitted service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	// Follow the stream until the first batch item commits - the batch
	// is then provably mid-run with cluster work behind it.
	sresp, err := http.Get(coordSrv.URL + "/api/v2/jobs/" + submitted.ID + "/events?from=0")
	if err != nil {
		t.Fatalf("open event stream: %v", err)
	}
	defer sresp.Body.Close()
	dec := json.NewDecoder(sresp.Body)
	for {
		var ev service.JobEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream ended before any batch item committed: %v", err)
		}
		if ev.Type == service.EventItem {
			break
		}
	}

	scrape := func(url string) *obs.Exposition {
		t.Helper()
		mresp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatalf("GET %s/metrics: %v", url, err)
		}
		defer mresp.Body.Close()
		if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s/metrics content type %q", url, ct)
		}
		raw, _ := io.ReadAll(mresp.Body)
		exp, err := obs.ParseExposition(string(raw))
		if err != nil {
			t.Fatalf("%s/metrics unparseable mid-batch: %v\n%s", url, err, raw)
		}
		return exp
	}

	cexp := scrape(coordSrv.URL)
	for _, fam := range []string{
		"drmap_http_request_duration_seconds",
		"drmap_job_run_seconds",
		"drmap_jobs_state",
		"drmap_cluster_shard_dispatch_seconds",
		"drmap_cluster_merge_seconds",
		"drmap_cluster_workers",
		"drmap_evaluations_total",
	} {
		if !cexp.Has(fam) {
			t.Errorf("coordinator /metrics missing family %q mid-batch", fam)
		}
	}
	// At least one shard round-tripped before the first item committed.
	if v, ok := cexp.Value("drmap_cluster_shard_dispatch_seconds_count", nil); !ok || v <= 0 {
		t.Errorf("coordinator shard dispatch count = %v, %v; want > 0 mid-batch", v, ok)
	}

	wexp := scrape(workerSrv.URL)
	for _, fam := range []string{
		"drmap_http_request_duration_seconds",
		"drmap_worker_shard_seconds",
		"drmap_trace_shards_total",
		"drmap_eval_phase_seconds",
		"drmap_worker_shards_served_total",
	} {
		if !wexp.Has(fam) {
			t.Errorf("worker /metrics missing family %q mid-batch", fam)
		}
	}
	// The worker's evaluations split into count and price phases.
	if v, ok := wexp.Value("drmap_eval_phase_seconds_count", map[string]string{"phase": "count"}); !ok || v <= 0 {
		t.Errorf("worker count-phase observations = %v, %v; want > 0 mid-batch", v, ok)
	}

	// Drain the stream so the job finishes before teardown.
	for {
		var ev service.JobEvent
		if err := dec.Decode(&ev); err != nil {
			break
		}
	}
}
