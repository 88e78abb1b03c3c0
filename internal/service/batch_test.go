package service

import (
	"context"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"drmap/internal/obs"
)

// TestBatchSharesCaches: one batch over four (backend, network) jobs -
// including a duplicate - completes them all, serves the duplicate from
// the shared evaluation (coalesced or cached, never computed twice),
// and a repeated batch is answered entirely from the cache, visible in
// the hit counters.
func TestBatchSharesCaches(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 32})
	req := BatchRequest{Jobs: []DSERequest{
		{Arch: "ddr3", Network: "lenet5"},
		{Arch: "salp1", Network: "lenet5"},
		{Arch: "ddr3", Network: "lenet5"}, // duplicate of job 0
		{Arch: "ddr4", Network: "lenet5"},
	}}
	resp, err := svc.Batch(context.Background(), req)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if resp.Completed != 4 || resp.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 4/0", resp.Completed, resp.Failed)
	}
	for i, item := range resp.Results {
		if item.Index != i || item.Result == nil || item.Error != "" {
			t.Fatalf("item %d malformed: %+v", i, item)
		}
		// Each batch item equals the standalone DSE answer.
		single, err := svc.DSE(context.Background(), req.Jobs[i])
		if err != nil {
			t.Fatalf("single DSE %d: %v", i, err)
		}
		if !reflect.DeepEqual(item.Result.Result, single.Result) {
			t.Errorf("batch item %d diverged from standalone DSE", i)
		}
	}
	// Jobs 0 and 2 are identical: at most 3 fresh DSE evaluations ran.
	if got := resp.Results[0].Result.Result; !reflect.DeepEqual(got, resp.Results[2].Result.Result) {
		t.Error("duplicate jobs returned different results")
	}
	stats := svc.CacheStats()
	if stats.Hits+stats.Coalesced == 0 {
		t.Errorf("duplicate job was not shared: %+v", stats)
	}

	before := svc.CacheStats().Hits
	again, err := svc.Batch(context.Background(), req)
	if err != nil {
		t.Fatalf("repeat Batch: %v", err)
	}
	for i, item := range again.Results {
		if item.Result == nil || !item.Result.Cached {
			t.Errorf("repeat batch item %d not cached", i)
		}
	}
	if after := svc.CacheStats().Hits; after < before+4 {
		t.Errorf("cache hits went %d -> %d, want >= %d", before, after, before+4)
	}
}

// TestBatchPartialFailure: a job with a bad arch fails alone; its
// siblings complete.
func TestBatchPartialFailure(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 8})
	resp, err := svc.Batch(context.Background(), BatchRequest{Jobs: []DSERequest{
		{Arch: "lenet5", Network: "lenet5"}, // arch/network swapped: unknown backend
		{Arch: "masa", Network: "lenet5"},
	}})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if resp.Completed != 1 || resp.Failed != 1 {
		t.Fatalf("completed=%d failed=%d, want 1/1", resp.Completed, resp.Failed)
	}
	if resp.Results[0].Error == "" || resp.Results[0].Result != nil {
		t.Errorf("bad job reported %+v, want an error", resp.Results[0])
	}
	if resp.Results[1].Error != "" || resp.Results[1].Result == nil {
		t.Errorf("good job reported %+v, want a result", resp.Results[1])
	}
}

// TestBatchValidation: input-free failures reject the whole request.
func TestBatchValidation(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 8})
	if _, err := svc.Batch(context.Background(), BatchRequest{}); err == nil {
		t.Error("empty batch accepted")
	}
	huge := BatchRequest{Jobs: make([]DSERequest, MaxBatchJobs+1)}
	if _, err := svc.Batch(context.Background(), huge); err == nil {
		t.Errorf("batch of %d jobs accepted", len(huge.Jobs))
	}
}

// TestHTTPBatch drives POST /api/v1/batch end to end.
func TestHTTPBatch(t *testing.T) {
	ts := newTestServer(t, New(Options{Workers: 2, CacheEntries: 16}))
	resp, body := postJSON(t, ts.URL+"/api/v1/batch",
		`{"jobs":[{"arch":"ddr3","network":"lenet5"},{"arch":"nope","network":"lenet5"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	s := string(body)
	if !strings.Contains(s, `"completed": 1`) || !strings.Contains(s, `"failed": 1`) {
		t.Errorf("unexpected batch body: %s", s)
	}

	resp, body = postJSON(t, ts.URL+"/api/v1/batch", `{"jobs":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestMetrics: the counters render in Prometheus exposition format,
// reflect serving activity, and include series other components
// register on the service's registry.
func TestMetrics(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 8})
	svc.Registry().Gauge("drmap_test_gauge", "Test gauge.").With().Set(7)
	if _, err := svc.DSE(context.Background(), DSERequest{Arch: "ddr3", Network: "lenet5"}); err != nil {
		t.Fatalf("DSE: %v", err)
	}
	text := svc.MetricsText()
	// The DSE ran two fresh computations: the ddr3 profile and the
	// search itself. Unlabeled series render as plain "name value"
	// sample lines.
	for _, want := range []string{
		"drmap_evaluations_total 2",
		"drmap_cache_misses_total",
		"drmap_pool_workers 2",
		"drmap_test_gauge 7",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	// The page as a whole must be strictly parseable exposition,
	// the component's gauge included.
	exp, err := obs.ParseExposition(text)
	if err != nil {
		t.Fatalf("metrics page unparseable: %v\n%s", err, text)
	}
	if v, ok := exp.Value("drmap_test_gauge", nil); !ok || v != 7 {
		t.Errorf("drmap_test_gauge = %v, %v; want 7", v, ok)
	}
	// The DSE split its evaluation into count and price phases.
	for _, phase := range []string{"count", "price"} {
		if v, ok := exp.Value("drmap_eval_phase_seconds_count", map[string]string{"phase": phase}); !ok || v == 0 {
			t.Errorf("drmap_eval_phase_seconds{phase=%q} count = %v, %v; want > 0", phase, v, ok)
		}
	}

	ts := newTestServer(t, svc)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
}

// TestBatchDeadlinePreservesPartialResults: a deadline expiring
// mid-batch does not discard the finished jobs - they keep their
// results, the rest carry the context error, and the request answers
// instead of 500ing. The started jobs' detached evaluations finish and
// leave no goroutine behind.
func TestBatchDeadlinePreservesPartialResults(t *testing.T) {
	checkLeaks := goroutineBaseline(t)
	svc := New(Options{Workers: 2, CacheEntries: 8})
	// Warm one job so it is a guaranteed-instant cache hit.
	if _, err := svc.DSE(context.Background(), DSERequest{Arch: "ddr3", Network: "lenet5"}); err != nil {
		t.Fatalf("warm DSE: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the batch starts with its deadline already gone
	resp, err := svc.Batch(ctx, BatchRequest{Jobs: []DSERequest{
		{Arch: "ddr3", Network: "lenet5"},
		{Arch: "salp1", Network: "lenet5"},
	}})
	if err != nil {
		t.Fatalf("Batch under expired context errored instead of reporting per item: %v", err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d items, want 2", len(resp.Results))
	}
	for i, item := range resp.Results {
		if item.Result == nil && item.Error == "" {
			t.Errorf("item %d has neither result nor error", i)
		}
	}
	if resp.Completed+resp.Failed != 2 {
		t.Errorf("completed=%d failed=%d do not cover the batch", resp.Completed, resp.Failed)
	}
	checkLeaks()
}
