package cluster

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drmap/internal/obs"
	"drmap/internal/service"
)

var updateGolden = flag.Bool("update", false, "rewrite the /metrics catalog goldens under testdata/")

// wireProcess builds one drmap process the way its cmd/ main does -
// drmap-serve standalone or -role coordinator, or drmap-worker - and
// returns its HTTP handler.
func wireProcess(t *testing.T, role string) http.Handler {
	t.Helper()
	svc := service.New(service.Options{})
	obs.RegisterBuildInfo(svc.Registry())
	obs.RegisterRuntimeMetrics(svc.Registry())
	var srv *http.Server
	switch role {
	case "standalone":
		jobs := service.NewJobManager(svc, service.JobManagerOptions{})
		srv = service.NewServer(svc, service.ServerOptions{Jobs: jobs})
	case "coordinator":
		jobs := service.NewJobManager(svc, service.JobManagerOptions{})
		coord := NewCoordinator(CoordinatorOptions{Registry: svc.Registry()})
		svc.SetRunner(coord)
		srv = service.NewServer(svc, service.ServerOptions{Jobs: jobs, Mount: coord.Mount})
	case "worker":
		w := NewWorker(svc, WorkerOptions{ID: "w1", AdvertiseURL: "http://127.0.0.1:1"})
		srv = service.NewServer(svc, service.ServerOptions{Mount: w.Mount})
	default:
		t.Fatalf("unknown role %q", role)
	}
	return srv.Handler
}

// scrapePage GETs /metrics from a wired process.
func scrapePage(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	return rec.Body.String()
}

// TestMetricsCatalogGolden pins every family each process role exposes
// - name, # TYPE and # HELP - against testdata/metrics_<role>.golden,
// so a renamed, retyped, reworded or dropped family shows up as a
// golden diff. Run with -update to rewrite the goldens.
func TestMetricsCatalogGolden(t *testing.T) {
	for _, role := range []string{"standalone", "coordinator", "worker"} {
		t.Run(role, func(t *testing.T) {
			page := scrapePage(t, wireProcess(t, role))
			if _, err := obs.ParseExposition(page); err != nil {
				t.Fatalf("/metrics unparseable: %v", err)
			}
			var meta strings.Builder
			for _, line := range strings.Split(page, "\n") {
				if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
					meta.WriteString(line + "\n")
				}
			}
			path := filepath.Join("testdata", "metrics_"+role+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(meta.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create it): %v", err)
			}
			if got := meta.String(); got != string(want) {
				t.Errorf("%s /metrics catalog drifted from %s:\n--- got\n%s--- want\n%s", role, path, got, want)
			}
		})
	}
}

// TestWorkerExportsJobFamilies: drmap-worker serves the v1 API through
// the job manager NewServer builds for it, so its /metrics carries the
// job-store families like every other role, and they follow the jobs
// it runs.
func TestWorkerExportsJobFamilies(t *testing.T) {
	h := wireProcess(t, "worker")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/dse",
		strings.NewReader(`{"arch":"ddr3","network":"lenet5"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /api/v1/dse: status %d: %s", rec.Code, rec.Body)
	}
	page, err := obs.ParseExposition(scrapePage(t, h))
	if err != nil {
		t.Fatalf("/metrics unparseable: %v", err)
	}
	// The v1 call ran as one ephemeral job, dropped once answered.
	for name, want := range map[string]float64{
		"drmap_jobs_submitted_total": 1,
		"drmap_jobs_evicted_total":   0,
		"drmap_jobs_active":          0,
		"drmap_jobs_stored":          0,
	} {
		if got, ok := page.Value(name, nil); !ok || got != want {
			t.Errorf("worker %s = %v, %v; want %v", name, got, ok, want)
		}
	}
}
