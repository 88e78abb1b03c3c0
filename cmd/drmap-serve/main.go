// Command drmap-serve is the DRMap HTTP daemon: it serves the paper's
// whole tool flow (characterization, Algorithm 1 DSE, trace-driven
// validation, ablation sweeps) as a JSON API with a parallel DSE
// executor, a bounded content-addressed result cache and single-flight
// deduplication of identical in-flight requests.
//
// Usage:
//
//	drmap-serve [-addr :8080] [-role standalone|coordinator]
//	            [-workers N] [-cache N] [-timeout 60s]
//	            [-plan-cache N] [-plan-cache-bytes N]
//	            [-log-level info] [-log-format text|json] [-pprof]
//	            [-version]
//
// Endpoints:
//
//	GET  /healthz             - liveness plus cache/evaluation counters
//	GET  /metrics             - Prometheus exposition: serving, cluster,
//	                            job, phase-timing and trace metrics
//	GET  /api/v1/version      - build information (also: -version flag)
//	GET  /api/v1/policies     - the Table I mapping policies
//	GET  /api/v1/backends     - the registered DRAM backends (ID-sorted)
//	POST /api/v1/characterize - Fig. 1 characterization
//	POST /api/v1/dse          - Algorithm 1 design space exploration
//	POST /api/v1/batch        - many DSE jobs in one request
//	POST /api/v1/simulate     - cycle-accurate layer validation
//	POST /api/v1/sweep        - ablation sweeps
//
// and the job-oriented v2 surface (async submit, status, streaming,
// cancel; the v1 POST endpoints are synchronous wrappers over the same
// job manager - see API.md):
//
//	POST   /api/v2/jobs             - submit a dse/batch/characterize/sweep job
//	GET    /api/v2/jobs             - list jobs (?kind=, ?state=, ?limit=)
//	GET    /api/v2/jobs/{id}        - status, progress, result once terminal
//	GET    /api/v2/jobs/{id}/events - NDJSON/SSE event stream (?from= resumes)
//	DELETE /api/v2/jobs/{id}        - cancel
//
// Every "arch" field accepts any backend ID listed by
// GET /api/v1/backends (the paper's four architectures plus the
// DDR4/LPDDR3/LPDDR4/HBM2 generality presets).
//
// # Cluster roles
//
// -role coordinator additionally serves POST /cluster/v1/register and
// GET /cluster/v1/workers, and distributes every DSE (and each batch
// job) across the registered workers, falling back to the local pool
// while none are live. Workers are separate cmd/drmap-worker processes
// that register with the coordinator and serve POST /cluster/v1/shard.
//
// Quickstart (one host, three processes):
//
//	drmap-serve -role coordinator -addr :8080 &
//	drmap-worker -coordinator http://127.0.0.1:8080 -addr :8081 &
//	drmap-worker -coordinator http://127.0.0.1:8080 -addr :8082 &
//	curl -s localhost:8080/api/v1/batch -d '{"jobs":[
//	  {"arch":"ddr3","network":"alexnet"},{"arch":"masa","network":"alexnet"}]}'
//
// # Observability
//
// Every request is traced (X-Drmap-Trace-Id in and out), timed into
// labeled Prometheus histograms on GET /metrics, and logged as one
// structured line (-log-format json for machine-readable logs). -pprof
// mounts /debug/pprof. See the Observability section of API.md.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, letting in-flight
// evaluations finish within the grace period.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"drmap/internal/cluster"
	"drmap/internal/obs"
	"drmap/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	role := flag.String("role", "standalone", "standalone or coordinator (workers run cmd/drmap-worker)")
	ttl := flag.Duration("heartbeat-ttl", cluster.DefaultHeartbeatTTL, "worker liveness TTL (role=coordinator)")
	workers := flag.Int("workers", 0, "DSE worker pool size (0 = one per CPU)")
	cacheEntries := flag.Int("cache", service.DefaultCacheEntries, "result cache capacity in entries (negative disables retention)")
	planCacheEntries := flag.Int("plan-cache", service.DefaultPlanCacheEntries, "count-plan cache capacity in grid columns (negative disables; plans are backend-independent, so multi-backend batches reprice instead of recount)")
	planCacheBytes := flag.Int64("plan-cache-bytes", 0, "additional byte cap on resident count plans (0 = entry cap only)")
	timeout := flag.Duration("timeout", service.DefaultRequestTimeout, "per-request evaluation timeout (v1; v2 jobs are unbounded)")
	grace := flag.Duration("grace", service.DefaultShutdownGrace, "graceful shutdown window")
	maxJobs := flag.Int("max-jobs", service.DefaultMaxJobs, "v2 job store capacity")
	jobTTL := flag.Duration("job-ttl", service.DefaultJobTTL, "how long finished v2 jobs (results + event logs) stay retrievable")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	pprof := flag.Bool("pprof", false, "mount /debug/pprof profiling endpoints")
	version := flag.Bool("version", false, "print build information as JSON and exit")
	flag.Parse()

	if *version {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(service.Version())
		return
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "drmap-serve:", err)
		os.Exit(1)
	}

	svc := service.New(service.Options{
		Workers: *workers, CacheEntries: *cacheEntries,
		PlanCacheEntries: *planCacheEntries, PlanCacheBytes: *planCacheBytes,
	})
	obs.RegisterBuildInfo(svc.Registry())
	obs.RegisterRuntimeMetrics(svc.Registry())
	jobs := service.NewJobManager(svc, service.JobManagerOptions{MaxJobs: *maxJobs, TTL: *jobTTL})

	var mount func(*http.ServeMux)
	dash := service.DashboardOptions{Role: *role}
	switch *role {
	case "standalone":
	case "coordinator":
		coord := cluster.NewCoordinator(cluster.CoordinatorOptions{
			HeartbeatTTL: *ttl, Registry: svc.Registry(), Logger: logger,
		})
		svc.SetRunner(coord)
		mount = coord.Mount
		dash.Workers = func() []service.DashboardWorker {
			snap := coord.Membership().Snapshot()
			out := make([]service.DashboardWorker, len(snap))
			for i, wi := range snap {
				out[i] = service.DashboardWorker{
					ID: wi.ID, URL: wi.URL, Capacity: wi.Capacity,
					Live: wi.Live, AgeMillis: wi.AgeMillis,
				}
			}
			return out
		}
	default:
		fmt.Fprintf(os.Stderr, "drmap-serve: unknown -role %q (want standalone or coordinator; workers run drmap-worker)\n", *role)
		os.Exit(1)
	}

	srv := service.NewServer(svc, service.ServerOptions{
		Addr: *addr, RequestTimeout: *timeout, Jobs: jobs, Mount: mount,
		Logger: logger, Pprof: *pprof, Dashboard: dash,
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	logger.Info("listening", "addr", *addr, "role", *role,
		"workers", svc.Workers(), "cache_entries", *cacheEntries,
		"timeout", timeout.String(), "pprof", *pprof)
	start := time.Now()
	if err := service.Run(ctx, srv, *grace); err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
	logger.Info("shut down cleanly", "uptime", time.Since(start).Round(time.Second).String())
}
