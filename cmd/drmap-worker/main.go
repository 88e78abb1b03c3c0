// Command drmap-worker is a DRMap cluster worker: it registers with a
// coordinator (drmap-serve -role coordinator) via periodic heartbeats
// and executes DSE shards - spans of the layer x schedule column grid -
// on its local worker pool, with its own content-addressed
// characterization cache.
//
// Usage:
//
//	drmap-worker -coordinator http://coord:8080 [-addr :8081]
//	             [-advertise http://me:8081] [-id worker-a]
//	             [-workers N] [-cache N]
//	             [-log-level info] [-log-format text|json] [-pprof]
//	             [-version]
//
// Endpoints (the full drmap-serve API stays available, so a worker can
// also answer local requests):
//
//	POST /cluster/v1/shard - shard evaluation (the coordinator's path)
//	GET  /healthz          - liveness
//	GET  /metrics          - counters incl. drmap_worker_shards_served_total,
//	                         drmap_worker_shard_seconds and the per-trace
//	                         drmap_trace_shards_total
//
// Each shard dispatch carries the job's X-Drmap-Trace-Id, which the
// worker echoes into its shard log lines and per-trace metrics - one
// batch, one trace ID, across every process that touched it.
//
// A worker keeps heartbeating through coordinator restarts, so it
// re-registers automatically as soon as the coordinator is back.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"drmap/internal/cluster"
	"drmap/internal/obs"
	"drmap/internal/service"
)

func main() {
	addr := flag.String("addr", ":8081", "listen address")
	coordinator := flag.String("coordinator", "", "coordinator base URL, e.g. http://coord:8080 (required)")
	advertise := flag.String("advertise", "", "base URL the coordinator dials this worker at (default derived from -addr)")
	id := flag.String("id", "", "stable worker identity (default hostname-pid)")
	workers := flag.Int("workers", 0, "local pool size (0 = one per CPU)")
	cacheEntries := flag.Int("cache", service.DefaultCacheEntries, "result cache capacity in entries")
	heartbeat := flag.Duration("heartbeat", cluster.DefaultHeartbeatInterval, "registration heartbeat interval")
	timeout := flag.Duration("timeout", service.DefaultRequestTimeout, "per-request evaluation timeout")
	grace := flag.Duration("grace", service.DefaultShutdownGrace, "graceful shutdown window")
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
		fmt.Fprintln(os.Stderr, "drmap-worker:", err)
		os.Exit(1)
	}
	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "drmap-worker: missing -coordinator URL (start one with: drmap-serve -role coordinator)")
		os.Exit(1)
	}
	adv := *advertise
	if adv == "" {
		adv = cluster.AdvertiseFor(*addr)
	}

	svc := service.New(service.Options{Workers: *workers, CacheEntries: *cacheEntries})
	obs.RegisterBuildInfo(svc.Registry())
	obs.RegisterRuntimeMetrics(svc.Registry())
	w := cluster.NewWorker(svc, cluster.WorkerOptions{
		ID:                *id,
		AdvertiseURL:      adv,
		CoordinatorURL:    *coordinator,
		HeartbeatInterval: *heartbeat,
		Logger:            logger,
	})
	srv := service.NewServer(svc, service.ServerOptions{
		Addr: *addr, RequestTimeout: *timeout, Mount: w.Mount,
		Logger: logger, Pprof: *pprof,
		Dashboard: service.DashboardOptions{Role: "worker"},
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go w.Run(ctx, func(err error) { logger.Warn("heartbeat failed", "err", err) })

	logger.Info("worker listening", "id", w.ID(), "addr", *addr,
		"advertise", adv, "coordinator", *coordinator,
		"pool_workers", svc.Workers(), "pprof", *pprof)
	start := time.Now()
	if err := service.Run(ctx, srv, *grace); err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
	logger.Info("shut down cleanly",
		"uptime", time.Since(start).Round(time.Second).String(),
		"shards_served", w.ShardsServed())
}
