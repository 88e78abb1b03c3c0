package service

import (
	"drmap/internal/obs"
)

// MetricsText renders GET /metrics: the Prometheus text exposition of
// the service registry, with # HELP and # TYPE metadata. Unlabeled
// series render as plain "name value" lines.
func (s *Service) MetricsText() string {
	return s.registry.Expose()
}

// Registry returns the service's metrics registry, the one GET
// /metrics renders. Components wired around the service (job manager,
// cluster roles, commands) register their instruments here so one
// scrape covers the whole process.
func (s *Service) Registry() *obs.Registry {
	return s.registry
}

// cacheHelp is the # HELP text of one cache's series.
type cacheHelp struct {
	Hits, Misses, Coalesced, Evictions, Entries string
}

// registerCacheMetrics exposes one cache's counters on r as
// prefix_{hits,misses,coalesced,evictions}_total and prefix_entries,
// read from stats at every scrape.
func registerCacheMetrics(r *obs.Registry, prefix string, stats func() CacheStats, help cacheHelp) {
	for _, m := range []struct {
		suffix, kind, help string
		value              func(CacheStats) int64
	}{
		{"_hits_total", obs.KindCounter, help.Hits, func(c CacheStats) int64 { return c.Hits }},
		{"_misses_total", obs.KindCounter, help.Misses, func(c CacheStats) int64 { return c.Misses }},
		{"_coalesced_total", obs.KindCounter, help.Coalesced, func(c CacheStats) int64 { return c.Coalesced }},
		{"_evictions_total", obs.KindCounter, help.Evictions, func(c CacheStats) int64 { return c.Evictions }},
		{"_entries", obs.KindGauge, help.Entries, func(c CacheStats) int64 { return int64(c.Entries) }},
	} {
		r.Func(prefix+m.suffix, m.kind, m.help, func() float64 { return float64(m.value(stats())) })
	}
}

// registerMetrics registers the service's series on its registry: the
// evaluation count, the result- and plan-cache counters (also as the
// labeled drmap_cache_requests_total view), the pool size, the
// count/price phase histogram the column evaluator observes, and the
// simulate instruments.
func (s *Service) registerMetrics() {
	r := s.registry
	r.Func("drmap_evaluations_total", obs.KindCounter,
		"Fresh (non-cached, non-coalesced) computations run.",
		func() float64 { return float64(s.Evaluations()) })
	registerCacheMetrics(r, "drmap_cache", s.CacheStats, cacheHelp{
		Hits:      "Result-cache lookups served from a completed entry.",
		Misses:    "Result-cache lookups that required a fresh computation.",
		Coalesced: "Result-cache lookups that joined an identical in-flight computation.",
		Evictions: "Result-cache LRU evictions.",
		Entries:   "Resident result-cache entries.",
	})
	registerCacheMetrics(r, "drmap_plan_cache", s.PlanCacheStats, cacheHelp{
		Hits:      "Count-plan-cache hits (columns repriced instead of recounted).",
		Misses:    "Count-plan-cache misses (columns counted fresh).",
		Coalesced: "Count-plan computations joined while in flight.",
		Evictions: "Count-plan-cache LRU evictions.",
		Entries:   "Resident count-plan-cache entries.",
	})
	r.Func("drmap_plan_cache_bytes", obs.KindGauge,
		"Resident bytes of vectorized count plans in the plan cache.",
		func() float64 { return float64(s.PlanCacheStats().Bytes) })
	for cache, stats := range map[string]func() CacheStats{"result": s.CacheStats, "plan": s.PlanCacheStats} {
		for outcome, value := range map[string]func(CacheStats) int64{
			"hit":       func(c CacheStats) int64 { return c.Hits },
			"miss":      func(c CacheStats) int64 { return c.Misses },
			"coalesced": func(c CacheStats) int64 { return c.Coalesced },
		} {
			r.Func("drmap_cache_requests_total", obs.KindCounter,
				"Cache lookups by cache (result, plan) and outcome (hit, miss, coalesced).",
				func() float64 { return float64(value(stats())) },
				obs.Label{Key: "cache", Value: cache}, obs.Label{Key: "outcome", Value: outcome})
		}
	}
	r.Gauge("drmap_pool_workers", "Size of the DSE/characterization worker pool.").With().Set(float64(s.workers))
	s.phaseSeconds = r.Histogram("drmap_eval_phase_seconds",
		"Evaluation wall-clock per phase: count (backend-independent tile-group counting) vs price (per-backend costing).",
		nil, "phase")
	s.simCommands = r.Counter("drmap_sim_commands_total",
		"DRAM commands issued by the cycle-accurate simulator, by JEDEC mnemonic (ACT, PRE, RD, WR, SASEL, REF).",
		"kind")
	s.simEngineSeconds = r.Histogram("drmap_sim_engine_seconds",
		"Simulate evaluation wall-clock by discrete-event engine (serial vs parallel); both engines produce bit-for-bit identical results.",
		nil, "engine")
	// Pre-touch the full label vocabularies so a scrape before the
	// first simulate run still shows every series.
	for _, kind := range []string{"ACT", "PRE", "RD", "WR", "SASEL", "REF"} {
		s.simCommands.With(kind)
	}
	for _, engine := range []string{"serial", "parallel"} {
		s.simEngineSeconds.With(engine)
	}
}
