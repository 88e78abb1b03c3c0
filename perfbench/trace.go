package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"drmap/internal/service"
)

// replicas decompose v1 ops, which carry no timings: they are two
// in-process services that see the same op stream as the daemon, so
// their caches hold the same keys. One answers through the job manager
// (Submit+Wait), the other through the direct Service call; two are
// needed because timing both paths on one service would make the second
// call a cache hit. v2 ops need no replica: the daemon's timings event
// already splits their time.
type replicas struct {
	jm     *service.JobManager
	direct *service.Service
}

func newReplicas(ctx context.Context, w *Workload) (*replicas, error) {
	a := service.New(service.Options{})
	r := &replicas{jm: service.NewJobManager(a, service.JobManagerOptions{}), direct: service.New(service.Options{})}
	for _, s := range []*service.Service{a, r.direct} {
		if _, err := s.Characterize(ctx, service.CharacterizeRequest{}); err != nil {
			return nil, err
		}
		for _, op := range w.Prime {
			if _, err := s.DSE(ctx, *op.DSE); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// v1Sample is one v1 op's service-layer decomposition.
type v1Sample struct {
	http, jobs, direct time.Duration
	queue              float64
}

// decompose times a v1 op on the replicas: Submit+Wait on the job
// manager, then the direct Service.DSE call.
func (r *replicas) decompose(ctx context.Context, op Op, o outcome) (v1Sample, error) {
	s := v1Sample{http: o.lat}
	start := time.Now()
	v, err := r.jm.Submit(ctx, op.JobRequest())
	if err != nil {
		return s, err
	}
	final, err := r.jm.Wait(ctx, v.ID)
	s.jobs = time.Since(start)
	if err != nil {
		return s, err
	}
	if final.State != service.JobSucceeded {
		return s, fmt.Errorf("replica job %s: %s %s", v.ID, final.State, final.Error)
	}
	if final.Timings != nil {
		s.queue = final.Timings.QueueSeconds
	}
	start = time.Now()
	if _, err := r.direct.DSE(ctx, *op.DSE); err != nil {
		return s, err
	}
	s.direct = time.Since(start)
	return s, nil
}

// fingerprintOp times service.Fingerprint over the op's cache keys.
func fingerprintOp(op Op) (time.Duration, error) {
	var keys []any
	switch {
	case op.Batch != nil:
		for _, j := range op.Batch.Jobs {
			keys = append(keys, j)
		}
	case op.Sim != nil:
		keys = append(keys, *op.Sim)
	default:
		keys = append(keys, *op.DSE)
	}
	start := time.Now()
	for _, k := range keys {
		if _, err := service.Fingerprint(k); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// counters are the daemon-side cache and cluster counters the traced
// run reads before and after the load, summed over the stack.
type counters struct {
	planHits, planLookups, planEvicted float64
	planBytes                          float64
	shards, retries                    float64
	shardHits, shardLookups            float64
}

// scrape reads /metrics on every daemon. It returns the front daemon's
// /metrics round trip.
func scrape(ctx context.Context, st *stack) (counters, time.Duration, error) {
	var c counters
	var front time.Duration
	for i, d := range st.daemons {
		start := time.Now()
		exp, err := d.metrics(ctx)
		if i == 0 {
			front = time.Since(start)
		}
		if err != nil {
			return c, 0, err
		}
		v := func(name string) float64 { x, _ := exp.Value(name, nil); return x }
		hits, misses := v("drmap_plan_cache_hits_total"), v("drmap_plan_cache_misses_total")
		c.planHits += hits
		c.planLookups += hits + misses
		c.planEvicted += v("drmap_plan_cache_evictions_total")
		c.planBytes += v("drmap_plan_cache_bytes")
		c.shards += v("drmap_cluster_shards_completed_total")
		c.retries += v("drmap_cluster_shard_retries_total")
		sh, sm := v("drmap_cluster_shard_cache_hits_total"), v("drmap_cluster_shard_cache_misses_total")
		c.shardHits += sh
		c.shardLookups += sh + sm
	}
	return c, front, nil
}

func (c counters) minus(o counters) counters {
	return counters{
		planHits: c.planHits - o.planHits, planLookups: c.planLookups - o.planLookups,
		planEvicted: c.planEvicted - o.planEvicted, planBytes: c.planBytes,
		shards: c.shards - o.shards, retries: c.retries - o.retries,
		shardHits: c.shardHits - o.shardHits, shardLookups: c.shardLookups - o.shardLookups,
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTraced is the traced run. On one stack it measures a traced
// closed-loop window, in which every op is also fingerprinted in-process
// and every v1 op decomposed on the replicas, then an untraced window of
// the same length on the rest of the stream, then probes each module's
// public functions on the stream's first ops. It prints the per-layer
// metrics and the tracing overhead: traced over untraced throughput.
func (b *bench) runTraced(ctx context.Context) (*result, error) {
	half := b.window / 2
	var rep *replicas
	if slices.ContainsFunc(b.w.Ops, func(op Op) bool { return op.V1 }) {
		var err error
		if rep, err = newReplicas(ctx, b.w); err != nil {
			return nil, fmt.Errorf("replicas: %w", err)
		}
	}
	var plain, traced window
	var samples []v1Sample
	var fps []float64
	var before, after counters
	var scrapes []float64
	var next atomic.Int64
	_, err := b.withStack(ctx, 1, func(st *stack) error {
		var d time.Duration
		var err error
		if before, d, err = scrape(ctx, st); err != nil {
			return err
		}
		scrapes = append(scrapes, ms(d))
		exec, err := b.exec(ctx, st)
		if err != nil {
			return err
		}
		var mu sync.Mutex
		traced = runClosedLoop(ctx, b.w, &next, half, func(i int, op Op) outcome {
			o := exec(i, op)
			if o.err != nil {
				return o
			}
			fp, err := fingerprintOp(op)
			var s v1Sample
			if err == nil && op.V1 {
				s, err = rep.decompose(ctx, op, o)
			}
			if o.err = err; err != nil {
				return o
			}
			mu.Lock()
			defer mu.Unlock()
			fps = append(fps, us(fp))
			if op.V1 {
				samples = append(samples, s)
			}
			return o
		})
		// The untraced window runs second: the replicas start from the
		// daemon's primed state, so their caches stay in step with it
		// only while they see every op.
		plain = runClosedLoop(ctx, b.w, &next, half, exec)
		if after, d, err = scrape(ctx, st); err != nil {
			return err
		}
		scrapes = append(scrapes, ms(d))
		return nil
	})
	if err != nil {
		return nil, err
	}
	win := window{outcomes: append(append([]outcome(nil), plain.outcomes...), traced.outcomes...), elapsed: plain.elapsed + traced.elapsed}
	res, err := b.verify(ctx, win)
	if err != nil {
		return nil, err
	}
	if len(fps) == 0 {
		return nil, fmt.Errorf("traced window completed no op")
	}
	b.putService(samples, win.ok())
	b.put("service.fingerprint_us", median(fps), "us")
	hits, lookups := servedHits(win)
	b.put("service.result_hit_ratio", ratio(float64(hits), float64(lookups)), "ratio")
	b.put("service.result_lookups", float64(lookups), "count")
	c := after.minus(before)
	b.put("service.plan_hit_ratio", ratio(c.planHits, c.planLookups), "ratio")
	b.put("service.plan_lookups", c.planLookups, "count")
	b.put("service.plan_cache_mb", c.planBytes/(1<<20), "MiB")
	b.put("service.plan_evictions", c.planEvicted, "count")
	b.put("cluster.shards", c.shards, "count")
	b.put("cluster.retries", c.retries, "count")
	b.put("cluster.shard_cache_hit_ratio", ratio(c.shardHits, c.shardLookups), "ratio")
	b.put("obs.scrape_ms", median(scrapes), "ms")
	b.put("trace.rps_untraced", plain.rps(), "1/s")
	b.put("trace.rps_traced", traced.rps(), "1/s")
	b.put("trace.overhead_ratio", traced.rps()/plain.rps(), "ratio")
	s, _ := shares(win)
	for c, v := range s {
		b.put("load.share_"+categoryNames[c], v, "ratio")
	}

	p := newProbe()
	if err := p.run(ctx, b.w); err != nil {
		return nil, fmt.Errorf("module probes: %w", err)
	}
	p.report(b)
	fmt.Printf("workload %s seed %d traced: untraced %.2f ops/s (n=%d), traced %.2f ops/s (n=%d), overhead ratio %.3f\n",
		b.w.Name, b.seed, plain.rps(), len(plain.ok()), traced.rps(), len(traced.ok()), traced.rps()/plain.rps())
	res.Metrics = b.m
	return res, nil
}

// putService puts the service and cluster time splits. A v1 op's comes
// from its replica sample: http = round trip - Submit+Wait, jobs =
// Submit+Wait - direct call. A v2 op's comes from the daemon's timings
// event: http = round trip - (queue + run), and the job manager's own
// time is the queue wait, because run is the service call itself. The
// phase times (count, price, shard dispatch and merge, as the daemon
// that ran the job booked them) are means over every successful v2 op.
func (b *bench) putService(samples []v1Sample, ok []outcome) {
	var httpSelf, jobsSelf, queue []float64
	for _, s := range samples {
		httpSelf = append(httpSelf, ms(s.http-s.jobs))
		jobsSelf = append(jobsSelf, ms(s.jobs-s.direct))
		queue = append(queue, 1000*s.queue)
	}
	var count, price, dispatch, merge float64
	v2 := 0
	for _, o := range ok {
		t := o.timings
		if t == nil {
			continue
		}
		v2++
		httpSelf = append(httpSelf, ms(o.lat)-1000*(t.QueueSeconds+t.RunSeconds))
		jobsSelf = append(jobsSelf, 1000*t.QueueSeconds)
		queue = append(queue, 1000*t.QueueSeconds)
		count += t.CountSeconds
		price += t.PriceSeconds
		dispatch += t.ShardDispatchSeconds
		merge += t.ShardMergeSeconds
	}
	n := 1000 / float64(max(v2, 1))
	b.put("service.http_self_ms", median(httpSelf), "ms")
	b.put("service.jobs_self_ms", median(jobsSelf), "ms")
	b.put("service.queue_ms", median(queue), "ms")
	b.put("core.count_ms_per_op", count*n, "ms")
	b.put("core.price_ms_per_op", price*n, "ms")
	b.put("cluster.dispatch_ms", dispatch*n, "ms")
	b.put("cluster.merge_ms", merge*n, "ms")
}
