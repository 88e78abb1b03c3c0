// Command perfbench is the repository's end-to-end benchmark. It starts
// the real daemons built from the tree (drmap-serve, plus drmap-worker
// processes for the cluster workload) on loopback ports, drives one
// seeded workload through the public HTTP API with the drmap/client SDK
// in a closed loop, checks a seeded sample of the responses and the
// simulator's exact cycle certificates against the in-process serial
// reference, stops the daemons with SIGTERM, and prints one JSON result
// line. With -trace 1 it instead prints per-layer timings of each
// module's public functions on the same seeded inputs, plus the tracing
// overhead. See README.md for the workloads and metrics.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload dse-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// A run sets the stack up setupsBefore times before the load (the last
// of these serves it) and setupsAfter times after it; setup_s is the
// median of all of them. The machine's speed drifts between fast and
// slow spells that last from under a second to minutes, so set-ups taken
// on both sides of the load sample more of them than back-to-back ones.
const (
	setupsBefore = 4
	setupsAfter  = 5
)

// checkSample is how many served responses per run are compared with
// the in-process reference.
const checkSample = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(Workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	bins := flag.String("bin", ".bench_build/bin", "directory holding the drmap-serve and drmap-worker binaries")
	flag.Parse()
	w, err := Generate(*name, *seed)
	if err == nil {
		b := bench{w: w, seed: *seed, bins: *bins, window: time.Duration(*seconds) * time.Second, start: time.Now()}
		var res *result
		if *traced == 1 {
			res, err = b.runTraced(context.Background())
		} else {
			res, err = b.run(context.Background())
		}
		if err == nil {
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// bench is one benchmark run.
type bench struct {
	w      *Workload
	seed   int64
	bins   string
	window time.Duration
	start  time.Time
	m      map[string]metric
}

// logf reports progress on stderr with the time since the run began.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.2fs: %s\n", time.Since(b.start).Seconds(), fmt.Sprintf(format, args...))
}

func (b *bench) put(name string, v float64, unit string) {
	if b.m == nil {
		b.m = map[string]metric{}
	}
	b.m[name] = metric{Value: v, Unit: unit}
}

// setUpAndStop sets the stack up n times, stopping each, and returns
// the set-up times in seconds.
func (b *bench) setUpAndStop(ctx context.Context, n int) ([]float64, error) {
	var setup []float64
	for i := 0; i < n; i++ {
		st, d, err := setUp(ctx, b.bins, b.w)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
		if err := st.stop(); err != nil {
			return nil, err
		}
	}
	return setup, nil
}

// withStack sets the stack up times times, keeping the last one (each
// earlier stack is stopped), primes it, runs body against it and stops
// it. A stop that is not clean fails the run.
func (b *bench) withStack(ctx context.Context, times int, body func(st *stack) error) (setup []float64, err error) {
	if setup, err = b.setUpAndStop(ctx, times-1); err != nil {
		return nil, err
	}
	st, d, err := setUp(ctx, b.bins, b.w)
	if err != nil {
		return nil, err
	}
	setup = append(setup, d.Seconds())
	b.logf("set up %d times: %s s", times, fmtList(setup))
	defer func() {
		err = errors.Join(err, st.stop())
		b.logf("stack stopped")
	}()
	for i, op := range b.w.Prime {
		if o := execOp(ctx, st.api, op, false); o.err != nil {
			return nil, fmt.Errorf("prime op %d: %w", i, o.err)
		}
	}
	b.logf("primed %d ops", len(b.w.Prime))
	return setup, body(st)
}

// exec returns the closed loop's op function. On a cluster it also reads
// the workers' plan-cache misses after every op, because there the
// workers count and the coordinator's timings show no count time. With
// one client the delta since the previous read is exactly that op's.
func (b *bench) exec(ctx context.Context, st *stack) (func(int, Op) outcome, error) {
	plain := func(i int, op Op) outcome { return execOp(ctx, st.api, op, i < keepV1Results) }
	if !b.w.Cluster {
		return plain, nil
	}
	if b.w.Clients != 1 {
		return nil, fmt.Errorf("%s: per-op plan-cache misses need one client, not %d", b.w.Name, b.w.Clients)
	}
	last, err := st.workerPlanMisses(ctx)
	if err != nil {
		return nil, err
	}
	return func(i int, op Op) outcome {
		o := plain(i, op)
		n, err := st.workerPlanMisses(ctx)
		if err != nil {
			o.err = errors.Join(o.err, err)
			return o
		}
		o.misses, last = n-last, n
		return o
	}, nil
}

// run is the untraced run: the end-to-end metrics.
func (b *bench) run(ctx context.Context) (*result, error) {
	var win window
	var cpu, rss float64
	var next atomic.Int64
	setup, err := b.withStack(ctx, setupsBefore, func(st *stack) error {
		exec, err := b.exec(ctx, st)
		if err != nil {
			return err
		}
		cpu0, err := st.cpuSeconds()
		if err != nil {
			return err
		}
		win = runClosedLoop(ctx, b.w, &next, b.window, exec)
		cpu1, err := st.cpuSeconds()
		if err != nil {
			return err
		}
		cpu = cpu1 - cpu0
		rss, err = st.rssPeakMB()
		return err
	})
	if err != nil {
		return nil, err
	}
	after, err := b.setUpAndStop(ctx, setupsAfter)
	if err != nil {
		return nil, err
	}
	b.logf("set up %d more times: %s s", setupsAfter, fmtList(after))
	setup = append(setup, after...)
	res, err := b.verify(ctx, win)
	if err != nil {
		return nil, err
	}
	ok := win.ok()
	var lat, first []float64
	for _, o := range ok {
		lat = append(lat, ms(o.lat))
		first = append(first, ms(o.first))
	}
	n := len(ok)
	b.put("throughput_rps", win.rps(), "1/s")
	b.put("lat_p50_ms", percentile(lat, 0.5), "ms")
	b.put("lat_p90_ms", percentile(lat, 0.9), "ms")
	b.put("first_result_p50_ms", percentile(first, 0.5), "ms")
	b.put("ok_rate", 1-float64(res.Failed)/float64(res.Attempted), "ratio")
	b.put("server_cpu_ms_per_op", 1000*cpu/float64(max(n, 1)), "ms")
	b.put("server_rss_peak_mb", rss, "MiB")
	b.put("setup_s", median(setup), "s")
	fmt.Printf("workload %s seed %d: %d clients, closed loop, %d ops in %.2fs\n", b.w.Name, b.seed, b.w.Clients, n, win.elapsed.Seconds())
	fmt.Printf("  error_rate %.4f (%d of %d ops failed)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, p := range []string{"lat_p50_ms", "lat_p90_ms", "first_result_p50_ms"} {
		fmt.Printf("  %-22s %10.3f ms  (n=%d)\n", p, b.m[p].Value, n)
	}
	fmt.Printf("  setup_s %.3f s (median of %d set-ups: %s)\n", median(setup), len(setup), fmtList(setup))
	res.Metrics = b.m
	return res, nil
}

// verify counts failures - transport and job errors plus a seeded
// sample of responses that differ from the in-process reference - and
// checks the exact cycle certificates. It reads the v2 results' cached
// flags, out of the timed window, and prints the op category shares.
func (b *bench) verify(ctx context.Context, win window) (*result, error) {
	res := &result{Correct: true, Attempted: len(win.outcomes)}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no op completed")
	}
	var ok []outcome
	for i := range win.outcomes {
		o := &win.outcomes[i]
		if o.err == nil && o.timings != nil {
			o.hits, o.lookups, o.err = countHits(o.result)
		}
		if o.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", o.index, o.err)
			continue
		}
		if o.v1 != nil || o.result != nil {
			ok = append(ok, *o)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].index < ok[j].index })
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	defer b.logf("checked outputs")
	rng := rand.New(rand.NewSource(b.seed))
	for _, k := range rng.Perm(len(ok))[:min(checkSample, len(ok))] {
		o := ok[k]
		if err := ref.check(ctx, b.w.Op(o.index), o); err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "op %d: reference check failed: %v\n", o.index, err)
		}
	}
	if err := checkCertificates(ctx); err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, err)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	printShares(win)
	return res, nil
}

// shares returns the share of successful ops in each category, as the
// server reported it, and how many ops it could not classify.
func shares(win window) (out [numCategories]float64, unknown int) {
	ok := win.ok()
	for _, o := range ok {
		if c := o.category(); c == CatUnknown {
			unknown++
		} else {
			out[c] += 1 / float64(len(ok))
		}
	}
	return out, unknown
}

// printShares prints the category shares and the result lookups they
// rest on.
func printShares(win window) {
	s, unknown := shares(win)
	var parts []string
	for c, v := range s {
		parts = append(parts, fmt.Sprintf("%s %.3f", categoryNames[c], v))
	}
	hits, lookups := servedHits(win)
	fmt.Printf("  server-reported op shares (n=%d): %s; unclassified v1 misses %d; result hits %d of %d lookups\n",
		len(win.ok()), strings.Join(parts, ", "), unknown, hits, lookups)
}

// servedHits sums the result lookups of the successful ops and how
// many the server answered from its result cache.
func servedHits(win window) (hits, lookups int) {
	for _, o := range win.ok() {
		hits += o.hits
		lookups += o.lookups
	}
	return hits, lookups
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
