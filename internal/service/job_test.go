package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drmap/internal/core"
	"drmap/internal/obs"
)

// blockingRunner parks every DSE until released, giving tests a
// deterministically long-running job. Releasing makes it fall back to
// the local pool via ErrNoWorkers.
type blockingRunner struct{ release chan struct{} }

func (r *blockingRunner) RunDSE(ctx context.Context, job DSEJob, _ []core.LayerGrid) (*core.DSEResult, error) {
	select {
	case <-r.release:
		return nil, fmt.Errorf("runner drained: %w", ErrNoWorkers)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// goroutineBaseline records the live goroutine count and returns a
// check that fails the test unless the count falls back to it: every
// executor, detached-evaluation and wait goroutine the test started
// must exit. Idle keep-alive connections of the default client are
// closed first, since their goroutines outlive a request by design.
func goroutineBaseline(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			http.DefaultClient.CloseIdleConnections()
			n := runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines still running, %d before the test:\n%s", n, base, buf[:runtime.Stack(buf, true)])
				return
			}
		}
	}
}

func waitTerminal(t *testing.T, jm *JobManager, id string) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	v, err := jm.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait for %s: %v", id, err)
	}
	return v
}

// TestJobLifecycleDSE: a submitted DSE job runs to succeeded with a
// decodable result, full column progress, and one layer event per
// layer in commit order within the log.
func TestJobLifecycleDSE(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 8})
	jm := NewJobManager(svc, JobManagerOptions{})
	req := DSERequest{Arch: "ddr3", Network: "lenet5"}
	view, err := jm.Submit(context.Background(), JobRequest{Kind: "dse", DSE: &req})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if view.Kind != JobDSE || view.State.Terminal() {
		t.Fatalf("fresh job view %+v", view)
	}
	final := waitTerminal(t, jm, view.ID)
	if final.State != JobSucceeded || final.Error != "" {
		t.Fatalf("final state %s (%s), want succeeded", final.State, final.Error)
	}
	var resp DSEResponse
	if err := json.Unmarshal(final.Result, &resp); err != nil {
		t.Fatalf("decode job result: %v", err)
	}
	direct, err := svc.DSE(context.Background(), req)
	if err != nil {
		t.Fatalf("direct DSE: %v", err)
	}
	if !reflect.DeepEqual(resp.Result, direct.Result) {
		t.Error("job result diverged from the direct service result")
	}

	p := final.Progress
	if p.ColumnsTotal == 0 || p.ColumnsDone != p.ColumnsTotal {
		t.Errorf("progress %+v, want all announced columns done", p)
	}
	events, _, terminal := jm.jobs[view.ID].eventsSince(0)
	if !terminal {
		t.Fatal("terminal job's log not marked terminal")
	}
	var layerIdx []int
	var last JobEvent
	for _, e := range events {
		if e.Type == EventLayer {
			layerIdx = append(layerIdx, e.Index)
		}
		last = e
	}
	if len(layerIdx) != p.LayersDone || len(layerIdx) == 0 {
		t.Errorf("layer events %v vs layers_done %d", layerIdx, p.LayersDone)
	}
	if last.Type != EventState || last.State != JobSucceeded {
		t.Errorf("log does not end with the terminal state event: %+v", last)
	}
	for i, e := range events[:len(events)-1] {
		if e.Seq >= events[i+1].Seq {
			t.Fatalf("event seqs not strictly increasing: %d then %d", e.Seq, events[i+1].Seq)
		}
	}
}

// TestJobSyncMatchesDirect: the v1 synchronous wrappers return exactly
// what the direct Service methods return - results and errors both.
func TestJobSyncMatchesDirect(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 16})
	jm := NewJobManager(svc, JobManagerOptions{})
	ctx := context.Background()

	direct, err := svc.DSE(ctx, DSERequest{Arch: "salp1", Network: "lenet5"})
	if err != nil {
		t.Fatalf("direct DSE: %v", err)
	}
	viaJobs, err := jm.SyncDSE(ctx, DSERequest{Arch: "salp1", Network: "lenet5"})
	if err != nil {
		t.Fatalf("SyncDSE: %v", err)
	}
	if !reflect.DeepEqual(viaJobs.Result, direct.Result) {
		t.Error("SyncDSE result diverged from Service.DSE")
	}
	if !viaJobs.Cached {
		t.Error("identical repeat through the job manager missed the cache")
	}

	// Error texts match because validation reuses the same parsers in
	// the same order.
	_, directErr := svc.DSE(ctx, DSERequest{Arch: "nope", Network: "lenet5"})
	_, jobErr := jm.SyncDSE(ctx, DSERequest{Arch: "nope", Network: "lenet5"})
	if directErr == nil || jobErr == nil || directErr.Error() != jobErr.Error() {
		t.Errorf("error texts diverge:\ndirect: %v\njobs:   %v", directErr, jobErr)
	}
	_, directErr = svc.Sweep(ctx, SweepRequest{Kind: "nope"})
	_, jobErr = jm.SyncSweep(ctx, SweepRequest{Kind: "nope"})
	if directErr == nil || jobErr == nil || directErr.Error() != jobErr.Error() {
		t.Errorf("sweep error texts diverge:\ndirect: %v\njobs:   %v", directErr, jobErr)
	}
	_, directErr = svc.Batch(ctx, BatchRequest{})
	_, jobErr = jm.SyncBatch(ctx, BatchRequest{})
	if directErr == nil || jobErr == nil || directErr.Error() != jobErr.Error() {
		t.Errorf("batch error texts diverge:\ndirect: %v\njobs:   %v", directErr, jobErr)
	}
}

// TestJobCancel: canceling a running job transitions it to canceled
// promptly (the evaluation detaches); canceling again is
// ErrJobFinished, canceling the unknown is ErrJobNotFound; once the
// detached evaluation completes, every goroutine the job started exits.
func TestJobCancel(t *testing.T) {
	checkLeaks := goroutineBaseline(t)
	runner := &blockingRunner{release: make(chan struct{})}
	svc := New(Options{Workers: 1, CacheEntries: 8, Runner: runner})
	jm := NewJobManager(svc, JobManagerOptions{})

	view, err := jm.Submit(context.Background(), JobRequest{Kind: "dse", DSE: &DSERequest{Arch: "ddr3", Network: "lenet5"}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := jm.Cancel(view.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	final := waitTerminal(t, jm, view.ID)
	if final.State != JobCanceled {
		t.Fatalf("state %s after cancel, want canceled", final.State)
	}
	if _, err := jm.Cancel(view.ID); !errors.Is(err, ErrJobFinished) {
		t.Errorf("second cancel: %v, want ErrJobFinished", err)
	}
	if _, err := jm.Cancel("job-999"); !errors.Is(err, ErrJobNotFound) {
		t.Errorf("cancel unknown: %v, want ErrJobNotFound", err)
	}

	// The canceled job's evaluation completes detached (and is cached);
	// its late progress reports must not leak past the terminal state
	// event - the stream contract says that event ends the log.
	eventsAtCancel := final.Events
	close(runner.release) // unblock: the evaluation falls back to the local pool
	deadline := time.Now().Add(time.Minute)
	for svc.Evaluations() < 2 { // ddr3 profile + the detached DSE
		if time.Now().After(deadline) {
			t.Fatal("detached evaluation never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	after, ok := jm.Get(view.ID)
	if !ok {
		t.Fatal("canceled job gone")
	}
	if after.Events != eventsAtCancel {
		t.Errorf("events grew %d -> %d after the terminal state", eventsAtCancel, after.Events)
	}
	events, _, _ := jm.jobs[view.ID].eventsSince(0)
	if last := events[len(events)-1]; last.Type != EventState || last.State != JobCanceled {
		t.Errorf("log no longer ends with the terminal state event: %+v", last)
	}
	checkLeaks()
}

// TestJobStoreTTLAndBound: terminal jobs age out at the TTL, a full
// store evicts the oldest terminal job to admit a new one, and a store
// of only active jobs rejects the submit.
func TestJobStoreTTLAndBound(t *testing.T) {
	// The clock is read from job goroutines, so it must be atomic.
	var nowNanos atomic.Int64
	nowNanos.Store(time.Unix(1000, 0).UnixNano())
	clock := func() time.Time { return time.Unix(0, nowNanos.Load()) }
	runner := &blockingRunner{release: make(chan struct{})}
	defer close(runner.release)
	svc := New(Options{Workers: 1, CacheEntries: 8, Runner: runner})
	jm := NewJobManager(svc, JobManagerOptions{MaxJobs: 2, TTL: time.Minute, Now: clock})

	// A fast terminal job: invalid batch items still make the batch
	// itself succeed per-item... use a characterize of a known backend
	// via the local path (the runner only blocks DSE).
	done, err := jm.Submit(context.Background(), JobRequest{Kind: "characterize", Characterize: &CharacterizeRequest{Archs: []string{"ddr3"}}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, jm, done.ID)

	// Fill the store with an active job.
	active, err := jm.Submit(context.Background(), JobRequest{Kind: "dse", DSE: &DSERequest{Arch: "ddr3", Network: "lenet5"}})
	if err != nil {
		t.Fatalf("submit active: %v", err)
	}
	// Store full (terminal + active): the terminal one is evicted to
	// admit the next.
	active2, err := jm.Submit(context.Background(), JobRequest{Kind: "dse", DSE: &DSERequest{Arch: "salp1", Network: "lenet5"}})
	if err != nil {
		t.Fatalf("submit at capacity: %v", err)
	}
	if _, ok := jm.Get(done.ID); ok {
		t.Error("terminal job survived bound eviction")
	}
	// Now both stored jobs are active: a further submit is rejected.
	if _, err := jm.Submit(context.Background(), JobRequest{Kind: "dse", DSE: &DSERequest{Arch: "masa", Network: "lenet5"}}); !errors.Is(err, ErrJobStoreFull) {
		t.Errorf("submit into full active store: %v, want ErrJobStoreFull", err)
	}
	// ...but v1 sync traffic must not starve: ephemeral jobs bypass the
	// capacity check (they self-drop once answered).
	if _, err := jm.SyncCharacterize(context.Background(), CharacterizeRequest{Archs: []string{"ddr3"}}); err != nil {
		t.Errorf("v1 sync call starved by a full v2 store: %v", err)
	}

	// TTL: cancel one, age it past the TTL, and watch it evict on the
	// next submit.
	if _, err := jm.Cancel(active.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, jm, active.ID)
	nowNanos.Add(int64(2 * time.Minute))
	if _, err := jm.Submit(context.Background(), JobRequest{Kind: "dse", DSE: &DSERequest{Arch: "salp2", Network: "lenet5"}}); err != nil {
		t.Fatalf("submit after TTL: %v", err)
	}
	if _, ok := jm.Get(active.ID); ok {
		t.Error("canceled job survived past its TTL")
	}
	if _, ok := jm.Get(active2.ID); !ok {
		t.Error("active job was evicted")
	}
}

// TestJobStoreEvictionOrder pins which jobs a submit evicts: past-TTL
// jobs by finish time, and in a full store the earliest-submitted
// terminal job - not the earliest-finished one, and never an active
// one, however early it was submitted.
func TestJobStoreEvictionOrder(t *testing.T) {
	var nowNanos atomic.Int64
	nowNanos.Store(time.Unix(1000, 0).UnixNano())
	clock := func() time.Time { return time.Unix(0, nowNanos.Load()) }
	runner := &blockingRunner{release: make(chan struct{})}
	defer close(runner.release)
	svc := New(Options{Workers: 1, CacheEntries: 8, Runner: runner})
	jm := NewJobManager(svc, JobManagerOptions{MaxJobs: 3, TTL: time.Minute, Now: clock})
	submit := func(req JobRequest) string {
		t.Helper()
		v, err := jm.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		return v.ID
	}
	dse := func(arch string) JobRequest {
		return JobRequest{Kind: "dse", DSE: &DSERequest{Arch: arch, Network: "lenet5"}}
	}
	characterize := JobRequest{Kind: "characterize", Characterize: &CharacterizeRequest{Archs: []string{"ddr3"}}}
	stored := func(step string, want ...string) {
		t.Helper()
		var got []string
		for _, v := range jm.List(JobFilter{}) {
			got = append([]string{v.ID}, got...) // List is newest first
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: stored jobs %v, want %v", step, got, want)
		}
	}

	// Submission order active, early, late; finish order late, early.
	active := submit(dse("ddr3")) // blocks in the runner
	early := submit(dse("salp1"))
	late := submit(characterize)
	waitTerminal(t, jm, late)
	nowNanos.Add(int64(30 * time.Second))
	if _, err := jm.Cancel(early); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, jm, early)

	// Full store: the earliest-submitted terminal job goes, though it
	// finished last; the active job stays.
	next := submit(characterize)
	stored("first eviction", active, late, next)
	waitTerminal(t, jm, next)
	// TTL: late finished 30 s before next, so 70 s on only late is
	// past the one-minute TTL, and the store is no longer full.
	nowNanos.Add(int64(40 * time.Second))
	last := submit(characterize)
	stored("TTL eviction", active, next, last)
	waitTerminal(t, jm, last)
	// Full again with one active job: the earlier terminal job goes.
	final := submit(characterize)
	stored("second eviction", active, last, final)
}

// TestJobStoreConcurrentEviction: v2 submits that keep evicting and v1
// sync jobs that drop themselves, from several goroutines at once,
// leave the store within its bound with the eviction index (the
// listing, the finish-time list, the terminal heap) and the gauges in
// step with the job map.
func TestJobStoreConcurrentEviction(t *testing.T) {
	const maxJobs = 6
	svc := New(Options{Workers: 2, CacheEntries: 8})
	jm := NewJobManager(svc, JobManagerOptions{MaxJobs: maxJobs})
	characterize := JobRequest{Kind: "characterize", Characterize: &CharacterizeRequest{Archs: []string{"ddr3"}}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				v, err := jm.Submit(context.Background(), characterize)
				if errors.Is(err, ErrJobStoreFull) {
					continue // every stored job still running: legal
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if _, err := jm.Wait(context.Background(), v.ID); err != nil {
					t.Errorf("wait %s: %v", v.ID, err)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := jm.SyncCharacterize(context.Background(), *characterize.Characterize); err != nil {
					t.Errorf("sync characterize: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	jm.mu.Lock()
	defer jm.mu.Unlock()
	if jm.persistent > maxJobs || len(jm.jobs) != jm.persistent {
		t.Errorf("store holds %d jobs, %d persistent; bound %d, and v1 jobs must all be dropped", len(jm.jobs), jm.persistent, maxJobs)
	}
	if jm.order.Len() != len(jm.jobs) || jm.finished.Len() != len(jm.jobs) || len(jm.terminal) != len(jm.jobs) {
		t.Errorf("index out of step: %d jobs, %d listed, %d finished, %d in the heap",
			len(jm.jobs), jm.order.Len(), jm.finished.Len(), len(jm.terminal))
	}
	for i, j := range jm.terminal {
		if j.heapIdx != i || jm.jobs[j.id] != j {
			t.Errorf("heap slot %d holds %s with index %d", i, j.id, j.heapIdx)
		}
	}
	page, err := obs.ParseExposition(svc.MetricsText())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := page.Value("drmap_jobs_stored", nil); got != float64(len(jm.jobs)) {
		t.Errorf("drmap_jobs_stored = %v, store holds %d", got, len(jm.jobs))
	}
}

// TestJobStoreGauges: the job-store series follow the store itself -
// admissions, state transitions, TTL evictions and ephemeral v1 jobs
// dropped once answered.
func TestJobStoreGauges(t *testing.T) {
	var nowNanos atomic.Int64
	nowNanos.Store(time.Unix(1000, 0).UnixNano())
	clock := func() time.Time { return time.Unix(0, nowNanos.Load()) }
	svc := New(Options{Workers: 1, CacheEntries: 8})
	jm := NewJobManager(svc, JobManagerOptions{TTL: time.Minute, Now: clock})
	characterize := JobRequest{Kind: "characterize", Characterize: &CharacterizeRequest{Archs: []string{"ddr3"}}}
	check := func(step string, want map[string]float64) {
		t.Helper()
		page, err := obs.ParseExposition(svc.MetricsText())
		if err != nil {
			t.Fatalf("%s: /metrics unparseable: %v", step, err)
		}
		for name, w := range want {
			if got, ok := page.Value(name, nil); !ok || got != w {
				t.Errorf("%s: %s = %v, %v; want %v", step, name, got, ok, w)
			}
		}
	}

	first, err := jm.Submit(context.Background(), characterize)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, jm, first.ID)
	check("one finished job", map[string]float64{
		"drmap_jobs_submitted_total": 1, "drmap_jobs_evicted_total": 0,
		"drmap_jobs_active": 0, "drmap_jobs_stored": 1,
	})

	nowNanos.Add(int64(2 * time.Minute))
	second, err := jm.Submit(context.Background(), characterize)
	if err != nil {
		t.Fatalf("submit after TTL: %v", err)
	}
	waitTerminal(t, jm, second.ID)
	if _, err := jm.SyncCharacterize(context.Background(), *characterize.Characterize); err != nil {
		t.Fatalf("sync characterize: %v", err)
	}
	check("after TTL eviction and a v1 call", map[string]float64{
		"drmap_jobs_submitted_total": 3, "drmap_jobs_evicted_total": 1,
		"drmap_jobs_active": 0, "drmap_jobs_stored": 1,
	})
}

// TestJobValidation: bad submits fail synchronously with clear errors
// instead of producing failed jobs.
func TestJobValidation(t *testing.T) {
	svc := New(Options{Workers: 1, CacheEntries: 4})
	jm := NewJobManager(svc, JobManagerOptions{})
	cases := []struct {
		name string
		req  JobRequest
		want string
	}{
		{"unknown kind", JobRequest{Kind: "emulate"}, "unknown job kind"},
		{"simulate without payload", JobRequest{Kind: "simulate"}, `needs a "simulate" payload`},
		{"simulate bad engine", JobRequest{Kind: "simulate", Simulate: &SimulateRequest{Arch: "ddr3", Network: "lenet5", Engine: "quantum"}}, "unknown engine"},
		{"simulate layer and network", JobRequest{Kind: "simulate", Simulate: &SimulateRequest{Arch: "ddr3", Network: "lenet5", Layer: LayerJSON{Name: "c1", H: 8, W: 8, J: 3, I: 3, P: 3, Q: 3, Stride: 1}}}, "not both"},
		{"missing payload", JobRequest{Kind: "dse"}, `needs a "dse" payload`},
		{"mismatched payload", JobRequest{Kind: "dse", DSE: &DSERequest{Arch: "ddr3", Network: "lenet5"}, Batch: &BatchRequest{}}, "exactly the one payload"},
		{"bad backend", JobRequest{Kind: "dse", DSE: &DSERequest{Arch: "ddr9", Network: "lenet5"}}, "ddr9"},
		{"bad sweep kind", JobRequest{Kind: "sweep", Sweep: &SweepRequest{Kind: "nope"}}, "unknown sweep kind"},
		{"empty batch", JobRequest{Kind: "batch", Batch: &BatchRequest{}}, "no jobs"},
	}
	for _, c := range cases {
		_, err := jm.Submit(context.Background(), c.req)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want substring %q", c.name, err, c.want)
		}
	}
	if len(jm.List(JobFilter{})) != 0 {
		t.Error("rejected submits left jobs in the store")
	}
}

// TestJobListFilters: listing is newest-first and honors kind/state/
// limit filters.
func TestJobListFilters(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 8})
	jm := NewJobManager(svc, JobManagerOptions{})
	a, err := jm.Submit(context.Background(), JobRequest{Kind: "characterize", Characterize: &CharacterizeRequest{Archs: []string{"ddr3"}}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := jm.Submit(context.Background(), JobRequest{Kind: "dse", DSE: &DSERequest{Arch: "ddr3", Network: "lenet5"}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, jm, a.ID)
	waitTerminal(t, jm, b.ID)

	all := jm.List(JobFilter{})
	if len(all) != 2 || all[0].ID != b.ID || all[1].ID != a.ID {
		t.Fatalf("list %+v, want [%s %s]", all, b.ID, a.ID)
	}
	if all[0].Result != nil {
		t.Error("listing leaked a result payload")
	}
	dse := jm.List(JobFilter{Kind: "dse"})
	if len(dse) != 1 || dse[0].ID != b.ID {
		t.Errorf("kind filter returned %+v", dse)
	}
	if got := jm.List(JobFilter{State: "succeeded", Limit: 1}); len(got) != 1 {
		t.Errorf("limit filter returned %d jobs", len(got))
	}
	if got := jm.List(JobFilter{State: "running"}); len(got) != 0 {
		t.Errorf("state filter returned %+v", got)
	}
}

// TestJobBatchPartialOnCancel: a canceled batch job keeps the items
// that finished before the cancel and reports state canceled. Once the
// held item's detached evaluation is released, no goroutine the job
// started survives.
func TestJobBatchPartialOnCancel(t *testing.T) {
	checkLeaks := goroutineBaseline(t)
	svc := New(Options{Workers: 1, CacheEntries: 16})
	jm := NewJobManager(svc, JobManagerOptions{})
	// Warm one item so it is an instant cache hit, then hold every
	// fresh DSE until released.
	if _, err := svc.DSE(context.Background(), DSERequest{Arch: "ddr3", Network: "lenet5"}); err != nil {
		t.Fatal(err)
	}
	runner := &blockingRunner{release: make(chan struct{})}
	svc.SetRunner(runner)
	view, err := jm.Submit(context.Background(), JobRequest{Kind: "batch", Batch: &BatchRequest{Jobs: []DSERequest{
		{Arch: "ddr3", Network: "lenet5"},   // cached: finishes instantly
		{Arch: "salp2", Network: "alexnet"}, // fresh: held by the runner
	}}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first item to commit, then cancel.
	j, _ := jm.lookup(view.ID)
	deadline := time.Now().Add(time.Minute)
	for {
		j.mu.Lock()
		items := j.progress.ItemsDone
		j.mu.Unlock()
		if items >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first batch item never committed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := jm.Cancel(view.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, jm, view.ID)
	if final.State != JobCanceled {
		t.Fatalf("state %s, want canceled", final.State)
	}
	var resp BatchResponse
	if err := json.Unmarshal(final.Result, &resp); err != nil {
		t.Fatalf("canceled batch carries no decodable partial result: %v", err)
	}
	if resp.Results[0].Error != "" || resp.Results[0].Result == nil {
		t.Errorf("finished item lost on cancel: %+v", resp.Results[0])
	}
	if resp.Completed < 1 {
		t.Errorf("completed %d, want >= 1", resp.Completed)
	}
	close(runner.release)
	checkLeaks()
}

// TestJobSyncRunsOnCaller: a v1 sync job runs on the caller's goroutine
// yet stays in the store, and so in the listing, while it runs; it
// leaves the store once answered.
func TestJobSyncRunsOnCaller(t *testing.T) {
	runner := &blockingRunner{release: make(chan struct{})}
	svc := New(Options{Workers: 1, CacheEntries: 8, Runner: runner})
	jm := NewJobManager(svc, JobManagerOptions{})
	done := make(chan error, 1)
	go func() {
		_, err := jm.SyncDSE(context.Background(), DSERequest{Arch: "ddr3", Network: "lenet5"})
		done <- err
	}()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		if list := jm.List(JobFilter{State: string(JobRunning)}); len(list) == 1 && list[0].Kind == JobDSE {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the running v1 job never showed in the listing")
		}
	}
	close(runner.release)
	if err := <-done; err != nil {
		t.Fatalf("SyncDSE: %v", err)
	}
	if list := jm.List(JobFilter{}); len(list) != 0 {
		t.Errorf("answered v1 job still stored: %+v", list)
	}
}

// TestJobSyncPanicDropsJob: when a v1 job's executor panics, the panic
// reaches the caller (net/http's handler recovery in the daemon), and
// the job is dropped from the store rather than left running in it.
func TestJobSyncPanicDropsJob(t *testing.T) {
	const kind JobKind = "test-panic"
	jobKinds[kind] = jobKind{
		has: func(r JobRequest) bool { return r.Kind == string(kind) },
		resolve: func(*Service, JobRequest) (jobRun, error) {
			return jobRun{exec: func(context.Context, *jobSink) (any, error) { panic("executor bug") }}, nil
		},
	}
	t.Cleanup(func() { delete(jobKinds, kind) })
	svc := New(Options{Workers: 1, CacheEntries: 8})
	jm := NewJobManager(svc, JobManagerOptions{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the executor's panic did not reach the caller")
			}
		}()
		_, _ = runSync[DSEResponse](context.Background(), jm, JobRequest{Kind: string(kind)})
	}()
	if list := jm.List(JobFilter{}); len(list) != 0 {
		t.Errorf("panicked v1 job still stored: %+v", list)
	}
	page, err := obs.ParseExposition(svc.MetricsText())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"drmap_jobs_active", "drmap_jobs_stored"} {
		if got, ok := page.Value(name, nil); !ok || got != 0 {
			t.Errorf("%s = %v, %v after the panic; want 0", name, got, ok)
		}
	}
}
