package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"drmap/internal/accel"
	"drmap/internal/core"
	"drmap/internal/mapping"
	"drmap/internal/report"
	"drmap/internal/tiling"
)

// waitTerminalHTTP polls GET /api/v2/jobs/{id} until the job is
// terminal.
func waitTerminalHTTP(t *testing.T, baseURL, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		v := getJob(t, baseURL, id)
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never became terminal", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// simBlockingRunner parks simulate jobs until their context cancels
// or release closes (a nil release never does); DSE jobs fall straight
// through to the local pool. It gives cancel tests a deterministically
// long-running simulate job. A non-nil entered receives a signal as a
// simulation parks; releasing makes it fall back to the local engine
// via ErrNoWorkers.
type simBlockingRunner struct{ entered, release chan struct{} }

func (simBlockingRunner) RunDSE(ctx context.Context, job DSEJob, _ []core.LayerGrid) (*core.DSEResult, error) {
	return nil, fmt.Errorf("simBlockingRunner declines: %w", ErrNoWorkers)
}

func (r simBlockingRunner) RunSimulate(ctx context.Context, job SimulateJob) ([]core.SimLayerResult, error) {
	if r.entered != nil {
		r.entered <- struct{}{}
	}
	select {
	case <-r.release:
		return nil, fmt.Errorf("runner drained: %w", ErrNoWorkers)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestJobLifecycleSimulate: a network-mode simulate job submitted via
// the job manager runs to succeeded with a decodable result, one
// sim_layer event per layer, full column progress - and, because the
// engine choice is excluded from the cache key, a direct serial-engine
// call afterwards is answered from the parallel run's cache entry with
// the identical payload.
func TestJobLifecycleSimulate(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 8})
	jm := NewJobManager(svc, JobManagerOptions{})
	view, err := jm.Submit(context.Background(), JobRequest{
		Kind:     "simulate",
		Simulate: &SimulateRequest{Arch: "ddr3", Network: "lenet5", Engine: "parallel"},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if view.Kind != JobSimulate || view.State.Terminal() {
		t.Fatalf("fresh job view %+v", view)
	}
	final := waitTerminal(t, jm, view.ID)
	if final.State != JobSucceeded || final.Error != "" {
		t.Fatalf("final state %s (%s), want succeeded", final.State, final.Error)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(final.Result, &resp); err != nil {
		t.Fatalf("decode job result: %v", err)
	}
	if resp.Network == "" || len(resp.Layers) == 0 {
		t.Fatalf("network-mode response %+v, want named network with layers", resp)
	}

	p := final.Progress
	if p.ColumnsTotal != len(resp.Layers) || p.ColumnsDone != p.ColumnsTotal {
		t.Errorf("progress %+v, want %d/%d layers", p, len(resp.Layers), len(resp.Layers))
	}
	events, _, terminal := jm.jobs[view.ID].eventsSince(0)
	if !terminal {
		t.Fatal("terminal job's log not marked terminal")
	}
	seen := make(map[int]bool)
	for _, e := range events {
		if e.Type != EventSimLayer {
			continue
		}
		if e.SimLayer == nil || e.SimLayer.Index != e.Index {
			t.Fatalf("malformed sim_layer event %+v", e)
		}
		seen[e.Index] = true
	}
	if len(seen) != len(resp.Layers) {
		t.Errorf("saw %d distinct sim_layer events, want %d", len(seen), len(resp.Layers))
	}

	// Serial-engine request for the same simulation: same cache entry
	// (engine excluded from the key), identical payload.
	direct, err := svc.Simulate(context.Background(), SimulateRequest{Arch: "ddr3", Network: "lenet5"})
	if err != nil {
		t.Fatalf("direct simulate: %v", err)
	}
	if !direct.Cached {
		t.Error("serial request after a parallel run missed the shared cache entry")
	}
	direct.Cached = resp.Cached
	if !reflect.DeepEqual(*direct, resp) {
		t.Errorf("serial response diverged from the parallel job's:\n%+v\n%+v", *direct, resp)
	}
}

// TestJobSimulateCancel: canceling a running simulate job transitions
// it to canceled promptly, and once its detached evaluation is released
// every goroutine the job started exits.
func TestJobSimulateCancel(t *testing.T) {
	checkLeaks := goroutineBaseline(t)
	runner := simBlockingRunner{entered: make(chan struct{}, 1), release: make(chan struct{})}
	svc := New(Options{Workers: 1, CacheEntries: 8, Runner: runner})
	jm := NewJobManager(svc, JobManagerOptions{})
	view, err := jm.Submit(context.Background(), JobRequest{
		Kind:     "simulate",
		Simulate: &SimulateRequest{Arch: "ddr3", Network: "lenet5"},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-runner.entered // running, with its evaluation detached and parked
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
	close(runner.release)
	checkLeaks()
}

// TestSyncSimulateMatchesDirect: the v1 wrapper returns exactly what
// Service.Simulate returns, for results and errors both, in both
// single-layer and network mode.
func TestSyncSimulateMatchesDirect(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 16})
	jm := NewJobManager(svc, JobManagerOptions{})
	ctx := context.Background()

	single := SimulateRequest{
		Arch: "ddr3", Policy: 1,
		Layer:    LayerJSON{Name: "c1", H: 12, W: 12, J: 8, I: 4, P: 3, Q: 3, Stride: 1},
		Tiling:   report.TilingJSON{Th: 6, Tw: 6, Tj: 8, Ti: 4},
		Schedule: "ifms",
	}
	direct, err := svc.Simulate(ctx, single)
	if err != nil {
		t.Fatalf("direct simulate: %v", err)
	}
	viaJobs, err := jm.SyncSimulate(ctx, single)
	if err != nil {
		t.Fatalf("SyncSimulate: %v", err)
	}
	if viaJobs.Cost != direct.Cost || viaJobs.Layer != direct.Layer {
		t.Errorf("SyncSimulate diverged from Service.Simulate:\n%+v\n%+v", viaJobs, direct)
	}
	if !viaJobs.Cached {
		t.Error("identical repeat through the job manager missed the cache")
	}

	_, directErr := svc.Simulate(ctx, SimulateRequest{Arch: "ddr3", Network: "lenet5", Scheduler: "nope"})
	_, jobErr := jm.SyncSimulate(ctx, SimulateRequest{Arch: "ddr3", Network: "lenet5", Scheduler: "nope"})
	if directErr == nil || jobErr == nil || directErr.Error() != jobErr.Error() {
		t.Errorf("error texts diverge:\ndirect: %v\njobs:   %v", directErr, jobErr)
	}
}

// TestNetworkSimulatePickUsesPlanCache: a network simulate picks its
// design points through the count-plan cache. The picks equal the
// serial scan's, and a second simulate on a die-sharing backend under
// another scheduler reprices the first one's plans instead of counting.
func TestNetworkSimulatePickUsesPlanCache(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 16})
	ctx := context.Background()
	req := SimulateRequest{Arch: "ddr3", Network: "lenet5", Policy: 6}
	in, err := parseSimulate(req)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := svc.simSpecsFor(ctx, in)
	if err != nil {
		t.Fatalf("simSpecsFor: %v", err)
	}
	ev, err := svc.evaluatorFor(DSEJob{Backend: in.backend, Accel: accel.TableII(), Batch: in.batch})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := core.RunDSE(in.network, ev, []tiling.Schedule{in.sched}, []mapping.Policy{in.policy})
	if err != nil {
		t.Fatal(err)
	}
	for i, lr := range serial.Layers {
		want := core.LayerSpec{Layer: lr.Layer, Tiling: lr.Best.Tiling, Schedule: lr.Best.Schedule, Batch: in.batch}
		if !reflect.DeepEqual(specs[i], want) {
			t.Errorf("layer %d pick %+v, serial scan %+v", i, specs[i], want)
		}
	}

	cold := svc.PlanCacheStats()
	if cold.Misses == 0 {
		t.Fatal("the network pick counted no plan through the cache")
	}
	if _, err := svc.Simulate(ctx, SimulateRequest{Arch: "masa", Network: "lenet5", Policy: 6, Scheduler: "frfcfs"}); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	warm := svc.PlanCacheStats()
	if warm.Misses != cold.Misses || warm.Hits <= cold.Hits {
		t.Errorf("die-sharing re-pick: plan misses %d -> %d, hits %d -> %d; want a reprice", cold.Misses, warm.Misses, cold.Hits, warm.Hits)
	}
}

// TestHTTPV2SimulateSubmitStreamCancel: the v2 surface runs simulate
// jobs end to end - submit, stream sim_layer events, retrieve the
// result - and a second, held job cancels cleanly over DELETE. Once the
// held job's detached evaluation is released and the stream closed, no
// goroutine either job started survives.
func TestHTTPV2SimulateSubmitStreamCancel(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 16})
	ts := newTestServer(t, svc)
	checkLeaks := goroutineBaseline(t)

	view := submitJob(t, ts.URL, `{"kind":"simulate","simulate":{"arch":"salp2","network":"lenet5","engine":"parallel"}}`)
	streamResp, err := http.Get(ts.URL + "/api/v2/jobs/" + view.ID + "/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	dec := json.NewDecoder(streamResp.Body)
	simLayers, gotResult := 0, false
	for {
		var e JobEvent
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		switch e.Type {
		case EventSimLayer:
			simLayers++
		case EventResult:
			gotResult = true
		}
		if e.Type == EventState && e.State.Terminal() {
			if e.State != JobSucceeded {
				t.Fatalf("terminal state %s, want succeeded", e.State)
			}
			break
		}
	}
	if simLayers == 0 || !gotResult {
		t.Fatalf("stream carried %d sim_layer events (result: %v)", simLayers, gotResult)
	}
	final := getJob(t, ts.URL, view.ID)
	var resp SimulateResponse
	if err := json.Unmarshal(final.Result, &resp); err != nil {
		t.Fatalf("decode stored result: %v", err)
	}
	if resp.Network == "" || len(resp.Layers) != simLayers {
		t.Fatalf("stored result %+v, want %d layers", resp, simLayers)
	}

	// Cancel path: hold a fresh simulate job open, then DELETE it.
	runner := simBlockingRunner{entered: make(chan struct{}, 1), release: make(chan struct{})}
	svc.SetRunner(runner)
	held := submitJob(t, ts.URL, `{"kind":"simulate","simulate":{"arch":"ddr3","network":"lenet5"}}`)
	<-runner.entered // running, with its evaluation detached and parked
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v2/jobs/"+held.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", delResp.StatusCode)
	}
	deadline := waitTerminalHTTP(t, ts.URL, held.ID)
	if deadline.State != JobCanceled {
		t.Fatalf("held job state %s after DELETE, want canceled", deadline.State)
	}
	streamResp.Body.Close()
	close(runner.release)
	checkLeaks()
}
