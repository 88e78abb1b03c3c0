package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/profile"
	"drmap/internal/service"
	"drmap/internal/tiling"
)

// simJobFor resolves a simulate job for a backend the way the service
// does: one DSE pass under a single schedule and policy picks each
// layer's design point, and those become the job's layer specs.
func simJobFor(t *testing.T, backendID string, net cnn.Network, parallel bool) service.SimulateJob {
	t.Helper()
	b, ok := dram.Lookup(backendID)
	if !ok {
		t.Fatalf("backend %q not registered", backendID)
	}
	p, err := profile.CharacterizeBackend(b)
	if err != nil {
		t.Fatalf("characterize %s: %v", backendID, err)
	}
	ac := accel.TableII()
	ev, err := core.NewEvaluator(p, ac, 1)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	pol := mapping.TableI()[0]
	res, err := core.RunDSE(net, ev, tiling.Schedules[:1], []mapping.Policy{pol})
	if err != nil {
		t.Fatalf("RunDSE: %v", err)
	}
	specs := make([]core.LayerSpec, len(res.Layers))
	for i, lr := range res.Layers {
		specs[i] = core.LayerSpec{Layer: lr.Layer, Tiling: lr.Best.Tiling, Schedule: lr.Best.Schedule, Batch: 1}
	}
	return service.SimulateJob{
		Backend: b, Policy: pol, Specs: specs,
		BytesPerElement: ac.BytesPerElement, Parallel: parallel,
	}
}

// localSim runs the reference simulation on the local serial engine.
func localSim(t *testing.T, job service.SimulateJob) []core.SimLayerResult {
	t.Helper()
	res, err := core.SimulateNetwork(context.Background(), job.Backend.Config, job.Policy, job.Specs, core.SimOptions{
		Controller:      job.ControllerOptions(),
		BytesPerElement: job.BytesPerElement,
	})
	if err != nil {
		t.Fatalf("local SimulateNetwork: %v", err)
	}
	return res
}

// TestDistributedSimulateMatchesLocalAllPaperBackends is the simulate
// acceptance contract: coordinator + 2 workers, LeNet-5, all four paper
// backends - the merged distributed layer results are bit-for-bit
// identical to the local serial engine (reflect.DeepEqual compares
// every cycle count, command tally, and energy float64 exactly), with
// the workers themselves running the parallel engine.
func TestDistributedSimulateMatchesLocalAllPaperBackends(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	w1 := newTestWorker(t, "w1", nil)
	w2 := newTestWorker(t, "w2", nil)
	w1.register(coord)
	w2.register(coord)
	net := cnn.LeNet5()
	for _, id := range []string{"ddr3", "salp1", "salp2", "masa"} {
		job := simJobFor(t, id, net, true)
		serial := localSim(t, job)
		dist, err := coord.RunSimulate(context.Background(), job)
		if err != nil {
			t.Fatalf("%s: distributed RunSimulate: %v", id, err)
		}
		if !reflect.DeepEqual(serial, dist) {
			t.Errorf("%s: distributed simulate diverged from local serial\nserial: %+v\ndistributed: %+v", id, serial, dist)
		}
	}
	if w1.worker.ShardsServed() == 0 || w2.worker.ShardsServed() == 0 {
		t.Errorf("dispatch did not use both workers (w1=%d, w2=%d shards)",
			w1.worker.ShardsServed(), w2.worker.ShardsServed())
	}
}

// TestDistributedSimulateSurvivesWorkerDeathMidShard kills one of two
// workers mid-run (its connections drop after it has served one shard)
// and requires the retried result to stay bit-for-bit identical to the
// local serial engine.
func TestDistributedSimulateSurvivesWorkerDeathMidShard(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	healthy := newTestWorker(t, "healthy", nil)
	dying := newTestWorker(t, "dying", func(n int64) bool { return n > 1 })
	healthy.register(coord)
	dying.register(coord)

	job := simJobFor(t, "ddr3", cnn.LeNet5(), true)
	serial := localSim(t, job)
	checkLeaks := goroutineBaseline(t, coord)
	dist, err := coord.RunSimulate(context.Background(), job)
	if err != nil {
		t.Fatalf("distributed RunSimulate with dying worker: %v", err)
	}
	checkLeaks()
	if !reflect.DeepEqual(serial, dist) {
		t.Error("distributed simulate diverged from local serial after worker death")
	}
	if coord.retries.Value() == 0 {
		t.Error("expected shard retries after the worker died mid-run")
	}
	if len(coord.Membership().Live()) != 1 {
		t.Errorf("dead worker still listed live: %v", coord.Membership().Live())
	}
}

// TestDistributedSimulateFailsOverLocally: with no live workers (or all
// dead), RunSimulate wraps service.ErrNoWorkers - and a Service wired
// to the coordinator serves the simulate request from its local engine
// with the exact same result.
func TestDistributedSimulateFailsOverLocally(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	job := simJobFor(t, "salp2", cnn.LeNet5(), false)
	if _, err := coord.RunSimulate(context.Background(), job); !errors.Is(err, service.ErrNoWorkers) {
		t.Fatalf("empty membership: got %v, want an error wrapping service.ErrNoWorkers", err)
	}
	dead := newTestWorker(t, "dead", func(int64) bool { return true })
	dead.register(coord)
	if _, err := coord.RunSimulate(context.Background(), job); !errors.Is(err, service.ErrNoWorkers) {
		t.Fatalf("all-dead membership: got %v, want an error wrapping service.ErrNoWorkers", err)
	}

	// The same topology behind a service: the request is served locally.
	svc := service.New(service.Options{Workers: 2, CacheEntries: 8, Runner: coord})
	resp, err := svc.Simulate(context.Background(), service.SimulateRequest{Arch: "salp2", Network: "lenet5"})
	if err != nil {
		t.Fatalf("simulate with only failing workers: %v", err)
	}
	if resp.Network == "" || len(resp.Layers) == 0 {
		t.Errorf("local fallback returned %+v, want a populated network response", resp)
	}
}

// TestDistributedSimulateThroughService drives the full runner wiring:
// a Service whose Runner is the coordinator distributes a network-mode
// simulate request across two workers and answers identically to a
// standalone Service simulating locally.
func TestDistributedSimulateThroughService(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	w1 := newTestWorker(t, "w1", nil)
	w2 := newTestWorker(t, "w2", nil)
	w1.register(coord)
	w2.register(coord)
	svc := service.New(service.Options{Workers: 2, CacheEntries: 8, Runner: coord})
	local := service.New(service.Options{Workers: 2, CacheEntries: 8})

	req := service.SimulateRequest{Arch: "masa", Network: "lenet5", Engine: "parallel"}
	dist, err := svc.Simulate(context.Background(), req)
	if err != nil {
		t.Fatalf("distributed simulate: %v", err)
	}
	want, err := local.Simulate(context.Background(), service.SimulateRequest{Arch: "masa", Network: "lenet5"})
	if err != nil {
		t.Fatalf("local simulate: %v", err)
	}
	dist.Cached = want.Cached
	if !reflect.DeepEqual(dist, want) {
		t.Errorf("distributed simulate response diverged from local:\ndistributed: %+v\nlocal:       %+v", dist, want)
	}
	if coord.completed.Value() == 0 {
		t.Error("the service's simulate request dispatched no shards")
	}
}

// TestMergeSimRejectsBadLayers: out-of-range, duplicate, or missing
// layer indices fail the merge instead of silently corrupting the
// assembled result.
func TestMergeSimRejectsBadLayers(t *testing.T) {
	ok := [][]core.SimLayerResult{{{Index: 0}}, {{Index: 1}}}
	if _, err := MergeSim(2, ok); err != nil {
		t.Fatalf("well-formed merge rejected: %v", err)
	}
	for name, shards := range map[string][][]core.SimLayerResult{
		"out of range": {{{Index: 2}}, {{Index: 0}}},
		"negative":     {{{Index: -1}}, {{Index: 0}}},
		"duplicate":    {{{Index: 0}}, {{Index: 0}}},
		"missing":      {{{Index: 0}}},
	} {
		if _, err := MergeSim(2, shards); err == nil {
			t.Errorf("%s: merge accepted malformed shard set", name)
		}
	}
}

// TestSimShardRequestRoundTripsExactly pins the simulate wire format:
// a simulate ShardRequest and a SimLayers-bearing ShardResponse survive
// JSON encode/decode unchanged - specs, command tallies, float64
// energies and all - which is what placement-merge exactness rests on.
func TestSimShardRequestRoundTripsExactly(t *testing.T) {
	job := simJobFor(t, "hbm2", cnn.LeNet5(), true)
	req := ShardRequest{Sim: &job, Span: core.ColumnSpan{Start: 1, End: 3}, Shard: 1, Total: 3}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back ShardRequest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Errorf("simulate ShardRequest did not round-trip:\nsent: %+v\ngot:  %+v", req, back)
	}

	svc := service.New(service.Options{Workers: 2, CacheEntries: 8})
	layers, err := svc.EvaluateSimShard(context.Background(), job, core.ColumnSpan{Start: 0, End: 2})
	if err != nil {
		t.Fatalf("EvaluateSimShard: %v", err)
	}
	resp := ShardResponse{WorkerID: "w", SimLayers: layers}
	rb, err := json.Marshal(resp)
	if err != nil {
		t.Fatalf("marshal response: %v", err)
	}
	var rback ShardResponse
	if err := json.Unmarshal(rb, &rback); err != nil {
		t.Fatalf("unmarshal response: %v", err)
	}
	if !reflect.DeepEqual(resp, rback) {
		t.Error("simulate ShardResponse did not round-trip bit-for-bit")
	}
}
