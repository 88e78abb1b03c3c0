package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/service"
	"drmap/internal/tiling"
)

// placementCluster is a coordinator-backed Service plus two in-process
// workers over real HTTP. Every shard request is logged by (backend,
// objective, shard index) before the worker serves it, and while hold
// is set each one is delayed, so a batch's concurrent shards overlap.
type placementCluster struct {
	svc     *service.Service
	coord   *Coordinator
	workers []*service.Service
	hold    atomic.Bool

	mu     sync.Mutex
	served map[string]string // "backend/objective/shard" -> worker ID
}

func newPlacementCluster(t *testing.T) *placementCluster {
	t.Helper()
	pc := &placementCluster{
		svc:    service.New(service.Options{Workers: 2, CacheEntries: 64}),
		served: map[string]string{},
	}
	pc.coord = NewCoordinator(CoordinatorOptions{Registry: pc.svc.Registry()})
	pc.svc.SetRunner(pc.coord)
	for _, id := range []string{"w1", "w2"} {
		svc := service.New(service.Options{Workers: 2, CacheEntries: 32})
		mux := http.NewServeMux()
		NewWorker(svc, WorkerOptions{ID: id}).Mount(mux)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(io.LimitReader(r.Body, MaxShardBytes))
			if err != nil {
				t.Errorf("read shard body: %v", err)
				return
			}
			var req ShardRequest
			if err := json.Unmarshal(body, &req); err == nil && req.Sim == nil {
				pc.mu.Lock()
				pc.served[fmt.Sprintf("%s/%s/%d", req.Job.Backend.ID, req.Job.Objective, req.Shard)] = id
				pc.mu.Unlock()
			}
			if pc.hold.Load() {
				time.Sleep(100 * time.Millisecond)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			mux.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		pc.coord.Membership().Heartbeat(WorkerInfo{ID: id, URL: srv.URL, Capacity: 1})
		pc.workers = append(pc.workers, svc)
	}
	return pc
}

// workerOf reports which worker served a logged shard ("" if none).
func (pc *placementCluster) workerOf(backend string, obj core.Objective, shard int) string {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.served[fmt.Sprintf("%s/%s/%d", backend, obj, shard)]
}

// planMisses sums the workers' count-plan cache misses: one per layer
// run counted anywhere in the cluster.
func (pc *placementCluster) planMisses() int64 {
	var n int64
	for _, w := range pc.workers {
		n += w.PlanCacheStats().Misses
	}
	return n
}

// placementBackends are the 8 built-in DRAM systems: the paper's four
// share one die (one count signature), the other four count apart.
var placementBackends = []string{"ddr3", "salp1", "salp2", "masa", "ddr4", "hbm2", "lpddr3", "lpddr4"}

// placementStack is a small custom workload, cheap enough to count
// under the race detector.
var placementStack = []service.LayerJSON{
	{Name: "C1", H: 14, W: 14, J: 32, I: 16, P: 3, Q: 3, Stride: 1, Pad: 1},
	{Name: "C2", H: 14, W: 14, J: 48, I: 32, P: 3, Q: 3, Stride: 1, Pad: 1},
	{Name: "C3", H: 7, W: 7, J: 64, I: 48, P: 3, Q: 3, Stride: 1, Pad: 1},
}

// batch runs one 8-backend batch on placementStack under an objective
// through the coordinator and requires every item to be freshly
// evaluated and every shard dispatched.
func (pc *placementCluster) batch(t *testing.T, objective string) {
	t.Helper()
	req := service.BatchRequest{}
	for _, b := range placementBackends {
		req.Jobs = append(req.Jobs, service.DSERequest{Arch: b, Layers: placementStack, Objective: objective})
	}
	before := pc.coord.completed.Value()
	resp, err := pc.svc.Batch(context.Background(), req)
	if err != nil {
		t.Fatalf("%s batch: %v", objective, err)
	}
	for i, item := range resp.Results {
		if item.Error != "" || item.Result == nil || item.Result.Cached {
			t.Fatalf("%s batch item %d (%s): error %q, cached %v", objective, i, placementBackends[i], item.Error, item.Result != nil && item.Result.Cached)
		}
	}
	if got, want := pc.coord.completed.Value()-before, int64(len(req.Jobs)*2*DefaultShardsPerWorker); got != want {
		t.Fatalf("%s batch dispatched %v shards, want %v (no local fallback)", objective, got, want)
	}
}

// TestPlacementFollowsPlanSignature: the die-sharing backends under
// different objectives - one count signature - send span i to the same
// worker, spread over both workers, and each merges equal to its serial
// scan.
func TestPlacementFollowsPlanSignature(t *testing.T) {
	pc := newPlacementCluster(t)
	net := cnn.LeNet5()
	jobs := []struct {
		backend string
		obj     core.Objective
	}{{"ddr3", core.MinimizeEDP}, {"salp2", core.MinimizeEnergy}, {"masa", core.MinimizeDelay}}
	for _, j := range jobs {
		job := jobFor(t, j.backend, net)
		job.Objective = j.obj
		got, err := pc.coord.RunDSE(context.Background(), job, gridOf(t, job))
		if err != nil {
			t.Fatalf("%s/%s: %v", j.backend, j.obj, err)
		}
		if !reflect.DeepEqual(got, serialDSEObjective(t, j.backend, net, j.obj)) {
			t.Errorf("%s/%s: distributed DSE diverged from serial", j.backend, j.obj)
		}
	}
	perWorker := map[string]int{}
	for shard := 0; shard < 2*DefaultShardsPerWorker; shard++ {
		first := pc.workerOf(jobs[0].backend, jobs[0].obj, shard)
		if first == "" {
			t.Fatalf("shard %d of %s was never dispatched", shard, jobs[0].backend)
		}
		perWorker[first]++
		for _, j := range jobs[1:] {
			if got := pc.workerOf(j.backend, j.obj, shard); got != first {
				t.Errorf("shard %d: %s/%s ran on %q, %s/%s on %q; want one worker",
					shard, jobs[0].backend, jobs[0].obj, first, j.backend, j.obj, got)
			}
		}
	}
	if perWorker["w1"] != DefaultShardsPerWorker || perWorker["w2"] != DefaultShardsPerWorker {
		t.Errorf("spans per worker %v, want %d each", perWorker, DefaultShardsPerWorker)
	}
}

// TestPlacementSpreadsByCapacity: whatever slot its key starts at, each
// job splits its spans over the workers within one span of their
// capacity share.
func TestPlacementSpreadsByCapacity(t *testing.T) {
	for _, caps := range [][]int{{1, 1}, {1, 2}, {1, 3}, {2, 6}, {1, 7}, {4, 4}, {1, 1, 1}, {1, 2, 3}} {
		c := NewCoordinator(CoordinatorOptions{})
		total := 0
		for i, cp := range caps {
			c.Membership().Heartbeat(WorkerInfo{ID: fmt.Sprintf("w%d", i), URL: "http://w", Capacity: cp})
			total += cp
		}
		spans := len(caps) * DefaultShardsPerWorker
		for k := 0; k < 64; k++ {
			base := placementBase(fmt.Sprintf("job %d", k))
			counts := map[string]int{}
			for span := 0; span < spans; span++ {
				w, ok := c.pickWorker(base, span, 0)
				if !ok {
					t.Fatal("no worker picked")
				}
				counts[w.ID]++
			}
			for i, cp := range caps {
				share := float64(spans*cp) / float64(total)
				if got := counts[fmt.Sprintf("w%d", i)]; math.Abs(float64(got)-share) > 1 {
					t.Errorf("capacities %v, key %d: w%d got %d of %d spans, share %.2f", caps, k, i, got, spans, share)
				}
			}
		}
	}
}

// TestPlacementAfterMarkDeadUsesSurvivor: spans placed on a dead worker
// retry on the survivor, and once it is marked dead every span goes to
// the survivor; both jobs still merge equal to serial.
func TestPlacementAfterMarkDeadUsesSurvivor(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	healthy := newTestWorker(t, "healthy", nil)
	dead := newTestWorker(t, "dead", func(int64) bool { return true })
	healthy.register(coord)
	dead.register(coord)

	net := cnn.LeNet5()
	for i, id := range []string{"ddr3", "ddr4"} {
		job := jobFor(t, id, net)
		deadReqs, served := dead.reqs.Load(), healthy.worker.ShardsServed()
		got, err := coord.RunDSE(context.Background(), job, gridOf(t, job))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !reflect.DeepEqual(got, serialDSE(t, id, net)) {
			t.Errorf("%s: distributed DSE diverged from serial", id)
		}
		if i == 0 {
			if coord.retries.Value() == 0 {
				t.Error("no span was placed on the dead worker and retried")
			}
			if live := coord.Membership().Live(); len(live) != 1 || live[0].ID != "healthy" {
				t.Fatalf("live workers %v, want only healthy", live)
			}
			continue
		}
		if n := dead.reqs.Load() - deadReqs; n != 0 {
			t.Errorf("%s: %d spans sent to the worker marked dead", id, n)
		}
		if n := healthy.worker.ShardsServed() - served; n != DefaultShardsPerWorker {
			t.Errorf("%s: survivor served %v spans, want %d", id, n, DefaultShardsPerWorker)
		}
	}
}

// TestObjectiveReaskRepricesAcrossCluster: two 8-backend batches on one
// stack, differing only in objective. The first counts every column
// once per count signature across both workers, and the second -
// placed span for span where the first counted - counts nothing.
func TestObjectiveReaskRepricesAcrossCluster(t *testing.T) {
	pc := newPlacementCluster(t)
	geometries := map[dram.Geometry]bool{}
	for _, id := range placementBackends {
		b, _ := dram.Lookup(id)
		geometries[b.Config.Geometry] = true
	}
	// A worker counts each layer's share of a shard span as one run -
	// one plan-cache miss - so a signature's misses are the spans'
	// per-layer runs.
	ns := len(tiling.Schedules)
	runs := 0
	for _, span := range core.ColumnShards(len(placementStack)*ns, len(pc.workers)*DefaultShardsPerWorker) {
		runs += (span.End-1)/ns - span.Start/ns + 1
	}
	want := int64(len(geometries) * runs)

	pc.batch(t, "edp")
	if got := pc.planMisses(); got != want {
		t.Errorf("first batch: worker plan-cache misses %d, want %d signatures x %d layer runs = %d",
			got, len(geometries), runs, want)
	}
	pc.batch(t, "energy")
	if got := pc.planMisses(); got != want {
		t.Errorf("objective re-ask recounted: worker plan-cache misses %d, want %d", got, want)
	}
}

// TestShardTransportReusesConnections: the coordinator's keep-alive
// pool holds every connection a batch opened, so a second batch of the
// same shape dials none.
func TestShardTransportReusesConnections(t *testing.T) {
	pc := newPlacementCluster(t)
	tr := pc.coord.client.Transport.(*http.Transport)
	dial := tr.DialContext
	var dials atomic.Int64
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return dial(ctx, network, addr)
	}
	// Held shards overlap, so the first batch opens as many connections
	// as the second can have in flight.
	pc.hold.Store(true)
	pc.batch(t, "edp")
	pc.hold.Store(false)
	first := dials.Load()
	if first == 0 {
		t.Fatal("first batch dialed no connection")
	}
	pc.batch(t, "energy")
	if n := dials.Load() - first; n != 0 {
		t.Errorf("second batch dialed %d new connections (first dialed %d), want 0", n, first)
	}
}
