package cluster

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/service"
)

// TestWeightedSlotsProportionalAndInterleaved: the dispatch sequence
// carries each worker in proportion to its capacity, interleaved
// rather than in runs.
func TestWeightedSlotsProportionalAndInterleaved(t *testing.T) {
	live := []WorkerInfo{
		{ID: "a", Capacity: 1},
		{ID: "b", Capacity: 3},
	}
	slots := weightedSlots(live)
	if len(slots) != 4 {
		t.Fatalf("got %d slots, want 4", len(slots))
	}
	counts := map[string]int{}
	for _, w := range slots {
		counts[w.ID]++
	}
	if counts["a"] != 1 || counts["b"] != 3 {
		t.Errorf("slot counts %v, want a:1 b:3", counts)
	}
	// b's three slots sit at positions 1/6, 3/6, 5/6 and a's single one
	// at 1/2 - so the sequence interleaves instead of draining b first.
	ids := []string{slots[0].ID, slots[1].ID, slots[2].ID, slots[3].ID}
	if want := []string{"b", "a", "b", "b"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("slot order %v, want %v", ids, want)
	}

	// Degenerate capacities count as 1; oversized ones are capped.
	slots = weightedSlots([]WorkerInfo{
		{ID: "zero", Capacity: 0},
		{ID: "huge", Capacity: 10 * maxDispatchWeight},
	})
	counts = map[string]int{}
	for _, w := range slots {
		counts[w.ID]++
	}
	if counts["zero"] != 1 || counts["huge"] != maxDispatchWeight {
		t.Errorf("degenerate slot counts %v, want zero:1 huge:%d", counts, maxDispatchWeight)
	}
}

// TestWeightedDispatchFollowsCapacity: over two rotations of the slot
// table, consecutive span indices hand each worker its capacity's
// share, whatever slot the placement key starts at.
func TestWeightedDispatchFollowsCapacity(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	c.Membership().Heartbeat(WorkerInfo{ID: "small", URL: "http://s", Capacity: 2})
	c.Membership().Heartbeat(WorkerInfo{ID: "big", URL: "http://b", Capacity: 6})
	for _, base := range []uint64{0, 5, placementBase("some plan signature")} {
		counts := map[string]int{}
		for span := 0; span < 16; span++ { // two full rotations of the 8-slot table
			w, ok := c.pickWorker(base, span, 0)
			if !ok {
				t.Fatal("no worker picked")
			}
			counts[w.ID]++
		}
		if counts["small"] != 4 || counts["big"] != 12 {
			t.Errorf("base %d: dispatch counts %v, want small:4 big:12 (1:3)", base, counts)
		}
	}
}

// TestWeightedDispatchStaysBitForBit: a lopsided-capacity cluster still
// merges to the serial result - weighting moves work, never results.
func TestWeightedDispatchStaysBitForBit(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	small := newTestWorker(t, "small", nil)
	big := newTestWorker(t, "big", nil)
	coord.Membership().Heartbeat(WorkerInfo{ID: "small", URL: small.server.URL, Capacity: 1})
	coord.Membership().Heartbeat(WorkerInfo{ID: "big", URL: big.server.URL, Capacity: 7})

	net := cnn.LeNet5()
	job := jobFor(t, "salp2", net)
	got, err := coord.RunDSE(context.Background(), job, gridOf(t, job))
	if err != nil {
		t.Fatalf("RunDSE: %v", err)
	}
	want := serialDSE(t, "salp2", net)
	if !reflect.DeepEqual(got, want) {
		t.Error("weighted distributed result diverged from serial RunDSE")
	}
	if small.reqs.Load()+big.reqs.Load() == 0 {
		t.Error("no shards dispatched")
	}
	if big.reqs.Load() <= small.reqs.Load() {
		t.Errorf("big (cap 7) served %d shards, small (cap 1) %d; want big > small",
			big.reqs.Load(), small.reqs.Load())
	}
}

// progressRecorder is a core.Progress sink recording what a cluster
// run reports.
type progressRecorder struct {
	mu      sync.Mutex
	total   int
	done    int
	layers  []int
	results []core.LayerResult
}

func (p *progressRecorder) StartColumns(total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total += total
}

func (p *progressRecorder) ColumnsDone(delta int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done += delta
}

func (p *progressRecorder) LayerDone(index, layers int, lr core.LayerResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.layers = append(p.layers, index)
	p.results = append(p.results, lr)
}

// TestFailedDispatchWithdrawsProgress: a distributed attempt that dies
// mid-run takes back the columns it announced and completed, so the
// local-pool fallback's re-announcement does not double-count the
// job's progress, publishes no layer events, and leaves no goroutine
// of the canceled fan-out behind - for both sharded job kinds.
func TestFailedDispatchWithdrawsProgress(t *testing.T) {
	for _, kc := range kindCases(t, "ddr3") {
		t.Run(kc.kind, func(t *testing.T) {
			coord := NewCoordinator(CoordinatorOptions{MaxAttempts: 1})
			// The worker survives exactly one shard request, then dies.
			w := newTestWorker(t, "w1", func(reqNum int64) bool { return reqNum > 1 })
			w.register(coord)

			rec := &progressRecorder{}
			var simLayers atomic.Int64
			ctx := core.WithProgress(context.Background(), rec)
			ctx = core.WithSimLayers(ctx, func(core.SimLayerResult, int) { simLayers.Add(1) })
			checkLeaks := goroutineBaseline(t, coord)
			_, err := kc.run(ctx, coord)
			if !errors.Is(err, service.ErrNoWorkers) {
				t.Fatalf("%s err %v, want ErrNoWorkers", kc.kind, err)
			}
			checkLeaks()
			rec.mu.Lock()
			defer rec.mu.Unlock()
			if rec.total != 0 || rec.done != 0 {
				t.Errorf("failed dispatch left progress total=%d done=%d, want 0/0 (withdrawn)", rec.total, rec.done)
			}
			if len(rec.layers) != 0 || simLayers.Load() != 0 {
				t.Errorf("failed dispatch reported %d layer and %d sim-layer events", len(rec.layers), simLayers.Load())
			}
		})
	}
}

// TestClusterReportsProgress: a distributed run with a progress sink on
// the context reports the full column space (announced up front, then
// completed shard by shard) and every layer's committed pick.
func TestClusterReportsProgress(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	w1 := newTestWorker(t, "w1", nil)
	w1.register(coord)

	net := cnn.LeNet5()
	job := jobFor(t, "ddr3", net)
	rec := &progressRecorder{}
	res, err := coord.RunDSE(core.WithProgress(context.Background(), rec), job, gridOf(t, job))
	if err != nil {
		t.Fatalf("RunDSE: %v", err)
	}

	grids, err := job.Grid()
	if err != nil {
		t.Fatal(err)
	}
	columns := job.Columns(grids)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.total != columns {
		t.Errorf("announced %d columns, want %d", rec.total, columns)
	}
	if rec.done != columns {
		t.Errorf("completed %d columns, want %d", rec.done, columns)
	}
	if len(rec.layers) != len(net.Layers) {
		t.Fatalf("got %d layer events, want %d", len(rec.layers), len(net.Layers))
	}
	for i, li := range rec.layers {
		if li != i {
			t.Errorf("layer event %d carries index %d", i, li)
		}
		if !reflect.DeepEqual(rec.results[i], res.Layers[i]) {
			t.Errorf("layer %d progress result diverges from the merged result", i)
		}
	}
}
