package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"drmap/internal/cnn"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/tiling"
)

func TestDSEGridValidation(t *testing.T) {
	ev := evaluatorFor(t, dram.DDR3)
	if _, err := DSEGrid(cnn.LeNet5(), ev, nil, mapping.TableI()); err == nil {
		t.Error("expected an error with no schedules")
	}
	if _, err := DSEGrid(cnn.LeNet5(), ev, tiling.Schedules, nil); err == nil {
		t.Error("expected an error with no policies")
	}
	bad := cnn.Network{Name: "bad", Layers: []cnn.Layer{{Name: "x"}}}
	if _, err := DSEGrid(bad, ev, tiling.Schedules, mapping.TableI()); err == nil {
		t.Error("expected an error for an invalid network")
	}
	grids, err := DSEGrid(cnn.LeNet5(), ev, tiling.Schedules, mapping.TableI())
	if err != nil {
		t.Fatalf("DSEGrid: %v", err)
	}
	if len(grids) != len(cnn.LeNet5().Layers) {
		t.Fatalf("got %d layer grids, want %d", len(grids), len(cnn.LeNet5().Layers))
	}
	for i, lg := range grids {
		if lg.Index != i {
			t.Errorf("grid %d has index %d", i, lg.Index)
		}
		if len(lg.Tilings) == 0 {
			t.Errorf("layer %s: empty tiling candidates", lg.Layer.Name)
		}
	}
}

// TestEvaluateLayerGridMatchesSerialScan: the cell decomposition and
// reduction reproduce RunDSE exactly, layer by layer.
func TestEvaluateLayerGridMatchesSerialScan(t *testing.T) {
	ev := evaluatorFor(t, dram.SALPMASA)
	net := cnn.LeNet5()
	res, err := RunDSE(net, ev, tiling.Schedules, mapping.TableI())
	if err != nil {
		t.Fatalf("RunDSE: %v", err)
	}
	grids, err := DSEGrid(net, ev, tiling.Schedules, mapping.TableI())
	if err != nil {
		t.Fatalf("DSEGrid: %v", err)
	}
	for i, lg := range grids {
		lr := ev.EvaluateLayerGrid(lg, tiling.Schedules, mapping.TableI(), MinimizeEDP)
		if !reflect.DeepEqual(lr, res.Layers[i]) {
			t.Errorf("layer %s: grid result diverged from serial", lg.Layer.Name)
		}
	}
}

// TestReduceCellsOrderIndependent: shuffling the cell order never
// changes the reduction outcome.
func TestReduceCellsOrderIndependent(t *testing.T) {
	ev := evaluatorFor(t, dram.SALP2)
	net := cnn.LeNet5()
	grids, err := DSEGrid(net, ev, tiling.Schedules, mapping.TableI())
	if err != nil {
		t.Fatal(err)
	}
	lg := grids[0]
	var cells []CellResult
	for si, s := range tiling.Schedules {
		cells = append(cells, ev.EvaluateScheduleColumn(lg, si, s, mapping.TableI(), MinimizeEDP)...)
	}
	want := ReduceCells(lg, tiling.Schedules, mapping.TableI(), cells, ev.Timing())
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]CellResult(nil), cells...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := ReduceCells(lg, tiling.Schedules, mapping.TableI(), shuffled, ev.Timing())
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: shuffled reduction diverged", trial)
		}
	}
}

// TestReduceCellsTieBreak: equal objective values resolve to the cell
// the serial loops reach first (tiling, then schedule, then policy).
func TestReduceCellsTieBreak(t *testing.T) {
	lg := LayerGrid{
		Layer:   cnn.LeNet5().Layers[0],
		Tilings: []tiling.Tiling{{Th: 1, Tw: 1, Tj: 1, Ti: 1}, {Th: 2, Tw: 2, Tj: 2, Ti: 2}},
	}
	schedules := tiling.Schedules[:2]
	policies := mapping.TableI()[:2]
	tm := dram.DDR3Config().Timing
	mk := func(ti, si, pi int, v float64) CellResult {
		return CellResult{TilingIndex: ti, ScheduleIndex: si, PolicyIndex: pi,
			Value: v, Cost: LayerEDP{Cycles: v, Energy: 1}}
	}
	// Two cells tie at value 5; the serial scan meets (tiling 0,
	// schedule 1, policy 0) before (tiling 1, schedule 0, policy 1).
	cells := []CellResult{
		mk(1, 0, 1, 5),
		mk(0, 1, 0, 5),
		mk(1, 1, 1, 9),
	}
	lr := ReduceCells(lg, schedules, policies, cells, tm)
	if lr.Best.Schedule != schedules[1] || lr.Best.Policy.ID != policies[0].ID {
		t.Errorf("tie broke to %+v, want schedule %v policy %d", lr.Best, schedules[1], policies[0].ID)
	}
	if lr.Best.Tiling != lg.Tilings[0] {
		t.Errorf("tie broke to tiling %+v, want %+v", lr.Best.Tiling, lg.Tilings[0])
	}

	// All-infeasible cells leave the zero design point with infinite EDP.
	inf := []CellResult{{Value: math.Inf(1)}, {Value: math.NaN()}}
	lr = ReduceCells(lg, schedules, policies, inf, tm)
	if !math.IsInf(lr.MinEDP, 1) {
		t.Errorf("infeasible cells produced MinEDP %g", lr.MinEDP)
	}
}

// TestColumnShards pins the deterministic partition contract: spans
// cover [0, columns) exactly once, in order, with near-equal sizes, and
// the cut is a pure function of (columns, shards).
func TestColumnShards(t *testing.T) {
	for _, tc := range []struct{ columns, shards, want int }{
		{0, 4, 0},  // empty space
		{10, 1, 1}, // one shard
		{10, 0, 1}, // degenerate shard count
		{10, 3, 3}, // uneven split
		{3, 8, 3},  // more shards than columns
		{12, 4, 4}, // even split
	} {
		spans := ColumnShards(tc.columns, tc.shards)
		if len(spans) != tc.want {
			t.Errorf("ColumnShards(%d, %d) cut %d spans, want %d", tc.columns, tc.shards, len(spans), tc.want)
			continue
		}
		next := 0
		for _, s := range spans {
			if s.Start != next || s.End <= s.Start {
				t.Errorf("ColumnShards(%d, %d): span %+v breaks coverage at %d", tc.columns, tc.shards, s, next)
			}
			next = s.End
		}
		if tc.columns > 0 && next != tc.columns {
			t.Errorf("ColumnShards(%d, %d) covers [0, %d), want [0, %d)", tc.columns, tc.shards, next, tc.columns)
		}
		if len(spans) > 0 {
			if max, min := spans[0].Len(), spans[len(spans)-1].Len(); max-min > 1 {
				t.Errorf("ColumnShards(%d, %d): span sizes differ by %d, want <= 1", tc.columns, tc.shards, max-min)
			}
		}
		if !reflect.DeepEqual(spans, ColumnShards(tc.columns, tc.shards)) {
			t.Errorf("ColumnShards(%d, %d) is not deterministic", tc.columns, tc.shards)
		}
	}
}

// TestDSEGridForMatchesDSEGrid: the evaluator-free enumeration is the
// one DSEGrid serves, so coordinator-side sharding and worker-side
// evaluation agree on column indexing.
func TestDSEGridForMatchesDSEGrid(t *testing.T) {
	ev := evaluatorFor(t, dram.DDR3)
	viaEv, err := DSEGrid(cnn.LeNet5(), ev, tiling.Schedules, mapping.TableI())
	if err != nil {
		t.Fatalf("DSEGrid: %v", err)
	}
	viaCfg, err := DSEGridFor(cnn.LeNet5(), ev.Accel, tiling.Schedules, mapping.TableI())
	if err != nil {
		t.Fatalf("DSEGridFor: %v", err)
	}
	if !reflect.DeepEqual(viaEv, viaCfg) {
		t.Error("DSEGridFor diverged from DSEGrid")
	}
}
