package core

import (
	"math"
	"reflect"
	"testing"

	"drmap/internal/cnn"
	"drmap/internal/mapping"
	"drmap/internal/tiling"
)

// evaluatorVariants returns the four pricing-convention variants of an
// evaluator: the paper baseline, direction-aware pricing, physical
// counting, and both refinements together.
func evaluatorVariants(ev *Evaluator) []*Evaluator {
	base := *ev
	write := *ev
	write.UseWriteCosts = true
	phys := *ev
	phys.UsePhysicalCounts = true
	both := write
	both.UsePhysicalCounts = true
	return []*Evaluator{&base, &write, &phys, &both}
}

// TestFlatPlanRepricesAcrossBackends: a plan counted under one backend
// prices, under every other backend sharing its CountKey, to exactly
// that backend's direct EvaluateLayer scan - the cross-backend sharing
// the service plan cache relies on.
func TestFlatPlanRepricesAcrossBackends(t *testing.T) {
	net := cnn.LeNet5()
	policies := mapping.TableI()
	s := tiling.Schedules[0]
	flats := map[CountKey]*FlatColumn{}
	shared := 0
	var scratch []CellResult
	for _, ev := range registryEvaluators(t) {
		grids, err := DSEGrid(net, ev, tiling.Schedules[:1], policies)
		if err != nil {
			t.Fatalf("%s: DSEGrid: %v", ev.Label(), err)
		}
		lg := grids[0]
		k := ev.CountKey()
		if flats[k] == nil {
			flats[k] = ev.CountScheduleColumn(lg, 0, s, policies)
		} else {
			shared++
		}
		for _, obj := range Objectives {
			scratch = ev.PriceFlatInto(flats[k], obj, scratch)
			want := directScheduleColumn(ev, lg, 0, s, policies, obj)
			if !reflect.DeepEqual(scratch[:len(want)], want) {
				t.Fatalf("%s obj %v: shared flat plan priced differently from own direct scan", ev.Label(), obj)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no backend shared a count signature; the paper four should share one die geometry")
	}
}

// TestFlattenRoundTrip: the plan's shape matches its grid and, read
// through each tiling's plan row, the read and total planes hold the
// exact int64 read and read+write sums of every cell, counted apart from
// the plan by the unmemoized group walk.
func TestFlattenRoundTrip(t *testing.T) {
	ev := registryEvaluators(t)[0]
	net := cnn.LeNet5()
	policies := mapping.TableI()
	grids, err := DSEGrid(net, ev, tiling.Schedules, policies)
	if err != nil {
		t.Fatalf("DSEGrid: %v", err)
	}
	lg, s := grids[0], tiling.Schedules[0]
	flat := ev.CountScheduleColumn(lg, 0, s, policies)
	if flat.Tilings() != len(lg.Tilings) || flat.Policies != len(policies) || flat.Cells() != len(lg.Tilings)*len(policies) {
		t.Fatalf("flat shape (%d tilings x %d policies, %d cells), want %d x %d",
			flat.Tilings(), flat.Policies, flat.Cells(), len(lg.Tilings), len(policies))
	}
	planes := func(first, i int) mapping.Counts {
		return mapping.Counts{
			DifColumn:    int64(flat.plane(first)[i]),
			DifBanks:     int64(flat.plane(first + 1)[i]),
			DifSubarrays: int64(flat.plane(first + 2)[i]),
			DifRows:      int64(flat.plane(first + 3)[i]),
		}
	}
	for ti, tl := range lg.Tilings {
		groups := tiling.TileGroups(lg.Layer, tl, s, ev.Batch)
		for pi, pol := range policies {
			read, total := ev.GroupCountsRW(pol, groups)
			total.Add(read, 1)
			i := int(flat.rowOf[ti])*flat.Policies + pi
			if got := planes(planeReadColumn, i); got != read {
				t.Fatalf("cell (%d, %d): read planes = %+v, want %+v", ti, pi, got, read)
			}
			if got := planes(planeTotalColumn, i); got != total {
				t.Fatalf("cell (%d, %d): total planes = %+v, want exact sum %+v", ti, pi, got, total)
			}
		}
	}
	if min := int64(len(flat.data))*8 + int64(len(flat.rowOf)+len(flat.firstTiling))*4; flat.SizeBytes() < min {
		t.Fatalf("SizeBytes() = %d, want at least the %d bytes of backing array and row indices", flat.SizeBytes(), min)
	}
}

// TestPriceIntoReusesScratch: the warm reprice loop is allocation-free
// once the scratch buffer has grown to the column width - the satellite
// the -benchmem benchmark (BenchmarkRepriceFlat) tracks over time.
func TestPriceIntoReusesScratch(t *testing.T) {
	ev := registryEvaluators(t)[0]
	net := cnn.LeNet5()
	policies := mapping.TableI()
	grids, err := DSEGrid(net, ev, tiling.Schedules, policies)
	if err != nil {
		t.Fatalf("DSEGrid: %v", err)
	}
	flat := ev.CountScheduleColumn(grids[0], 0, tiling.Schedules[0], policies)

	scratch := make([]CellResult, 0, len(policies))
	sink := 0.0
	if allocs := testing.AllocsPerRun(100, func() {
		scratch = ev.PriceFlatInto(flat, MinimizeEDP, scratch)
		sink += scratch[0].Value
	}); allocs != 0 {
		t.Fatalf("PriceFlatInto with warm scratch allocated %.1f times per run, want 0", allocs)
	}
	if math.IsNaN(sink) {
		t.Fatal("degenerate pricing")
	}

	// The returned slice must reuse the caller's backing array.
	out := make([]CellResult, 0, len(policies))
	got := ev.PriceFlatInto(flat, MinimizeEDP, out)
	if &got[0] != &out[:1][0] {
		t.Fatal("PriceFlatInto did not reuse the caller's scratch buffer")
	}
}

// TestFlatEmptyColumn: a plan with no tilings prices every policy to
// the no-winner cell: infinite value, tiling 0, zero cost.
func TestFlatEmptyColumn(t *testing.T) {
	ev := registryEvaluators(t)[0]
	n := len(mapping.TableI())
	cells := ev.PriceFlatInto(&FlatColumn{Policies: n}, MinimizeEDP, nil)
	if len(cells) != n {
		t.Fatalf("empty column priced %d cells, want %d", len(cells), n)
	}
	for _, c := range cells {
		if !math.IsInf(c.Value, 1) || c.TilingIndex != 0 || c.Cost != (LayerEDP{}) {
			t.Fatalf("empty column priced cell %+v, want the no-winner cell", c)
		}
	}
}
