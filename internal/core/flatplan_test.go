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

// TestFlattenRoundTrip: the plan's shape matches its grid and the total
// planes hold the exact int64 sums of every cell's read and write
// counts as At reads them back.
func TestFlattenRoundTrip(t *testing.T) {
	ev := registryEvaluators(t)[0]
	net := cnn.LeNet5()
	policies := mapping.TableI()
	grids, err := DSEGrid(net, ev, tiling.Schedules, policies)
	if err != nil {
		t.Fatalf("DSEGrid: %v", err)
	}
	flat := ev.CountScheduleColumn(grids[0], 0, tiling.Schedules[0], policies)
	if flat.Tilings() != len(grids[0].Tilings) || flat.Policies != len(policies) || flat.Cells() != len(grids[0].Tilings)*len(policies) {
		t.Fatalf("flat shape (%d tilings x %d policies, %d cells), want %d x %d",
			flat.Tilings(), flat.Policies, flat.Cells(), len(grids[0].Tilings), len(policies))
	}
	for ti := 0; ti < flat.Tilings(); ti++ {
		for pi := 0; pi < flat.Policies; pi++ {
			want := flat.At(ti, pi).Read
			want.Add(flat.At(ti, pi).Write, 1)
			i := ti*flat.Policies + pi
			got := mapping.Counts{
				DifColumn:    int64(flat.plane(planeTotalColumn)[i]),
				DifBanks:     int64(flat.plane(planeTotalBanks)[i]),
				DifSubarrays: int64(flat.plane(planeTotalSubarrays)[i]),
				DifRows:      int64(flat.plane(planeTotalRows)[i]),
			}
			if got != want {
				t.Fatalf("cell (%d, %d): total plane = %+v, want exact sum %+v", ti, pi, got, want)
			}
		}
	}
	if min := int64(len(flat.data)) * 8; flat.SizeBytes() < min {
		t.Fatalf("SizeBytes() = %d, want at least the %d-byte backing array", flat.SizeBytes(), min)
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
