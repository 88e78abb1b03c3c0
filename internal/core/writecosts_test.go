package core

import (
	"testing"

	"drmap/internal/cnn"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/tiling"
	"drmap/internal/trace"
)

func TestWriteStreamCostsCharacterized(t *testing.T) {
	ev := evaluatorFor(t, dram.DDR3)
	p := ev.Profile
	for _, kind := range trace.AccessKinds {
		r := p.Stream[kind]
		w := p.StreamWrite[kind]
		if w.Cycles <= 0 || w.Energy <= 0 {
			t.Fatalf("%v: missing write characterization %+v", kind, w)
		}
		// Write hits burn more I/O energy than read hits (termination).
		if kind == trace.AccessRowHit && w.Energy <= r.Energy {
			t.Errorf("write hit energy %.3g not above read hit energy %.3g", w.Energy, r.Energy)
		}
	}
	// Write recovery (tWR > tRTP) makes write conflicts at least as slow
	// as read conflicts.
	if p.StreamWrite[trace.AccessRowConflict].Cycles < p.Stream[trace.AccessRowConflict].Cycles-1 {
		t.Errorf("write conflict stream (%.2f) below read conflict stream (%.2f)",
			p.StreamWrite[trace.AccessRowConflict].Cycles, p.Stream[trace.AccessRowConflict].Cycles)
	}
}

func TestGroupCountsRWSplitsDirections(t *testing.T) {
	ev := evaluatorFor(t, dram.DDR3)
	l := cnn.AlexNet().Layers[1]
	tl := tiling.Tiling{Th: 9, Tw: 9, Tj: 32, Ti: 16}
	groups := tiling.TileGroups(l, tl, tiling.WghsReuse, 1)
	read, write := ev.GroupCountsRW(mapping.DRMap(), groups)
	if write.Total() == 0 {
		t.Fatal("wghs-reuse spills partial sums; write counts must be non-zero")
	}
	whole := ev.GroupCounts(mapping.DRMap(), groups)
	var sum mapping.Counts
	sum.Add(read, 1)
	sum.Add(write, 1)
	if sum != whole {
		t.Errorf("read+write counts %+v != combined %+v", sum, whole)
	}
}

func TestWriteCostRefinementSmallButPositive(t *testing.T) {
	// Direction-aware pricing must raise the cost a little (writes are
	// pricier) without changing any ordering.
	base := evaluatorFor(t, dram.DDR3)
	refined := *base
	refined.UseWriteCosts = true
	l := cnn.AlexNet().Layers[1]
	tl := tiling.Tiling{Th: 9, Tw: 9, Tj: 32, Ti: 16}
	tm := base.Timing()
	for _, s := range []tiling.Schedule{tiling.WghsReuse, tiling.OfmsReuse} {
		plain := base.EvaluateLayer(l, tl, s, mapping.DRMap()).EDP(tm)
		rw := refined.EvaluateLayer(l, tl, s, mapping.DRMap()).EDP(tm)
		if rw < plain {
			t.Errorf("%v: refined EDP %.4g below plain %.4g", s, rw, plain)
		}
		if rw > plain*1.6 {
			t.Errorf("%v: refined EDP %.4g implausibly far above plain %.4g", s, rw, plain)
		}
	}
	// Ordering preserved: DRMap still beats Mapping-2 under refinement.
	m2 := refined.EvaluateLayer(l, tl, tiling.OfmsReuse, mapping.TableI()[1]).EDP(tm)
	m3 := refined.EvaluateLayer(l, tl, tiling.OfmsReuse, mapping.DRMap()).EDP(tm)
	if m3 >= m2 {
		t.Errorf("refined pricing flips the DRMap win: M3 %.4g vs M2 %.4g", m3, m2)
	}
}

// TestWriteCostsFromProfileAccessor: on every registered backend, each
// access category's read and write cost is the characterization's
// Stream and StreamWrite entry for that category's stream condition.
func TestWriteCostsFromProfileAccessor(t *testing.T) {
	kinds := map[mapping.Category]trace.AccessKind{
		mapping.DifColumn:    trace.AccessRowHit,
		mapping.DifBanks:     trace.AccessBankSwitch,
		mapping.DifSubarrays: trace.AccessSubarraySwitch,
		mapping.DifRows:      trace.AccessRowConflict,
	}
	if len(kinds) != int(mapping.NumCategories) {
		t.Fatalf("test covers %d categories, want %d", len(kinds), mapping.NumCategories)
	}
	for _, ev := range registryEvaluators(t) {
		p := ev.Profile
		for k := range mapping.NumCategories {
			kind := kinds[k]
			if got, want := ev.Costs[k], p.Stream[kind]; got != want {
				t.Errorf("%s: %v read cost %+v, want Stream[%v] %+v", ev.Label(), k, got, kind, want)
			}
			if got, want := ev.WriteCosts[k], p.StreamWrite[kind]; got != want {
				t.Errorf("%s: %v write cost %+v, want StreamWrite[%v] %+v", ev.Label(), k, got, kind, want)
			}
		}
	}
}
