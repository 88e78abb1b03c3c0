package core

import (
	"math"
	"reflect"
	"testing"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/profile"
	"drmap/internal/tiling"
)

// registryEvaluators builds one evaluator per registered backend (the
// paper four plus the generality presets), so the split is exercised
// across every geometry the repo ships.
func registryEvaluators(t *testing.T) []*Evaluator {
	t.Helper()
	var evs []*Evaluator
	for _, b := range dram.Backends() {
		p, err := profile.CharacterizeBackend(b)
		if err != nil {
			t.Fatalf("CharacterizeBackend(%s): %v", b.ID, err)
		}
		ev, err := NewEvaluator(p, accel.TableII(), 1)
		if err != nil {
			t.Fatalf("NewEvaluator(%s): %v", b.ID, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// directScheduleColumn replicates the pre-split evaluation loop exactly:
// per tiling, per policy, price the combination directly through
// EvaluateLayer (which still computes groups and counts inline) and keep
// the first strict objective minimum. It is the recorded old code path
// the count -> price pipeline must reproduce bit for bit.
func directScheduleColumn(ev *Evaluator, lg LayerGrid, scheduleIdx int, s tiling.Schedule, policies []mapping.Policy, obj Objective) []CellResult {
	tm := ev.Timing()
	out := make([]CellResult, len(policies))
	for pi := range out {
		out[pi] = CellResult{
			LayerIndex:    lg.Index,
			ScheduleIndex: scheduleIdx,
			PolicyIndex:   pi,
			Value:         math.Inf(1),
		}
	}
	for ti, tl := range lg.Tilings {
		for pi, pol := range policies {
			cost := ev.EvaluateLayer(lg.Layer, tl, s, pol)
			if v := obj.Value(cost, tm); v < out[pi].Value {
				out[pi].Value = v
				out[pi].Cost = cost
				out[pi].TilingIndex = ti
			}
		}
	}
	return out
}

// TestCountPriceSplitMatchesDirectScan: the split EvaluateScheduleColumn
// (PriceFlatInto over CountScheduleColumn) equals the pre-refactor
// direct scan bit for bit, on every registered backend, every pricing
// convention (evaluatorVariants), every schedule and every objective.
func TestCountPriceSplitMatchesDirectScan(t *testing.T) {
	net := cnn.LeNet5()
	policies := mapping.TableI()
	for _, base := range registryEvaluators(t) {
		for _, ev := range evaluatorVariants(base) {
			grids, err := DSEGrid(net, ev, tiling.Schedules, policies)
			if err != nil {
				t.Fatalf("%s: DSEGrid: %v", ev.Label(), err)
			}
			for _, lg := range grids {
				for si, s := range tiling.Schedules {
					for _, obj := range Objectives {
						got := ev.EvaluateScheduleColumn(lg, si, s, policies, obj)
						want := directScheduleColumn(ev, lg, si, s, policies, obj)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s (write=%v phys=%v) layer %s schedule %v obj %v: split diverged from direct scan\ngot  %+v\nwant %+v",
								ev.Label(), ev.UseWriteCosts, ev.UsePhysicalCounts, lg.Layer.Name, s, obj, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCountPriceSplitHonorsEvaluatorFlags: the refinement flags
// (direction-aware write pricing, physical counts) flow through the
// split identically to the direct path.
func TestCountPriceSplitHonorsEvaluatorFlags(t *testing.T) {
	base := evaluatorFor(t, dram.SALPMASA)
	layer := cnn.LeNet5().Layers[1]
	lg := LayerGrid{Layer: layer, Tilings: tiling.Enumerate(layer, base.Accel)}
	policies := mapping.TableI()
	for _, variant := range []struct {
		name            string
		write, physical bool
	}{
		{"write-costs", true, false},
		{"physical-counts", false, true},
		{"both", true, true},
	} {
		ev := *base
		ev.UseWriteCosts = variant.write
		ev.UsePhysicalCounts = variant.physical
		got := ev.EvaluateScheduleColumn(lg, 0, tiling.AdaptiveReuse, policies, MinimizeEDP)
		want := directScheduleColumn(&ev, lg, 0, tiling.AdaptiveReuse, policies, MinimizeEDP)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: split diverged from direct scan", variant.name)
		}
	}
}

// TestPlanRepricesAcrossBackends: a plan counted under one backend,
// priced under another backend with an equal CountKey, equals the other
// backend's own scan - the reuse the service's plan cache relies on -
// across the registry, where the paper four share one die geometry.
func TestPlanRepricesAcrossBackends(t *testing.T) {
	layer := cnn.AlexNet().Layers[0]
	policies := mapping.TableI()
	s := tiling.Schedules[2]
	plans := map[CountKey]*FlatColumn{}
	shared := 0
	for _, ev := range registryEvaluators(t) {
		lg := LayerGrid{Layer: layer, Tilings: tiling.Enumerate(layer, ev.Accel)}
		k := ev.CountKey()
		if plans[k] == nil {
			plans[k] = ev.CountScheduleColumn(lg, 2, s, policies)
		} else {
			shared++
		}
		for _, obj := range Objectives {
			got := ev.PriceFlatInto(plans[k], obj, nil)
			want := ev.EvaluateScheduleColumn(lg, 2, s, policies, obj)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s obj %v: repriced shared plan diverged from own scan", ev.Label(), obj)
			}
		}
	}
	if shared < 3 {
		t.Fatalf("%d backends reused a plan; the paper four should share one die geometry", shared)
	}
}

// TestCountKeySeparatesGeometries: backends whose addressing geometry
// differs must not share a plan key, and the count-relevant flags must
// split the key too.
func TestCountKeySeparatesGeometries(t *testing.T) {
	evs := registryEvaluators(t)
	byID := map[string]*Evaluator{}
	for _, ev := range evs {
		byID[ev.Backend().ID] = ev
	}
	ddr3 := byID["ddr3"]
	for _, id := range []string{"salp1", "salp2", "masa"} {
		if byID[id].CountKey() != ddr3.CountKey() {
			t.Errorf("%s should share ddr3's CountKey (same 2Gb x8 die)", id)
		}
	}
	for _, id := range []string{"ddr4", "lpddr3", "lpddr4", "hbm2"} {
		if byID[id].CountKey() == ddr3.CountKey() {
			t.Errorf("%s must not share ddr3's CountKey (different geometry)", id)
		}
	}
	flagged := *ddr3
	flagged.UsePhysicalCounts = true
	if flagged.CountKey() == ddr3.CountKey() {
		t.Error("UsePhysicalCounts must change the CountKey")
	}
	batched, err := NewEvaluator(ddr3.Profile, ddr3.Accel, 2)
	if err != nil {
		t.Fatal(err)
	}
	if batched.CountKey() == ddr3.CountKey() {
		t.Error("batch size must change the CountKey")
	}
}

// TestMinOverTilingsMatchesDirectScan: the rewritten MinOverTilings
// equals the old per-tiling EvaluateLayer scan bit for bit.
func TestMinOverTilingsMatchesDirectScan(t *testing.T) {
	for _, ev := range registryEvaluators(t) {
		layer := cnn.LeNet5().Layers[1]
		tilings := tiling.Enumerate(layer, ev.Accel)
		for _, s := range tiling.Schedules {
			for _, pol := range mapping.TableI() {
				gotTiling, gotCost := ev.MinOverTilings(layer, tilings, s, pol)
				tm := ev.Timing()
				wantCost := LayerEDP{Cycles: math.Inf(1), Energy: math.Inf(1)}
				bestEDP := math.Inf(1)
				var wantTiling tiling.Tiling
				for _, tl := range tilings {
					e := ev.EvaluateLayer(layer, tl, s, pol)
					if edp := e.EDP(tm); edp < bestEDP {
						bestEDP = edp
						wantCost = e
						wantTiling = tl
					}
				}
				if gotTiling != wantTiling || gotCost != wantCost {
					t.Fatalf("%s %v %s: MinOverTilings diverged: got (%v, %+v), want (%v, %+v)",
						ev.Label(), s, pol.Name, gotTiling, gotCost, wantTiling, wantCost)
				}
			}
		}
	}
}

// TestMinOverTilingsEmpty keeps the no-winner sentinel: an empty tiling
// set returns the zero tiling and an infinite cost.
func TestMinOverTilingsEmpty(t *testing.T) {
	ev := evaluatorFor(t, dram.DDR3)
	tl, cost := ev.MinOverTilings(cnn.LeNet5().Layers[0], nil, tiling.OfmsReuse, mapping.DRMap())
	if tl != (tiling.Tiling{}) {
		t.Errorf("empty search returned tiling %+v", tl)
	}
	if !math.IsInf(cost.Cycles, 1) || !math.IsInf(cost.Energy, 1) {
		t.Errorf("empty search returned finite cost %+v", cost)
	}
}

// TestFig9SeriesMatchesPerEvaluatorScan: the plan-sharing Fig9Series
// equals the pre-refactor series (one direct MinOverTilings-style scan
// per layer x policy x evaluator) bit for bit, across the full registry
// - several distinct geometries plus the shared paper die.
func TestFig9SeriesMatchesPerEvaluatorScan(t *testing.T) {
	evs := registryEvaluators(t)
	net := cnn.LeNet5()
	policies := mapping.TableI()
	s := tiling.AdaptiveReuse
	got, err := Fig9Series(net, s, evs, policies)
	if err != nil {
		t.Fatalf("Fig9Series: %v", err)
	}

	// The recorded old algorithm, including its totals bookkeeping.
	var want []Fig9Point
	type key struct {
		pol     string
		backend string
		arch    dram.Arch
	}
	totals := make(map[key]*Fig9Point)
	for _, layer := range net.Layers {
		tilings := tiling.Enumerate(layer, evs[0].Accel)
		for _, pol := range policies {
			for _, ev := range evs {
				tm := ev.Timing()
				cost := LayerEDP{Cycles: math.Inf(1), Energy: math.Inf(1)}
				bestEDP := math.Inf(1)
				for _, tl := range tilings {
					e := ev.EvaluateLayer(layer, tl, s, pol)
					if edp := e.EDP(tm); edp < bestEDP {
						bestEDP = edp
						cost = e
					}
				}
				p := Fig9Point{
					Layer: layer.Name, Policy: pol, Backend: ev.Backend(), Arch: ev.Arch(),
					Cost: cost, Seconds: cost.Seconds(tm), EDP: cost.EDP(tm),
				}
				want = append(want, p)
				k := key{pol: pol.Name, backend: ev.Backend().ID, arch: ev.Arch()}
				if agg, ok := totals[k]; ok {
					agg.Cost.Add(cost)
					agg.Seconds += p.Seconds
					agg.EDP += p.EDP
				} else {
					totals[k] = &Fig9Point{Layer: TotalLayerName, Policy: pol, Backend: ev.Backend(),
						Arch: ev.Arch(), Cost: cost, Seconds: p.Seconds, EDP: p.EDP}
				}
			}
		}
	}
	for _, pol := range policies {
		for _, ev := range evs {
			if agg, ok := totals[key{pol: pol.Name, backend: ev.Backend().ID, arch: ev.Arch()}]; ok {
				want = append(want, *agg)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Fig9Series diverged from the per-evaluator scan (%d vs %d points)", len(got), len(want))
	}
}

// remainderGrids is a custom two-layer stack whose hand-picked tilings
// do not divide the layer dimensions, so every column mixes full and
// remainder tiles (Enumerate only yields divisor tilings).
func remainderGrids() []LayerGrid {
	conv := cnn.Layer{Name: "rem-conv", H: 13, W: 13, J: 100, I: 60, P: 3, Q: 3, Stride: 1, Pad: 1}
	strided := cnn.Layer{Name: "rem-strided", H: 27, W: 27, J: 48, I: 3, P: 7, Q: 7, Stride: 2, Pad: 3}
	return []LayerGrid{
		{Index: 0, Layer: conv, Tilings: []tiling.Tiling{
			{Th: 5, Tw: 4, Tj: 7, Ti: 9}, {Th: 13, Tw: 13, Tj: 33, Ti: 60},
			{Th: 1, Tw: 6, Tj: 100, Ti: 11}, {Th: 5, Tw: 4, Tj: 7, Ti: 8},
			{Th: 6, Tw: 6, Tj: 30, Ti: 25},
		}},
		{Index: 1, Layer: strided, Tilings: []tiling.Tiling{
			{Th: 10, Tw: 4, Tj: 5, Ti: 2}, {Th: 27, Tw: 27, Tj: 48, Ti: 3},
			{Th: 8, Tw: 8, Tj: 10, Ti: 1},
		}},
	}
}

// TestCountColumnMatchesUnmemoizedGroups is the oracle for the count
// kernel's per-call burst-length memo: every cell of
// CountScheduleColumn equals GroupCountsRW over TileGroups for that
// (tiling, policy) - the unmemoized definition - across the built-in
// networks and a remainder-tiling stack, every registered geometry,
// batch 1 and 4, both counting conventions, and Table I plus the
// default policy.
func TestCountColumnMatchesUnmemoizedGroups(t *testing.T) {
	policies := append(mapping.TableI(), mapping.Default())
	evs := registryEvaluators(t)
	grids := remainderGrids()
	// Repeated blocks (ResNet-18's stages, VGG-16's conv5) give
	// identical columns; check each distinct layer shape once.
	shapes := make(map[cnn.Layer]bool)
	for _, net := range []cnn.Network{cnn.LeNet5(), cnn.AlexNet(), cnn.ResNet18(), cnn.VGG16()} {
		gs, err := DSEGrid(net, evs[0], tiling.Schedules, policies)
		if err != nil {
			t.Fatalf("%s: DSEGrid: %v", net.Name, err)
		}
		for _, lg := range gs {
			shape := lg.Layer
			shape.Name = ""
			if !shapes[shape] {
				shapes[shape] = true
				grids = append(grids, lg)
			}
		}
	}
	seen := make(map[dram.Geometry]bool)
	for _, base := range evs {
		if seen[base.Profile.Config.Geometry] {
			continue
		}
		seen[base.Profile.Config.Geometry] = true
		t.Run(base.Label(), func(t *testing.T) {
			t.Parallel()
			for _, batch := range []int{1, 4} {
				for _, physical := range []bool{false, true} {
					ev := *base
					ev.Batch = batch
					ev.UsePhysicalCounts = physical
					for _, lg := range grids {
						for si, s := range tiling.Schedules {
							checkCountColumn(t, &ev, lg, si, s, policies)
						}
					}
				}
			}
		})
	}
	if len(seen) < 2 {
		t.Fatalf("registry covers %d geometries; the oracle needs at least two", len(seen))
	}
}

// checkCountColumn compares one memoized count column with the
// unmemoized per-(tiling, policy) definition.
func checkCountColumn(t *testing.T, ev *Evaluator, lg LayerGrid, si int, s tiling.Schedule, policies []mapping.Policy) {
	t.Helper()
	cc := ev.CountScheduleColumn(lg, si, s, policies)
	if cc.Tilings() != len(lg.Tilings) || cc.Policies != len(policies) {
		t.Fatalf("%s: plan is %dx%d, want %dx%d", lg.Layer.Name, cc.Tilings(), cc.Policies, len(lg.Tilings), len(policies))
	}
	for ti, tl := range lg.Tilings {
		groups := tiling.TileGroups(lg.Layer, tl, s, ev.Batch)
		for pi, pol := range policies {
			read, write := ev.GroupCountsRW(pol, groups)
			if got := cc.At(ti, pi); got != (CellCounts{Read: read, Write: write}) {
				t.Fatalf("batch %d physical %v layer %s %v %v policy %s: memoized %+v, unmemoized read %+v write %+v",
					ev.Batch, ev.UsePhysicalCounts, lg.Layer.Name, s, tl, pol.Name, got, read, write)
			}
		}
	}
}
