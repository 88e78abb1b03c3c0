package core

import (
	"reflect"
	"testing"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/mapping"
	"drmap/internal/tiling"
)

// mirrorGrids are hand-built columns for the mirror-row rule: a square
// layer whose tilings meet their Th/Tw mirror before, after or not at
// all (with full and remainder tiles, and an exact repeat), an H != W
// layer and an H == W layer with P != Q - both of which must not share
// - and LeNet-5's enumerated grids.
func mirrorGrids(t *testing.T) []LayerGrid {
	t.Helper()
	square := cnn.Layer{Name: "sq", H: 12, W: 12, J: 16, I: 8, P: 3, Q: 3, Stride: 1, Pad: 1}
	wide := cnn.Layer{Name: "wide", H: 12, W: 8, J: 16, I: 8, P: 3, Q: 3, Stride: 1, Pad: 1}
	rect := cnn.Layer{Name: "rect-kernel", H: 12, W: 12, J: 16, I: 8, P: 3, Q: 5, Stride: 1, Pad: 1}
	pairs := []tiling.Tiling{
		{Th: 2, Tw: 4, Tj: 8, Ti: 4}, // mirror comes after
		{Th: 6, Tw: 6, Tj: 16, Ti: 8},
		{Th: 4, Tw: 2, Tj: 8, Ti: 4},  // mirror came before
		{Th: 4, Tw: 2, Tj: 16, Ti: 4}, // no mirror: Tj differs from the pair
		{Th: 1, Tw: 12, Tj: 4, Ti: 2}, // no mirror at all
		{Th: 5, Tw: 7, Tj: 5, Ti: 3},  // remainder tiles, mirror after
		{Th: 7, Tw: 5, Tj: 5, Ti: 3},
		{Th: 6, Tw: 6, Tj: 16, Ti: 8}, // exact repeat
	}
	grids := []LayerGrid{
		{Index: 0, Layer: square, Tilings: pairs},
		{Index: 1, Layer: wide, Tilings: []tiling.Tiling{{Th: 2, Tw: 4, Tj: 8, Ti: 4}, {Th: 4, Tw: 2, Tj: 8, Ti: 4}}},
		{Index: 2, Layer: rect, Tilings: pairs},
	}
	grids = append(grids, remainderGrids()...)
	lenet, err := DSEGridFor(cnn.LeNet5(), accel.TableII(), tiling.Schedules, mapping.TableI())
	if err != nil {
		t.Fatalf("DSEGridFor: %v", err)
	}
	return append(grids, lenet...)
}

// wantRows counts the tilings of a column that need their own plan
// row, by brute force: in a square layer (H == W, P == Q) a tiling
// equal to an earlier tiling or to its Th/Tw mirror shares that row.
func wantRows(lg LayerGrid) int {
	square := lg.Layer.H == lg.Layer.W && lg.Layer.P == lg.Layer.Q
	rows := 0
	for ti, tl := range lg.Tilings {
		mirror := tiling.Tiling{Th: tl.Tw, Tw: tl.Th, Tj: tl.Tj, Ti: tl.Ti}
		shared := false
		for _, prev := range lg.Tilings[:ti] {
			if square && (prev == tl || prev == mirror) {
				shared = true
				break
			}
		}
		if !shared {
			rows++
		}
	}
	return rows
}

// TestMirrorTilingsShareRows: a plan stores one row per tiling with no
// earlier mirror, every tiling's At still equals GroupCountsRW over its
// own TileGroups, and PriceFlatInto equals the direct per-tiling
// EvaluateLayer scan (value, cost, TilingIndex) under every objective,
// both pricing conventions and both counting conventions.
func TestMirrorTilingsShareRows(t *testing.T) {
	policies := append(mapping.TableI(), mapping.Default())
	grids := mirrorGrids(t)
	if got, want := wantRows(grids[0]), len(grids[0].Tilings)-3; got != want {
		t.Fatalf("square fixture has %d distinct rows, want %d (two mirror pairs and a repeat)", got, want)
	}
	for _, lg := range grids[1:3] {
		if wantRows(lg) != len(lg.Tilings) {
			t.Fatalf("%s fixture shares rows; it must not", lg.Layer.Name)
		}
	}
	shared := 0
	for _, ev := range evaluatorVariants(registryEvaluators(t)[0]) {
		for _, lg := range grids {
			for si, s := range tiling.Schedules {
				fc := ev.CountScheduleColumn(lg, si, s, policies)
				if got, want := len(fc.firstTiling), wantRows(lg); got != want {
					t.Fatalf("%s %v: plan stores %d rows, want %d", lg.Layer.Name, s, got, want)
				}
				shared += len(lg.Tilings) - len(fc.firstTiling)
				checkCountColumn(t, ev, lg, si, s, policies)
				for _, obj := range Objectives {
					got := ev.PriceFlatInto(fc, obj, nil)
					want := directScheduleColumn(ev, lg, si, s, policies, obj)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("write %v physical %v %s %v obj %v: priced\n%+v\nwant\n%+v",
							ev.UseWriteCosts, ev.UsePhysicalCounts, lg.Layer.Name, s, obj, got, want)
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no tiling shared a plan row")
	}
}

// TestResolveAdaptiveMatchesEstimateArgmin: the one-pass
// ResolveAdaptive picks the same schedule as the strict-min argmin of
// three fixed-schedule Estimate calls (ties to the earlier of
// IfmsReuse, WghsReuse, OfmsReuse), for every tiling of every built-in
// layer and of the remainder stack, at batch 1, 2 and 4.
func TestResolveAdaptiveMatchesEstimateArgmin(t *testing.T) {
	grids := remainderGrids()
	for _, net := range cnn.Networks() {
		gs, err := DSEGridFor(net, accel.TableII(), tiling.Schedules, mapping.TableI())
		if err != nil {
			t.Fatalf("%s: DSEGridFor: %v", net.Name, err)
		}
		grids = append(grids, gs...)
	}
	for _, batch := range []int{1, 2, 4} {
		for _, lg := range grids {
			for _, tl := range lg.Tilings {
				want := tiling.IfmsReuse
				best := tiling.Estimate(lg.Layer, tl, want, batch).TotalElems()
				for _, s := range []tiling.Schedule{tiling.WghsReuse, tiling.OfmsReuse} {
					if e := tiling.Estimate(lg.Layer, tl, s, batch).TotalElems(); e < best {
						want, best = s, e
					}
				}
				if got := tiling.ResolveAdaptive(lg.Layer, tl, batch); got != want {
					t.Fatalf("batch %d layer %s %v: ResolveAdaptive = %v, want %v", batch, lg.Layer.Name, tl, got, want)
				}
			}
		}
	}
}
