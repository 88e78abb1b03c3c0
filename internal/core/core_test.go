package core

import (
	"math"
	"testing"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/profile"
	"drmap/internal/tiling"
)

// Shared fixtures: characterization is deterministic and moderately
// expensive, so tests share one profile set and one evaluator set.
var (
	testProfiles   []*profile.Profile
	testEvaluators []*Evaluator
)

func evaluators(t *testing.T) []*Evaluator {
	t.Helper()
	if testEvaluators != nil {
		return testEvaluators
	}
	ps, err := profile.CharacterizePaper()
	if err != nil {
		t.Fatalf("CharacterizePaper: %v", err)
	}
	testProfiles = ps
	for _, p := range ps {
		ev, err := NewEvaluator(p, accel.TableII(), 1)
		if err != nil {
			t.Fatalf("NewEvaluator(%v): %v", p.Arch, err)
		}
		testEvaluators = append(testEvaluators, ev)
	}
	return testEvaluators
}

func evaluatorFor(t *testing.T, arch dram.Arch) *Evaluator {
	t.Helper()
	for _, ev := range evaluators(t) {
		if ev.Arch() == arch {
			return ev
		}
	}
	t.Fatalf("no evaluator for %v", arch)
	return nil
}

func TestNewEvaluatorRejectsBadInputs(t *testing.T) {
	evs := evaluators(t)
	bad := accel.TableII()
	bad.MACRows = 0
	if _, err := NewEvaluator(evs[0].Profile, bad, 1); err == nil {
		t.Error("NewEvaluator accepted invalid accelerator")
	}
	if _, err := NewEvaluator(evs[0].Profile, accel.TableII(), 0); err == nil {
		t.Error("NewEvaluator accepted batch 0")
	}
}

func TestCostsFromProfileOrdering(t *testing.T) {
	ev := evaluatorFor(t, dram.DDR3)
	c := ev.Costs
	hit, bank, sub, row := c[mapping.DifColumn], c[mapping.DifBanks], c[mapping.DifSubarrays], c[mapping.DifRows]
	if !(hit.Cycles < bank.Cycles && bank.Cycles <= sub.Cycles && sub.Cycles <= row.Cycles+1) {
		t.Errorf("DDR3 cost ordering violated: hit=%.1f bank=%.1f sub=%.1f row=%.1f",
			hit.Cycles, bank.Cycles, sub.Cycles, row.Cycles)
	}
}

func TestPriceArithmetic(t *testing.T) {
	ev := evaluatorFor(t, dram.DDR3)
	counts := mapping.Counts{mapping.DifColumn: 10, mapping.DifBanks: 2, mapping.DifSubarrays: 3, mapping.DifRows: 4}
	got := ev.Price(counts)
	hit, bank, sub, row := ev.Costs[mapping.DifColumn], ev.Costs[mapping.DifBanks], ev.Costs[mapping.DifSubarrays], ev.Costs[mapping.DifRows]
	want := 10*hit.Cycles + 2*bank.Cycles + 3*sub.Cycles + 4*row.Cycles
	if math.Abs(got.Cycles-want) > 1e-9 {
		t.Errorf("Price cycles = %g, want %g", got.Cycles, want)
	}
	wantE := 10*hit.Energy + 2*bank.Energy + 3*sub.Energy + 4*row.Energy
	if math.Abs(got.Energy-wantE) > 1e-18 {
		t.Errorf("Price energy = %g, want %g", got.Energy, wantE)
	}
}

func TestLayerEDPHelpers(t *testing.T) {
	e := LayerEDP{Cycles: 800, Energy: 2e-9}
	tm := dram.DDR3Config().Timing // 1.25 ns
	if got, want := e.Seconds(tm), 1e-6; math.Abs(got-want) > 1e-12 {
		t.Errorf("Seconds = %g, want %g", got, want)
	}
	if got, want := e.EDP(tm), 2e-15; math.Abs(got-want) > 1e-21 {
		t.Errorf("EDP = %g, want %g", got, want)
	}
	var acc LayerEDP
	acc.Add(e)
	acc.Add(e)
	if acc.Cycles != 1600 || acc.Energy != 4e-9 {
		t.Errorf("Add accumulated %+v", acc)
	}
}

func TestEvaluateLayerPositiveFinite(t *testing.T) {
	l := cnn.AlexNet().Layers[1]
	tl := tiling.Tiling{Th: 9, Tw: 9, Tj: 32, Ti: 16}
	for _, ev := range evaluators(t) {
		for _, s := range tiling.Schedules {
			for _, pol := range mapping.TableI() {
				e := ev.EvaluateLayer(l, tl, s, pol)
				if !(e.Cycles > 0) || !(e.Energy > 0) ||
					math.IsInf(e.Cycles, 0) || math.IsInf(e.Energy, 0) {
					t.Fatalf("%v/%v/%s: degenerate cost %+v", ev.Arch(), s, pol.Name, e)
				}
			}
		}
	}
}

// fig9Cache shares the expensive series across tests, keyed by schedule.
var fig9Cache = map[tiling.Schedule][]Fig9Point{}

func fig9(t *testing.T, s tiling.Schedule) []Fig9Point {
	t.Helper()
	if pts, ok := fig9Cache[s]; ok {
		return pts
	}
	pts, err := Fig9Series(cnn.AlexNet(), s, evaluators(t), mapping.TableI())
	if err != nil {
		t.Fatalf("Fig9Series(%v): %v", s, err)
	}
	fig9Cache[s] = pts
	return pts
}

func TestObservation1DRMapWinsEverywhere(t *testing.T) {
	// Key Observation 1: Mapping-3 (DRMap) achieves the lowest EDP
	// across layers, architectures and scheduling schemes.
	layers := append([]string{}, TotalLayerName)
	for _, l := range cnn.AlexNet().Layers {
		layers = append(layers, l.Name)
	}
	for _, s := range tiling.Schedules {
		pts := fig9(t, s)
		for _, layer := range layers {
			for _, arch := range dram.Archs {
				drmap := SelectPoint(pts, layer, 3, arch)
				if drmap == nil {
					t.Fatalf("missing DRMap point %s/%v/%v", layer, arch, s)
				}
				for id := 1; id <= 6; id++ {
					p := SelectPoint(pts, layer, id, arch)
					if p == nil {
						t.Fatalf("missing point mapping-%d %s/%v/%v", id, layer, arch, s)
					}
					if p.EDP < drmap.EDP*(1-1e-9) {
						t.Errorf("%v/%v/%s: Mapping-%d EDP %.4g beats DRMap %.4g",
							s, arch, layer, id, p.EDP, drmap.EDP)
					}
				}
			}
		}
	}
}

func TestObservation2SubarrayFirstMappingsWorst(t *testing.T) {
	// Key Observation 2: Mapping-2 and Mapping-5 obtain the worst EDPs.
	for _, s := range tiling.Schedules {
		pts := fig9(t, s)
		for _, arch := range dram.Archs {
			worstOf := func(ids ...int) float64 {
				worst := 0.0
				for _, id := range ids {
					if p := SelectPoint(pts, TotalLayerName, id, arch); p != nil && p.EDP > worst {
						worst = p.EDP
					}
				}
				return worst
			}
			subarrayFirst := worstOf(2, 5)
			others := worstOf(1, 3, 4, 6)
			if subarrayFirst < others {
				t.Errorf("%v/%v: subarray-first mappings (%.4g) not the worst (others %.4g)",
					s, arch, subarrayFirst, others)
			}
		}
	}
}

func TestObservation3Mapping1ComparableToDRMap(t *testing.T) {
	// Key Observation 3: Mapping-1 and Mapping-3 obtain comparable EDPs
	// (both prioritize row hits), with Mapping-3 ahead because bank-level
	// parallelism is cheaper than subarray-level parallelism.
	for _, s := range tiling.Schedules {
		pts := fig9(t, s)
		for _, arch := range dram.Archs {
			m1 := SelectPoint(pts, TotalLayerName, 1, arch)
			m3 := SelectPoint(pts, TotalLayerName, 3, arch)
			m2 := SelectPoint(pts, TotalLayerName, 2, arch)
			if m1.EDP < m3.EDP*(1-1e-9) {
				t.Errorf("%v/%v: Mapping-1 (%.4g) beats DRMap (%.4g)", s, arch, m1.EDP, m3.EDP)
			}
			// "Comparable": within a small factor, far below Mapping-2.
			if m1.EDP > m3.EDP*3 {
				t.Errorf("%v/%v: Mapping-1 (%.4g) not comparable to DRMap (%.4g)", s, arch, m1.EDP, m3.EDP)
			}
			if m1.EDP*2 > m2.EDP {
				t.Errorf("%v/%v: Mapping-1 (%.4g) not far below Mapping-2 (%.4g)", s, arch, m1.EDP, m2.EDP)
			}
		}
	}
}

func TestKeyResultDRMapImprovements(t *testing.T) {
	// The paper: DRMap improves EDP up to 96% (DDR3), 94% (SALP-1),
	// 91% (SALP-2), 80% (MASA). Exact numbers depend on the testbed;
	// the reproduction must show the same band (large improvements) and
	// the same monotone ordering DDR3 > SALP-1 > SALP-2 > MASA.
	pts := fig9(t, tiling.AdaptiveReuse)
	imp := map[dram.Arch]float64{}
	for _, arch := range dram.Archs {
		v, err := DRMapImprovement(pts, arch)
		if err != nil {
			t.Fatal(err)
		}
		imp[arch] = v
	}
	if !(imp[dram.DDR3] > 0.85) {
		t.Errorf("DDR3 improvement = %.1f%%, want > 85%%", imp[dram.DDR3]*100)
	}
	if !(imp[dram.SALPMASA] > 0.5 && imp[dram.SALPMASA] < 0.95) {
		t.Errorf("MASA improvement = %.1f%%, want large but smaller than DDR3's", imp[dram.SALPMASA]*100)
	}
	if !(imp[dram.DDR3] >= imp[dram.SALP1] && imp[dram.SALP1] >= imp[dram.SALP2] && imp[dram.SALP2] >= imp[dram.SALPMASA]) {
		t.Errorf("improvement ordering violated: %v", imp)
	}
}

func TestObservation4SALPGains(t *testing.T) {
	// Key Observation 4: under adaptive-reuse, SALP architectures
	// improve EDP a lot for the subarray-first mappings (2, 5) and only
	// marginally for the hit-/bank-first mappings (1, 3, 4).
	pts := fig9(t, tiling.AdaptiveReuse)
	for _, id := range []int{2, 5} {
		masa, err := SALPImprovement(pts, id, dram.SALPMASA)
		if err != nil {
			t.Fatal(err)
		}
		if masa < 0.5 {
			t.Errorf("Mapping-%d: MASA gain %.1f%%, want > 50%%", id, masa*100)
		}
		s1, err := SALPImprovement(pts, id, dram.SALP1)
		if err != nil {
			t.Fatal(err)
		}
		if s1 < 0.1 {
			t.Errorf("Mapping-%d: SALP-1 gain %.1f%%, want > 10%%", id, s1*100)
		}
		if masa <= s1 {
			t.Errorf("Mapping-%d: MASA gain (%.1f%%) not above SALP-1 (%.1f%%)", id, masa*100, s1*100)
		}
	}
	for _, id := range []int{1, 3, 4} {
		for _, arch := range []dram.Arch{dram.SALP1, dram.SALP2, dram.SALPMASA} {
			v, err := SALPImprovement(pts, id, arch)
			if err != nil {
				t.Fatal(err)
			}
			if v < -0.05 || v > 0.25 {
				t.Errorf("Mapping-%d on %v: gain %.1f%%, want marginal (0-25%%)", id, arch, v*100)
			}
		}
	}
}

func TestRunDSEPicksDRMapEverywhere(t *testing.T) {
	// Algorithm 1's output must agree with the paper: the minimum-EDP
	// mapping is Mapping-3 for every layer on every architecture.
	for _, ev := range evaluators(t) {
		res, err := RunDSE(cnn.AlexNet(), ev, tiling.Schedules, mapping.TableI())
		if err != nil {
			t.Fatalf("RunDSE(%v): %v", ev.Arch(), err)
		}
		if len(res.Layers) != 8 {
			t.Fatalf("%v: %d layer results", ev.Arch(), len(res.Layers))
		}
		for _, lr := range res.Layers {
			if lr.Best.Policy.ID != 3 {
				t.Errorf("%v/%s: DSE picked %s, want Mapping-3", ev.Arch(), lr.Layer.Name, lr.Best.Policy.Name)
			}
			if !(lr.MinEDP > 0) || math.IsInf(lr.MinEDP, 0) {
				t.Errorf("%v/%s: degenerate min EDP %g", ev.Arch(), lr.Layer.Name, lr.MinEDP)
			}
		}
		if res.TotalEDP() <= 0 || res.TotalEnergy() <= 0 {
			t.Errorf("%v: degenerate totals EDP=%g E=%g", ev.Arch(), res.TotalEDP(), res.TotalEnergy())
		}
	}
}

func TestRunDSERejectsBadInputs(t *testing.T) {
	ev := evaluatorFor(t, dram.DDR3)
	if _, err := RunDSE(cnn.Network{Name: "empty"}, ev, tiling.Schedules, mapping.TableI()); err == nil {
		t.Error("RunDSE accepted empty network")
	}
	if _, err := RunDSE(cnn.AlexNet(), ev, nil, mapping.TableI()); err == nil {
		t.Error("RunDSE accepted empty schedule list")
	}
	if _, err := RunDSE(cnn.AlexNet(), ev, tiling.Schedules, nil); err == nil {
		t.Error("RunDSE accepted empty policy list")
	}
}

func TestSALPTotalNeverWorseThanDDR3ForDRMap(t *testing.T) {
	// Employing SALP must not hurt DRMap (Sec. V-B: SALP beneficial with
	// an effective mapping).
	pts := fig9(t, tiling.AdaptiveReuse)
	ddr3 := SelectPoint(pts, TotalLayerName, 3, dram.DDR3)
	for _, arch := range []dram.Arch{dram.SALP1, dram.SALP2, dram.SALPMASA} {
		salp := SelectPoint(pts, TotalLayerName, 3, arch)
		if salp.EDP > ddr3.EDP*1.01 {
			t.Errorf("%v: DRMap EDP %.4g worse than DDR3 %.4g", arch, salp.EDP, ddr3.EDP)
		}
	}
}

func TestAdaptiveScheduleNeverWorseThanFixedForDRMap(t *testing.T) {
	adaptive := fig9(t, tiling.AdaptiveReuse)
	for _, s := range []tiling.Schedule{tiling.IfmsReuse, tiling.WghsReuse, tiling.OfmsReuse} {
		fixed := fig9(t, s)
		for _, arch := range dram.Archs {
			a := SelectPoint(adaptive, TotalLayerName, 3, arch)
			f := SelectPoint(fixed, TotalLayerName, 3, arch)
			if a.EDP > f.EDP*1.05 {
				t.Errorf("%v: adaptive EDP %.4g worse than %v %.4g", arch, a.EDP, s, f.EDP)
			}
		}
	}
}

func TestMinOverTilingsReturnsFeasibleBest(t *testing.T) {
	ev := evaluatorFor(t, dram.DDR3)
	l := cnn.AlexNet().Layers[2]
	tilings := tiling.Enumerate(l, ev.Accel)
	best, cost := ev.MinOverTilings(l, tilings, tiling.OfmsReuse, mapping.DRMap())
	if err := best.Validate(l); err != nil {
		t.Fatalf("best tiling invalid: %v", err)
	}
	// No enumerated tiling may beat the reported best.
	tm := ev.Timing()
	for _, tl := range tilings {
		if e := ev.EvaluateLayer(l, tl, tiling.OfmsReuse, mapping.DRMap()); e.EDP(tm) < cost.EDP(tm)*(1-1e-12) {
			t.Fatalf("tiling %v beats reported best", tl)
		}
	}
}

func TestGroupCountsPhysicalSwitch(t *testing.T) {
	ev := evaluatorFor(t, dram.DDR3)
	l := cnn.AlexNet().Layers[1]
	tl := tiling.Tiling{Th: 9, Tw: 9, Tj: 32, Ti: 16}
	groups := tiling.TileGroups(l, tl, tiling.OfmsReuse, 1)
	paper := ev.GroupCounts(mapping.DRMap(), groups)
	evPhys := *ev
	evPhys.UsePhysicalCounts = true
	phys := evPhys.GroupCounts(mapping.DRMap(), groups)
	if paper.Total() != phys.Total() {
		t.Errorf("totals differ: paper %d phys %d", paper.Total(), phys.Total())
	}
	if paper == phys {
		t.Error("physical and paper counts identical; expected boundary reclassification")
	}
}

func TestBurstRoundingChargesPartialBursts(t *testing.T) {
	ev := evaluatorFor(t, dram.DDR3)
	// 9 elements at 1 B/elem on an 8-byte burst = 2 bursts.
	if got := ev.burstsOf(9); got != 2 {
		t.Errorf("burstsOf(9) = %d, want 2", got)
	}
	if got := ev.burstsOf(8); got != 1 {
		t.Errorf("burstsOf(8) = %d, want 1", got)
	}
}

func TestDRMapImprovementErrors(t *testing.T) {
	if _, err := DRMapImprovement(nil, dram.DDR3); err == nil {
		t.Error("DRMapImprovement on empty points succeeded")
	}
	if _, err := SALPImprovement(nil, 3, dram.SALP1); err == nil {
		t.Error("SALPImprovement on empty points succeeded")
	}
}
