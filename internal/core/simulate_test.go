package core

import (
	"testing"

	"drmap/internal/cnn"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/tiling"
)

// leNetSpec returns a small layer spec whose trace-driven simulation is
// cheap enough for unit tests.
func leNetSpec() LayerSpec {
	return LayerSpec{
		Layer:    cnn.LeNet5().Layers[1], // CONV2: 10x10x16, I=6, 5x5
		Tiling:   tiling.Tiling{Th: 10, Tw: 10, Tj: 16, Ti: 6},
		Schedule: tiling.OfmsReuse,
		Batch:    1,
	}
}

func TestSimulateLayerPositive(t *testing.T) {
	cost, err := SimulateLayer(dram.DDR3Config(), mapping.DRMap(), leNetSpec(), 1)
	if err != nil {
		t.Fatalf("SimulateLayer: %v", err)
	}
	if cost.Cycles <= 0 || cost.Energy <= 0 {
		t.Errorf("degenerate simulated cost %+v", cost)
	}
}

func TestSimulateRejectsBadInputs(t *testing.T) {
	if _, err := SimulateLayer(dram.DDR3Config(), mapping.DRMap(), leNetSpec(), 0); err == nil {
		t.Error("accepted zero bytes per element")
	}
	bad := dram.DDR3Config()
	bad.Geometry.Banks = 0
	if _, err := SimulateLayer(bad, mapping.DRMap(), leNetSpec(), 1); err == nil {
		t.Error("accepted invalid DRAM config")
	}
}

func TestSimulationAgreesWithAnalyticalModel(t *testing.T) {
	// The analytical model prices tile streams with steady-state
	// per-category costs; the trace-driven simulation is the ground
	// truth. For DRMap's hit-dominated streams the two must agree
	// closely (within 25%).
	spec := leNetSpec()
	for _, arch := range dram.Archs {
		ev := evaluatorFor(t, arch)
		analytic := ev.EvaluateLayer(spec.Layer, spec.Tiling, spec.Schedule, mapping.DRMap())
		simulated, err := SimulateLayer(dram.ConfigFor(arch), mapping.DRMap(), spec, 1)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		ratio := analytic.Cycles / simulated.Cycles
		if ratio < 0.75 || ratio > 1.35 {
			t.Errorf("%v: analytic cycles %.0f vs simulated %.0f (ratio %.2f)",
				arch, analytic.Cycles, simulated.Cycles, ratio)
		}
		eratio := analytic.Energy / simulated.Energy
		if eratio < 0.6 || eratio > 1.6 {
			t.Errorf("%v: analytic energy %.3g vs simulated %.3g (ratio %.2f)",
				arch, analytic.Energy, simulated.Energy, eratio)
		}
	}
}

func TestSimulationPreservesMappingOrdering(t *testing.T) {
	// Whatever the absolute errors, simulation and analytical model must
	// agree that DRMap beats the subarray-first Mapping-2.
	spec := leNetSpec()
	for _, arch := range dram.Archs {
		cfg := dram.ConfigFor(arch)
		tm := cfg.Timing
		ev := evaluatorFor(t, arch)
		simM3, err := SimulateLayer(cfg, mapping.TableI()[2], spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		simM2, err := SimulateLayer(cfg, mapping.TableI()[1], spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !(simM3.EDP(tm) < simM2.EDP(tm)) {
			t.Errorf("%v: simulation says Mapping-2 (%.3g) beats DRMap (%.3g)",
				arch, simM2.EDP(tm), simM3.EDP(tm))
		}
		anaM3 := ev.EvaluateLayer(spec.Layer, spec.Tiling, spec.Schedule, mapping.TableI()[2])
		anaM2 := ev.EvaluateLayer(spec.Layer, spec.Tiling, spec.Schedule, mapping.TableI()[1])
		if !(anaM3.EDP(tm) < anaM2.EDP(tm)) {
			t.Errorf("%v: analytic says Mapping-2 beats DRMap", arch)
		}
	}
}

func TestSimulationShowsSALPBenefitForMapping2(t *testing.T) {
	// Ground-truth check of the paper's premise: on the subarray-first
	// mapping, MASA must be much faster than DDR3 in actual simulation.
	spec := leNetSpec()
	m2 := mapping.TableI()[1]
	ddr3, err := SimulateLayer(dram.DDR3Config(), m2, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	masa, err := SimulateLayer(dram.SALPMASAConfig(), m2, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if masa.Cycles*2 > ddr3.Cycles {
		t.Errorf("MASA (%.0f cycles) not well below DDR3 (%.0f) for Mapping-2", masa.Cycles, ddr3.Cycles)
	}
}
