package service

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/profile"
	"drmap/internal/tiling"
)

// Characterization is deterministic and moderately expensive; tests
// share one evaluator per architecture.
var (
	evOnce   sync.Once
	evByArch map[dram.Arch]*core.Evaluator
	evErr    error
)

func testEvaluators(t *testing.T) map[dram.Arch]*core.Evaluator {
	t.Helper()
	evOnce.Do(func() {
		evByArch = make(map[dram.Arch]*core.Evaluator)
		for _, arch := range dram.Archs {
			p, err := profile.Characterize(dram.ConfigFor(arch))
			if err != nil {
				evErr = err
				return
			}
			ev, err := core.NewEvaluator(p, accel.TableII(), 1)
			if err != nil {
				evErr = err
				return
			}
			evByArch[arch] = ev
		}
	})
	if evErr != nil {
		t.Fatalf("evaluators: %v", evErr)
	}
	return evByArch
}

// TestParallelDSEMatchesSerialAllArchs is the equivalence contract: on
// AlexNet, for every architecture, the parallel executor's DSEResult is
// bit-for-bit identical to serial RunDSE's (reflect.DeepEqual compares
// the float64 fields exactly).
func TestParallelDSEMatchesSerialAllArchs(t *testing.T) {
	evs := testEvaluators(t)
	net := cnn.AlexNet()
	schedules := tiling.Schedules
	policies := mapping.TableI()
	for _, arch := range dram.Archs {
		ev := evs[arch]
		serial, err := core.RunDSE(net, ev, schedules, policies)
		if err != nil {
			t.Fatalf("%v: serial RunDSE: %v", arch, err)
		}
		par, err := ParallelDSE(context.Background(), net, ev, schedules, policies, core.MinimizeEDP, 8)
		if err != nil {
			t.Fatalf("%v: ParallelDSE: %v", arch, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("%v: parallel DSE diverged from serial\nserial: %+v\nparallel: %+v", arch, serial, par)
		}
	}
}

// TestParallelDSEWorkerCountInvariance: any pool size yields the same
// result - the reduction is order-independent.
func TestParallelDSEWorkerCountInvariance(t *testing.T) {
	evs := testEvaluators(t)
	ev := evs[dram.SALPMASA]
	net := cnn.LeNet5()
	serial, err := core.RunDSE(net, ev, tiling.Schedules, mapping.TableI())
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, workers := range []int{1, 2, 3, 7, 0} {
		par, err := ParallelDSE(context.Background(), net, ev, tiling.Schedules, mapping.TableI(), core.MinimizeEDP, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d diverged from serial", workers)
		}
	}
}

// TestParallelDSEObjectives: non-EDP objectives also match serial.
func TestParallelDSEObjectives(t *testing.T) {
	evs := testEvaluators(t)
	ev := evs[dram.DDR3]
	net := cnn.LeNet5()
	for _, obj := range core.Objectives {
		serial, err := core.RunDSEObjective(net, ev, tiling.Schedules, mapping.TableI(), obj)
		if err != nil {
			t.Fatalf("%v serial: %v", obj, err)
		}
		par, err := ParallelDSE(context.Background(), net, ev, tiling.Schedules, mapping.TableI(), obj, 4)
		if err != nil {
			t.Fatalf("%v parallel: %v", obj, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("%v: parallel diverged from serial", obj)
		}
	}
}

// TestParallelDSECancellation: a canceled context aborts the run, and
// no executor goroutine outlives it.
func TestParallelDSECancellation(t *testing.T) {
	evs := testEvaluators(t)
	checkLeaks := goroutineBaseline(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ParallelDSE(ctx, cnn.AlexNet(), evs[dram.DDR3], tiling.Schedules, mapping.TableI(), core.MinimizeEDP, 2)
	if err == nil {
		t.Fatal("expected an error from a canceled context")
	}
	checkLeaks()
}

// TestParallelDSEInputValidation: grid errors surface unchanged.
func TestParallelDSEInputValidation(t *testing.T) {
	evs := testEvaluators(t)
	if _, err := ParallelDSE(context.Background(), cnn.AlexNet(), evs[dram.DDR3], nil, mapping.TableI(), core.MinimizeEDP, 2); err == nil {
		t.Error("expected an error with no schedules")
	}
	bad := cnn.Network{Name: "bad", Layers: []cnn.Layer{{Name: "x"}}}
	if _, err := ParallelDSE(context.Background(), bad, evs[dram.DDR3], tiling.Schedules, mapping.TableI(), core.MinimizeEDP, 2); err == nil {
		t.Error("expected an error for an invalid network")
	}
}

// TestParallelDSEMatchesSerialOnGeneralityBackend extends the
// equivalence contract beyond the paper set: on DDR4 (a registered
// non-paper backend), the parallel executor's DSEResult - including
// the backend identity it carries - is bit-for-bit identical to serial
// RunDSE's.
func TestParallelDSEMatchesSerialOnGeneralityBackend(t *testing.T) {
	b, ok := dram.Lookup("ddr4")
	if !ok {
		t.Fatal("ddr4 backend not registered")
	}
	p, err := profile.CharacterizeBackend(b)
	if err != nil {
		t.Fatalf("characterize ddr4: %v", err)
	}
	ev, err := core.NewEvaluator(p, accel.TableII(), 1)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	net := cnn.AlexNet()
	serial, err := core.RunDSE(net, ev, tiling.Schedules, mapping.TableI())
	if err != nil {
		t.Fatalf("serial RunDSE: %v", err)
	}
	if serial.Backend.ID != "ddr4" {
		t.Errorf("serial result carries backend %q, want ddr4", serial.Backend.ID)
	}
	for _, workers := range []int{1, 8} {
		par, err := ParallelDSE(context.Background(), net, ev, tiling.Schedules, mapping.TableI(), core.MinimizeEDP, workers)
		if err != nil {
			t.Fatalf("ParallelDSE(workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: parallel DSE diverged from serial on ddr4", workers)
		}
	}
}

// TestCharacterizeBackendsKeepsIdentity: the parallel backend
// characterization preserves order and backend identity.
func TestCharacterizeBackendsKeepsIdentity(t *testing.T) {
	backends := dram.PaperBackends()
	profiles, err := CharacterizeBackends(context.Background(), backends, 4)
	if err != nil {
		t.Fatalf("CharacterizeBackends: %v", err)
	}
	for i, p := range profiles {
		if p.Backend.ID != backends[i].ID {
			t.Errorf("profile %d is %q, want %q", i, p.Backend.ID, backends[i].ID)
		}
		serial, err := profile.CharacterizeBackend(backends[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, p) {
			t.Errorf("%s: parallel characterization diverged from serial", backends[i].ID)
		}
	}
}
