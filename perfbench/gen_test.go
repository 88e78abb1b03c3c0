package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"drmap/client"
	"drmap/internal/accel"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/service"
	"drmap/internal/tiling"
)

func stream(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := Generate(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct{ Prime, Ops []Op }{w.Prime, w.Ops})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range Workloads {
		a, b := stream(t, name, 7), stream(t, name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different op streams", name)
		}
	}
}

func TestDifferentSeedDifferentStream(t *testing.T) {
	for _, name := range Workloads {
		if bytes.Equal(stream(t, name, 7), stream(t, name, 8)) {
			t.Errorf("%s: seeds 7 and 8 produced the same op stream", name)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Generate("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// countSignature is the part of a DSE request the count plan depends
// on: the workload, the batch and the backend's die geometry.
func countSignature(r client.DSERequest) string {
	b, _ := dram.Lookup(r.Arch)
	return keyOf(struct {
		Network string
		Layers  []service.LayerJSON
		Batch   int
		Geom    dram.Geometry
	}{r.Network, r.Layers, r.Batch, b.Config.Geometry})
}

func TestDSEHotIsAllResultHitsAfterPriming(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		w, err := Generate("dse-hot", seed)
		if err != nil {
			t.Fatal(err)
		}
		primed := map[string]bool{}
		for _, op := range w.Prime {
			primed[keyOf(*op.DSE)] = true
		}
		if len(primed) != len(w.Prime) || len(primed) > service.DefaultCacheEntries/4 {
			t.Fatalf("seed %d: %d distinct of %d primed requests, want all distinct and well inside the %d-entry result cache",
				seed, len(primed), len(w.Prime), service.DefaultCacheEntries)
		}
		for i, op := range w.Ops {
			if !op.V1 || !primed[keyOf(*op.DSE)] {
				t.Fatalf("seed %d op %d: not a primed v1 request, so not a result-cache hit", seed, i)
			}
		}
	}
}

func TestSimNetHasNoKeyRepeats(t *testing.T) {
	w, err := Generate("sim-net", 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	engines := map[string]int{}
	for i, op := range w.Ops {
		engines[op.Sim.Engine]++
		s := *op.Sim
		s.Engine = "" // not part of the server's cache key
		if k := keyOf(s); seen[k] {
			t.Fatalf("op %d repeats a simulate cache key", i)
		} else {
			seen[k] = true
		}
	}
	if engines["serial"] != engines["parallel"] {
		t.Errorf("engine split %v, want half each", engines)
	}
}

func TestDSEMixResultHitsAreRare(t *testing.T) {
	w, err := Generate("dse-mix", 4)
	if err != nil {
		t.Fatal(err)
	}
	results, counts := map[string]bool{}, map[string]bool{}
	fresh, repeated := 0, 0
	for i := 0; i < 300; i++ {
		req := *w.Op(i).DSE
		if k := keyOf(req); results[k] {
			t.Fatalf("op %d repeats a result key", i)
		} else {
			results[k] = true
		}
		if k := countSignature(req); counts[k] {
			repeated++
		} else {
			counts[k] = true
			fresh++
		}
	}
	if fresh == 0 || repeated == 0 {
		t.Errorf("dse-mix first 300 ops: %d fresh and %d repeated count signatures, want both", fresh, repeated)
	}
}

func TestClusterMixShape(t *testing.T) {
	w, err := Generate("cluster-mix", 5)
	if err != nil {
		t.Fatal(err)
	}
	sims := 0
	for i := 0; i < 400; i++ {
		op := w.Op(i)
		if op.Sim != nil {
			sims++
			continue
		}
		if n := len(op.Batch.Jobs); n != 8 {
			t.Fatalf("op %d: batch of %d jobs, want one per registered backend", i, n)
		}
	}
	if sims != 100 {
		t.Errorf("%d simulates in 400 ops, want a 3:1 batch:simulate mix", sims)
	}
}

// Custom stacks must be valid workloads with buffer-fitting tilings,
// or their ops would fail.
func TestCustomStacksHaveGrids(t *testing.T) {
	for _, name := range []string{"dse-hot", "dse-mix", "cluster-mix"} {
		w, err := Generate(name, 9)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			op := w.Op(i)
			reqs := []Op{op}
			if op.Batch != nil {
				reqs = []Op{{DSE: &op.Batch.Jobs[0]}}
			}
			for _, r := range reqs {
				if r.DSE == nil || len(r.DSE.Layers) == 0 {
					continue
				}
				net, err := networkOf("", r.DSE.Layers)
				if err != nil {
					t.Fatalf("%s op %d: %v", name, i, err)
				}
				if _, err := core.DSEGridFor(net, accel.TableII(), tiling.Schedules, mapping.TableI()); err != nil {
					t.Fatalf("%s op %d: %v", name, i, err)
				}
			}
		}
	}
}
