package service

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"drmap/internal/accel"
	"drmap/internal/cnn"
)

// maxDSEHitAllocs bounds the heap allocations of one warm Service.DSE
// hit, parse included. Measured: 8 for LeNet-5, ResNet-18 and the
// three-layer custom stack alike; the bound leaves a margin of 4. A key
// built by JSON-marshaling the resolved request again, as it once was,
// measured 19, 19 and 21.
const maxDSEHitAllocs = 12

// hitStack is the custom network of the hit-path tests.
var hitStack = []LayerJSON{
	{Name: "conv1", H: 32, W: 32, J: 32, I: 16, P: 3, Q: 3, Stride: 1, Pad: 1},
	{Name: "conv2", H: 16, W: 16, J: 64, I: 32, P: 3, Q: 3, Stride: 1, Pad: 1},
	{Name: "fc", Kind: "fc", H: 1, W: 1, J: 10, I: 4096, P: 1, Q: 1, Stride: 1},
}

// TestDSEHitAllocs: a result-cache hit does only the work that depends
// on the request - parse, a fixed-field key, one cache lookup and the
// response copy - with no JSON and no goroutine. The 2x bench gate on
// BenchmarkDSEResultHit cannot see a return to JSON keys; this count
// does.
func TestDSEHitAllocs(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 16})
	ctx := context.Background()
	for name, req := range map[string]DSERequest{
		"lenet5":   {Arch: "ddr3", Network: "lenet5"},
		"resnet18": {Arch: "salp2", Network: "resnet18", Objective: "energy"},
		"custom":   {Arch: "hbm2", Layers: hitStack},
	} {
		if _, err := svc.DSE(ctx, req); err != nil {
			t.Fatalf("%s: DSE: %v", name, err)
		}
		hits := svc.CacheStats().Hits
		const runs = 100
		allocs := testing.AllocsPerRun(runs, func() {
			resp, err := svc.DSE(ctx, req)
			if err != nil || !resp.Cached {
				t.Fatalf("%s: warm DSE: cached=%v err=%v", name, resp != nil && resp.Cached, err)
			}
		})
		if allocs > maxDSEHitAllocs {
			t.Errorf("%s: a warm DSE hit allocates %v times, want at most %d", name, allocs, maxDSEHitAllocs)
		}
		// AllocsPerRun adds one warm-up call to the runs.
		if got := svc.CacheStats().Hits - hits; got != runs+1 {
			t.Errorf("%s: %d hits counted for %d lookups", name, got, runs+1)
		}
	}
}

// TestDSEKeyCustomNeverAliasesBuiltin: a custom stack whose layers equal
// LeNet-5's is a different request from "network":"lenet5" - it misses
// the built-in entry and answers under the custom name.
func TestDSEKeyCustomNeverAliasesBuiltin(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 16})
	ctx := context.Background()
	if _, err := svc.DSE(ctx, DSERequest{Arch: "ddr3", Network: "lenet5"}); err != nil {
		t.Fatal(err)
	}
	var layers []LayerJSON
	for _, l := range cnn.LeNet5().Layers {
		layers = append(layers, LayerJSON{Name: l.Name, Kind: strings.ToLower(l.Kind.String()),
			H: l.H, W: l.W, J: l.J, I: l.I, P: l.P, Q: l.Q, Stride: l.Stride, Pad: l.Pad})
	}
	got, err := svc.DSE(ctx, DSERequest{Arch: "ddr3", Layers: layers})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached || got.Network != "custom" {
		t.Errorf("custom LeNet-5 layers: cached=%v network=%q, want a miss answering \"custom\"", got.Cached, got.Network)
	}
}

// TestDSEKeyDistinguishesFields: every resolved field is part of the
// key. Two custom stacks that differ in one layer name miss each other,
// and so does a change of objective, batch, schedule set or policy set.
func TestDSEKeyDistinguishesFields(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 64})
	renamed := append([]LayerJSON(nil), hitStack...)
	renamed[1].Name = "conv2b"
	base := DSERequest{Arch: "ddr3", Layers: hitStack}
	key := func(req DSERequest) string {
		t.Helper()
		job, err := parseDSE(req)
		if err != nil {
			t.Fatal(err)
		}
		k, err := svc.dseKey(job)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	with := func(edit func(*DSERequest)) DSERequest {
		req := base
		edit(&req)
		return req
	}
	baseKey := key(base)
	if again := key(DSERequest{Arch: "ddr3", Layers: append([]LayerJSON(nil), hitStack...)}); again != baseKey {
		t.Fatal("equal requests keyed differently")
	}
	for name, req := range map[string]DSERequest{
		"layer name": with(func(r *DSERequest) { r.Layers = renamed }),
		"objective":  with(func(r *DSERequest) { r.Objective = "energy" }),
		"batch":      with(func(r *DSERequest) { r.Batch = 2 }),
		"schedules":  with(func(r *DSERequest) { r.Schedules = []string{"adaptive"} }),
		"policies":   with(func(r *DSERequest) { r.Policies = []int{1, 3} }),
		"backend":    with(func(r *DSERequest) { r.Arch = "salp1" }),
	} {
		if key(req) == baseKey {
			t.Errorf("%s: changing it left the key unchanged", name)
		}
	}
	ctx := context.Background()
	if _, err := svc.DSE(ctx, base); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.DSE(ctx, with(func(r *DSERequest) { r.Layers = renamed }))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("a stack differing in one layer name hit the other's entry")
	}
}

// TestDSEKeyCoversStructs: dseKey and networkKey encode accel.Config and
// cnn.Layer field by field. A new field must join the key, or two
// requests differing only in it would share a cached answer.
func TestDSEKeyCoversStructs(t *testing.T) {
	for typ, encoded := range map[reflect.Type]int{
		reflect.TypeOf(accel.Config{}): 6,
		reflect.TypeOf(cnn.Layer{}):    10,
	} {
		if typ.NumField() != encoded {
			t.Errorf("%s has %d fields, the DSE key encodes %d: add the new ones to dseKey/networkKey",
				typ, typ.NumField(), encoded)
		}
	}
}
