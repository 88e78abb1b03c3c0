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
	"drmap/internal/report"
	"drmap/internal/tiling"
)

func TestServiceDSEMatchesSerialAndCaches(t *testing.T) {
	svc := New(Options{Workers: 4, CacheEntries: 16})
	req := DSERequest{Arch: "ddr3", Network: "lenet5"}
	resp, err := svc.DSE(context.Background(), req)
	if err != nil {
		t.Fatalf("DSE: %v", err)
	}
	if resp.Cached {
		t.Error("first request reported cached")
	}
	if resp.Network != "LeNet-5" && resp.Network != "lenet5" {
		t.Logf("network name: %s", resp.Network)
	}
	ev := testEvaluators(t)[dram.DDR3]
	serial, err := core.RunDSE(cnn.LeNet5(), ev, tiling.Schedules, mapping.TableI())
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if len(resp.Result.Layers) != len(serial.Layers) {
		t.Fatalf("got %d layers, want %d", len(resp.Result.Layers), len(serial.Layers))
	}
	for i, lj := range resp.Result.Layers {
		ls := serial.Layers[i]
		if lj.MinEDPJs != ls.MinEDP {
			t.Errorf("layer %s: MinEDP %.17g != serial %.17g", lj.Layer, lj.MinEDPJs, ls.MinEDP)
		}
		if lj.Mapping.ID != ls.Best.Policy.ID {
			t.Errorf("layer %s: mapping %d != serial %d", lj.Layer, lj.Mapping.ID, ls.Best.Policy.ID)
		}
	}
	if resp.Result.TotalEDPJs != serial.TotalEDP() {
		t.Errorf("total EDP %.17g != serial %.17g", resp.Result.TotalEDPJs, serial.TotalEDP())
	}

	evalsAfterFirst := svc.Evaluations()
	again, err := svc.DSE(context.Background(), req)
	if err != nil {
		t.Fatalf("repeat DSE: %v", err)
	}
	if !again.Cached {
		t.Error("repeated identical request was not served from cache")
	}
	if got := svc.Evaluations(); got != evalsAfterFirst {
		t.Errorf("repeat request re-evaluated: %d -> %d", evalsAfterFirst, got)
	}
	again.Cached = resp.Cached
	if !reflect.DeepEqual(resp, again) {
		t.Error("cached response differs from the original")
	}
}

// TestServiceDSESingleFlight: N concurrent identical requests cost one
// DSE evaluation.
func TestServiceDSESingleFlight(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 16})
	// Warm the characterization so the only remaining computation is
	// the DSE itself.
	if _, err := svc.Characterize(context.Background(), CharacterizeRequest{Archs: []string{"salp1"}}); err != nil {
		t.Fatalf("warm characterize: %v", err)
	}
	before := svc.Evaluations()

	const n = 8
	req := DSERequest{Arch: "salp1", Network: "lenet5"}
	var wg sync.WaitGroup
	responses := make([]*DSEResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = svc.DSE(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
	}
	if got := svc.Evaluations() - before; got != 1 {
		t.Errorf("%d concurrent identical requests cost %d evaluations, want 1", n, got)
	}
	for i := 1; i < n; i++ {
		if responses[i].Result.TotalEDPJs != responses[0].Result.TotalEDPJs {
			t.Errorf("request %d observed a different result", i)
		}
	}
}

func TestServiceDSEDistinguishesRequests(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 16})
	a, err := svc.DSE(context.Background(), DSERequest{Arch: "ddr3", Network: "lenet5"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.DSE(context.Background(), DSERequest{Arch: "ddr3", Network: "lenet5", Objective: "energy"})
	if err != nil {
		t.Fatal(err)
	}
	if b.Cached {
		t.Error("different objective hit the same cache entry")
	}
	c, err := svc.DSE(context.Background(), DSERequest{Arch: "ddr3", Network: "lenet5", Policies: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cached {
		t.Error("restricted policy set hit the full-search cache entry")
	}
	_ = a
}

// TestServiceDSEDedupesPolicies: a repeated policy ID resolves to one
// grid entry, so [3,3,3] is the same request as [3] - same result, one
// cache entry - and cannot multiply the DSE work.
func TestServiceDSEDedupesPolicies(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 16})
	rep, err := svc.DSE(context.Background(), DSERequest{Arch: "ddr3", Network: "lenet5", Policies: []int{3, 3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	one, err := svc.DSE(context.Background(), DSERequest{Arch: "ddr3", Network: "lenet5", Policies: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	if !one.Cached {
		t.Error("[3] after [3,3,3] was not served from the same cache entry")
	}
	one.Cached = rep.Cached
	if !reflect.DeepEqual(rep, one) {
		t.Errorf("[3,3,3] and [3] differ:\n%+v\n%+v", rep.Result, one.Result)
	}
}

// TestDSEJobValidateRejectsRepeats: a hand-built job (a shard posted
// straight to a worker) that repeats a schedule or a policy is rejected
// instead of multiplying the grid.
func TestDSEJobValidateRejectsRepeats(t *testing.T) {
	backend, _ := dram.Lookup("ddr3")
	job := DSEJob{
		Backend: backend, Accel: accel.TableII(), Network: cnn.LeNet5(),
		Schedules: tiling.Schedules, Policies: mapping.TableI(),
		Objective: core.MinimizeEDP, Batch: 1,
	}
	if err := job.Validate(); err != nil {
		t.Fatalf("valid job: %v", err)
	}
	p := mapping.TableI()[0]
	policies, schedules := job, job
	policies.Policies = []mapping.Policy{p, mapping.TableI()[1], p}
	schedules.Schedules = []tiling.Schedule{tiling.Schedules[0], tiling.Schedules[0]}
	for name, j := range map[string]DSEJob{"policies": policies, "schedules": schedules} {
		if err := j.Validate(); err == nil {
			t.Errorf("job with repeated %s validated", name)
		}
	}
}

func TestServiceDSECustomNetwork(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 4})
	req := DSERequest{
		Arch: "ddr3",
		Layers: []LayerJSON{
			{Name: "conv1", H: 8, W: 8, J: 16, I: 3, P: 3, Q: 3, Stride: 1, Pad: 1},
			{Name: "fc", Kind: "fc", H: 1, W: 1, J: 10, I: 1024, P: 1, Q: 1, Stride: 1},
		},
	}
	resp, err := svc.DSE(context.Background(), req)
	if err != nil {
		t.Fatalf("custom network DSE: %v", err)
	}
	if len(resp.Result.Layers) != 2 {
		t.Fatalf("got %d layers, want 2", len(resp.Result.Layers))
	}
	if resp.Result.TotalEDPJs <= 0 {
		t.Error("non-positive total EDP")
	}
}

func TestServiceDSERejectsBadInput(t *testing.T) {
	svc := New(Options{Workers: 1, CacheEntries: 4})
	cases := []DSERequest{
		{Arch: "ddr9", Network: "lenet5"},
		{Arch: "ddr3", Network: "mysterynet"},
		{Arch: "ddr3"},
		{Arch: "ddr3", Network: "lenet5", Policies: []int{42}},
		{Arch: "ddr3", Network: "lenet5", Objective: "vibes"},
		{Arch: "ddr3", Network: "lenet5", Schedules: []string{"never"}},
		{Arch: "ddr3", Network: "lenet5", Layers: []LayerJSON{{Name: "x"}}},
	}
	for i, req := range cases {
		if _, err := svc.DSE(context.Background(), req); err == nil {
			t.Errorf("case %d: expected an error for %+v", i, req)
		}
	}
}

func TestServiceCharacterize(t *testing.T) {
	svc := New(Options{Workers: 4, CacheEntries: 16})
	resp, err := svc.Characterize(context.Background(), CharacterizeRequest{})
	if err != nil {
		t.Fatalf("Characterize: %v", err)
	}
	backends := dram.Backends()
	if len(resp.Profiles) != len(backends) {
		t.Fatalf("got %d profiles, want %d (one per registered backend)", len(resp.Profiles), len(backends))
	}
	for i, p := range resp.Profiles {
		if p.Arch != backends[i].Name {
			t.Errorf("profile %d is %s, want %s", i, p.Arch, backends[i].Name)
		}
		if p.Backend != backends[i].ID {
			t.Errorf("profile %d backend %q, want %q", i, p.Backend, backends[i].ID)
		}
		if len(p.Conditions) != 5 {
			t.Errorf("%s: %d conditions, want 5", p.Arch, len(p.Conditions))
		}
		for _, c := range p.Conditions {
			if c.Stream.Cycles <= 0 || c.Stream.EnergyJ <= 0 {
				t.Errorf("%s/%s: non-positive stream cost", p.Arch, c.Condition)
			}
		}
	}
	again, err := svc.Characterize(context.Background(), CharacterizeRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat characterization not served from cache")
	}
}

func TestServiceSimulate(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 4})
	req := SimulateRequest{
		Arch:     "ddr3",
		Policy:   3,
		Layer:    LayerJSON{Name: "c1", H: 10, W: 10, J: 16, I: 6, P: 5, Q: 5, Stride: 1},
		Tiling:   report.TilingJSON{Th: 10, Tw: 10, Tj: 16, Ti: 6},
		Schedule: "ofms",
	}
	resp, err := svc.Simulate(context.Background(), req)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if resp.Cost.Cycles <= 0 || resp.Cost.EnergyJ <= 0 || resp.Cost.EDPJs <= 0 {
		t.Errorf("degenerate simulated cost %+v", resp.Cost)
	}
	again, err := svc.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat simulation not cached")
	}
}

func TestServiceSweep(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 4})
	resp, err := svc.Sweep(context.Background(), SweepRequest{Kind: "subarrays", Values: []int{2, 4}, Network: "lenet5"})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(resp.Table.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(resp.Table.Rows))
	}
	if _, err := svc.Sweep(context.Background(), SweepRequest{Kind: "nope"}); err == nil {
		t.Error("expected an error for an unknown sweep kind")
	}
}

func TestServicePoliciesAndHealth(t *testing.T) {
	svc := New(Options{Workers: 3, CacheEntries: 4})
	pols := svc.Policies()
	if len(pols.Policies) != 6 {
		t.Fatalf("got %d policies, want 6", len(pols.Policies))
	}
	if pols.Policies[2].ID != 3 || pols.Policies[2].Name == "" {
		t.Errorf("policy 3 malformed: %+v", pols.Policies[2])
	}
	h := svc.Health()
	if h.Status != "ok" || h.Workers != 3 {
		t.Errorf("health %+v", h)
	}
}

// TestServiceSweepDedupesValues: a repeated sweep value runs its point
// once, so [64,64,64] is the same request as [64] - one row, the same
// rows, one cache entry.
func TestServiceSweepDedupesValues(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 8})
	ctx := context.Background()
	rep, err := svc.Sweep(ctx, SweepRequest{Kind: "buffers", Values: []int{64, 64, 64}, Network: "lenet5"})
	if err != nil {
		t.Fatalf("Sweep [64,64,64]: %v", err)
	}
	one, err := svc.Sweep(ctx, SweepRequest{Kind: "buffers", Values: []int{64}, Network: "lenet5"})
	if err != nil {
		t.Fatalf("Sweep [64]: %v", err)
	}
	if len(rep.Table.Rows) != 1 {
		t.Errorf("[64,64,64] gave %d rows, want 1", len(rep.Table.Rows))
	}
	if !one.Cached {
		t.Error("[64] after [64,64,64] was not served from the same cache entry")
	}
	if !reflect.DeepEqual(rep.Table, one.Table) {
		t.Errorf("[64,64,64] and [64] differ:\n%+v\n%+v", rep.Table, one.Table)
	}
}

// TestSweepBufferPointSharesDSEEntry: a sweep point is a DSE job, so
// the buffers point at the Table II 64 KB is the DRMap-only v1 DSE of
// the same backend and network, and the two share one result-cache
// entry in either order.
func TestSweepBufferPointSharesDSEEntry(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 16})
	ctx := context.Background()
	sw, err := svc.Sweep(ctx, SweepRequest{Kind: "buffers", Values: []int{64}, Arch: "ddr3", Network: "lenet5"})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if sw.Cached {
		t.Error("first sweep reported cached")
	}
	dse, err := svc.DSE(ctx, DSERequest{Arch: "ddr3", Network: "lenet5", Policies: []int{mapping.DRMap().ID}})
	if err != nil {
		t.Fatalf("DSE: %v", err)
	}
	if !dse.Cached {
		t.Error("the DRMap-only DSE missed the sweep point's entry")
	}
	if got, want := sw.Table.Rows[0].Values[0], dse.Result.TotalEDPJs*1e6; got != want {
		t.Errorf("sweep row %.17g != DSE total %.17g", got, want)
	}
	again, err := svc.Sweep(ctx, SweepRequest{Kind: "buffers", Values: []int{64}, Arch: "ddr3", Network: "lenet5"})
	if err != nil {
		t.Fatalf("Sweep (repeat): %v", err)
	}
	if !again.Cached {
		t.Error("repeated sweep: not every point was a hit")
	}
}

// TestSubarraySweepCharacterizesOnce: a subarrays sweep of N values
// characterizes N dies, once each - the point's evaluator and the
// stream-cost column read one cached profile - and a repeat is all
// hits.
func TestSubarraySweepCharacterizesOnce(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 16})
	req := SweepRequest{Kind: "subarrays", Values: []int{2, 4, 16}, Network: "lenet5"}
	if _, err := svc.Sweep(context.Background(), req); err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if got := svc.profiles.Stats().Misses; got != int64(len(req.Values)) {
		t.Errorf("profile cache misses = %d, want %d (one per die)", got, len(req.Values))
	}
	again, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatalf("Sweep (repeat): %v", err)
	}
	if !again.Cached {
		t.Error("repeated sweep: not every point was a hit")
	}
	if got := svc.profiles.Stats().Misses; got != int64(len(req.Values)) {
		t.Errorf("repeated sweep characterized again: %d misses", got)
	}
}

// TestDSEKeyReregisteredBackendMisses: a backend carrying a registered
// ID with another config - a re-registration as seen by a process that
// cached the old one, or a shard from a process with another registry -
// is a result-cache miss priced on its own config, never a hit on the
// registered backend's entry, and the backend fingerprint memo does not
// keep it.
func TestDSEKeyReregisteredBackendMisses(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 16})
	ctx := context.Background()
	req := DSERequest{Arch: "ddr3", Network: "lenet5"}
	reg, err := svc.DSE(ctx, req)
	if err != nil {
		t.Fatalf("DSE: %v", err)
	}
	job, err := parseDSE(req)
	if err != nil {
		t.Fatal(err)
	}
	job.Backend.Config.Timing.TCKNanos *= 2
	got, err := svc.dse(ctx, job)
	if err != nil {
		t.Fatalf("DSE on the re-registered config: %v", err)
	}
	if got.Cached {
		t.Fatal("re-registered config was served the registered backend's cached result")
	}
	if got.Result.TotalEDPJs == reg.Result.TotalEDPJs {
		t.Errorf("re-registered config priced like the registered one: EDP %g", got.Result.TotalEDPJs)
	}
	svc.printsMu.Lock()
	_, kept := svc.prints[job.Backend]
	svc.printsMu.Unlock()
	if kept {
		t.Error("the fingerprint memo kept a backend that is not the registered one")
	}
	again, err := svc.DSE(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Result.TotalEDPJs != reg.Result.TotalEDPJs {
		t.Errorf("registered backend lost its entry: cached=%v EDP %g, want %g",
			again.Cached, again.Result.TotalEDPJs, reg.Result.TotalEDPJs)
	}
}

// TestProfileSurvivesResultFlood: characterizations are held apart from
// the result LRU, so a flood of DSE results on one backend cannot evict
// another backend's profile.
func TestProfileSurvivesResultFlood(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 4})
	ctx := context.Background()
	b, _ := dram.Lookup("salp1")
	if _, fresh, err := svc.profileFor(b); err != nil || !fresh {
		t.Fatalf("first profileFor: fresh=%v err=%v, want a fresh characterization", fresh, err)
	}
	for _, obj := range []string{"edp", "energy", "delay"} {
		for batch := 1; batch <= 2; batch++ {
			if _, err := svc.DSE(ctx, DSERequest{Arch: "ddr3", Network: "lenet5", Objective: obj, Batch: batch}); err != nil {
				t.Fatalf("DSE %s batch %d: %v", obj, batch, err)
			}
		}
	}
	if _, fresh, err := svc.profileFor(b); err != nil || fresh {
		t.Errorf("profileFor after 6 DSE results: fresh=%v err=%v, want the cached profile", fresh, err)
	}
}
