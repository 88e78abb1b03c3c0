package service

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/profile"
	"drmap/internal/tiling"
)

// planDisabled builds a service with the count-plan cache off - the
// pre-split evaluation path - as the recorded baseline the cached path
// must match bit for bit.
func planDisabled() *Service {
	return New(Options{Workers: 2, CacheEntries: 64, PlanCacheEntries: -1})
}

// TestBatchMultiBackendSharesCountPlans: a batch fanning one network
// over every registered backend counts each grid column once per
// distinct count signature and reprices it for the rest, and every
// item's result is bit-for-bit the result of the plan-free path.
func TestBatchMultiBackendSharesCountPlans(t *testing.T) {
	backends := dram.Backends()
	svc := New(Options{Workers: 2, CacheEntries: 64})
	jobs := make([]DSERequest, len(backends))
	for i, b := range backends {
		jobs[i] = DSERequest{Arch: b.ID, Network: "lenet5"}
	}
	resp, err := svc.Batch(context.Background(), BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if resp.Failed != 0 {
		t.Fatalf("%d batch items failed: %+v", resp.Failed, resp.Results)
	}

	// Count-signature arithmetic: the paper four share one die, the
	// generality presets have four distinct geometries.
	keys := map[core.CountKey]bool{}
	for _, b := range backends {
		ev, err := svc.evaluatorFor(DSEJob{Backend: b, Accel: accel.TableII(), Batch: 1})
		if err != nil {
			t.Fatalf("evaluator %s: %v", b.ID, err)
		}
		keys[ev.CountKey()] = true
	}
	// A DSE counts each layer's schedule columns as one run: one
	// plan-cache lookup per layer.
	runs := len(cnn.LeNet5().Layers)
	ps := svc.PlanCacheStats()
	if want := int64(len(keys) * runs); ps.Misses != want {
		t.Errorf("plan cache misses = %d, want %d (%d signatures x %d layer runs)", ps.Misses, want, len(keys), runs)
	}
	if want := int64((len(backends) - len(keys)) * runs); ps.Hits+ps.Coalesced != want {
		t.Errorf("plan cache hits+coalesced = %d, want %d", ps.Hits+ps.Coalesced, want)
	}

	// Bit-for-bit identity against the plan-free path, item by item.
	base := planDisabled()
	if got := base.PlanCacheStats(); got != (CacheStats{}) {
		t.Errorf("disabled plan cache reports stats %+v", got)
	}
	for i, item := range resp.Results {
		want, err := base.DSE(context.Background(), jobs[i])
		if err != nil {
			t.Fatalf("baseline DSE %s: %v", jobs[i].Arch, err)
		}
		if item.Result == nil {
			t.Fatalf("item %d has no result", i)
		}
		if !reflect.DeepEqual(item.Result.Result, want.Result) {
			t.Errorf("%s: plan-cached result diverged from plan-free path", jobs[i].Arch)
		}
	}
}

// TestPlanRepriceAcrossObjectives: a DSE repeated under a different
// objective misses the result cache but reprices the cached count
// plans, and still matches the plan-free path bit for bit.
func TestPlanRepriceAcrossObjectives(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 64})
	req := DSERequest{Arch: "masa", Network: "lenet5"}
	if _, err := svc.DSE(context.Background(), req); err != nil {
		t.Fatalf("DSE: %v", err)
	}
	before := svc.PlanCacheStats()
	if before.Misses == 0 {
		t.Fatal("first DSE did not populate the plan cache")
	}

	req.Objective = "energy"
	got, err := svc.DSE(context.Background(), req)
	if err != nil {
		t.Fatalf("DSE (energy): %v", err)
	}
	if got.Cached {
		t.Error("objective change should miss the result cache")
	}
	after := svc.PlanCacheStats()
	if after.Misses != before.Misses {
		t.Errorf("objective change recounted plans: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Hits <= before.Hits {
		t.Errorf("objective change did not reprice cached plans: hits %d -> %d", before.Hits, after.Hits)
	}

	want, err := planDisabled().DSE(context.Background(), req)
	if err != nil {
		t.Fatalf("baseline DSE: %v", err)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Error("repriced result diverged from plan-free path")
	}
}

// TestEvaluateShardUsesPlanCache: shard evaluation routes through the
// plan cache - a duplicated shard reprices instead of recounting - and
// returns cells identical to the plan-free path's.
func TestEvaluateShardUsesPlanCache(t *testing.T) {
	net := cnn.LeNet5()
	b, ok := dram.Lookup("salp1")
	if !ok {
		t.Fatal("salp1 not registered")
	}
	job := DSEJob{
		Backend: b, Accel: accel.TableII(), Network: net,
		Schedules: tiling.Schedules, Policies: mapping.TableI(),
		Objective: core.MinimizeEDP, Batch: 1,
	}
	span := core.ColumnSpan{Start: 0, End: 3}

	svc := New(Options{Workers: 2, CacheEntries: 64})
	first, err := svc.EvaluateShard(context.Background(), job, span)
	if err != nil {
		t.Fatalf("EvaluateShard: %v", err)
	}
	missesAfterFirst := svc.PlanCacheStats().Misses
	second, err := svc.EvaluateShard(context.Background(), job, span)
	if err != nil {
		t.Fatalf("EvaluateShard (repeat): %v", err)
	}
	ps := svc.PlanCacheStats()
	if ps.Misses != missesAfterFirst {
		t.Errorf("duplicate shard recounted: misses %d -> %d", missesAfterFirst, ps.Misses)
	}
	if ps.Hits == 0 {
		t.Error("duplicate shard did not hit the plan cache")
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("duplicate shard cells diverged")
	}

	want, err := planDisabled().EvaluateShard(context.Background(), job, span)
	if err != nil {
		t.Fatalf("baseline EvaluateShard: %v", err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Error("plan-cached shard cells diverged from plan-free path")
	}
}

// TestEvaluateShardPricesJobAccel: a shard is priced under the
// accelerator its job carries, the one its grid and plan key come
// from. A LeNet-5 shard at 2 bytes per element reduces to the serial
// scan's picks at 2 bytes per element, layer for layer.
func TestEvaluateShardPricesJobAccel(t *testing.T) {
	b, ok := dram.Lookup("ddr3")
	if !ok {
		t.Fatal("ddr3 not registered")
	}
	acfg := accel.TableII()
	acfg.BytesPerElement = 2
	job := DSEJob{
		Backend: b, Accel: acfg, Network: cnn.LeNet5(),
		Schedules: tiling.Schedules, Policies: mapping.TableI(),
		Objective: core.MinimizeEDP, Batch: 1,
	}
	grids, err := job.Grid()
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 2, CacheEntries: 64})
	cells, err := svc.EvaluateShard(context.Background(), job, core.ColumnSpan{Start: 0, End: job.Columns(grids)})
	if err != nil {
		t.Fatalf("EvaluateShard: %v", err)
	}
	perLayer := make([][]core.CellResult, len(grids))
	for _, c := range cells {
		perLayer[c.LayerIndex] = append(perLayer[c.LayerIndex], c)
	}

	prof, err := profile.CharacterizeBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(prof, acfg, job.Batch)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := core.RunDSE(job.Network, ev, job.Schedules, job.Policies)
	if err != nil {
		t.Fatal(err)
	}
	for li, lg := range grids {
		got := core.ReduceCells(lg, job.Schedules, job.Policies, perLayer[li], b.Config.Timing)
		if !reflect.DeepEqual(got, serial.Layers[li]) {
			t.Errorf("layer %s: shard pick EDP %.6g, serial at 2 bytes per element %.6g",
				lg.Layer.Name, got.MinEDP, serial.Layers[li].MinEDP)
		}
	}
}

// TestPlanKeySeparatesCustomPolicies: ID 0 marks any policy outside
// Table I, so two jobs differing only in a custom ID-0 policy's loop
// order must not alias to one count plan - each must match its own
// plan-free evaluation.
func TestPlanKeySeparatesCustomPolicies(t *testing.T) {
	b, ok := dram.Lookup("ddr3")
	if !ok {
		t.Fatal("ddr3 not registered")
	}
	jobWith := func(pol mapping.Policy) DSEJob {
		return DSEJob{
			Backend: b, Accel: accel.TableII(), Network: cnn.LeNet5(),
			Schedules: tiling.Schedules, Policies: []mapping.Policy{pol},
			Objective: core.MinimizeEDP, Batch: 1,
		}
	}
	custom := mapping.Policy{ID: 0, Name: "row-major", Order: [4]mapping.Level{
		mapping.LevelRow, mapping.LevelColumn, mapping.LevelBank, mapping.LevelSubarray}}
	span := core.ColumnSpan{Start: 0, End: 2}

	svc := New(Options{Workers: 2, CacheEntries: 64})
	if _, err := svc.EvaluateShard(context.Background(), jobWith(mapping.Default()), span); err != nil {
		t.Fatalf("EvaluateShard (default policy): %v", err)
	}
	got, err := svc.EvaluateShard(context.Background(), jobWith(custom), span)
	if err != nil {
		t.Fatalf("EvaluateShard (custom policy): %v", err)
	}
	want, err := planDisabled().EvaluateShard(context.Background(), jobWith(custom), span)
	if err != nil {
		t.Fatalf("baseline EvaluateShard: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("custom ID-0 policy repriced the Default policy's cached plan")
	}
}

// TestPlanSignatureMatchesEvaluator: the count key PlanSignature
// derives from a job alone is the one the service's evaluator for that
// job carries, for every backend and batch - so a plan keyed by the
// signature is exactly what the evaluator counts. Die-sharing backends
// and objectives share a signature; another geometry does not.
func TestPlanSignatureMatchesEvaluator(t *testing.T) {
	svc := New(Options{Workers: 1, CacheEntries: 64})
	job := func(id string, obj core.Objective, batch int) DSEJob {
		b, ok := dram.Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		return DSEJob{
			Backend: b, Accel: accel.TableII(), Network: cnn.LeNet5(),
			Schedules: tiling.Schedules, Policies: mapping.TableI(),
			Objective: obj, Batch: batch,
		}
	}
	for _, b := range dram.Backends() {
		for _, batch := range []int{1, 4} {
			j := job(b.ID, core.MinimizeEDP, batch)
			ev, err := svc.evaluatorFor(j)
			if err != nil {
				t.Fatalf("%s: %v", b.ID, err)
			}
			if got, want := countKeyOf(j), ev.CountKey(); got != want {
				t.Errorf("%s batch %d: signature count key %+v, evaluator's %+v", b.ID, batch, got, want)
			}
		}
	}
	sig := func(j DSEJob) string {
		s, err := PlanSignature(j)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ddr3 := sig(job("ddr3", core.MinimizeEDP, 1))
	if sig(job("masa", core.MinimizeDelay, 1)) != ddr3 {
		t.Error("die-sharing backends under another objective got another signature")
	}
	if sig(job("ddr4", core.MinimizeEDP, 1)) == ddr3 || sig(job("ddr3", core.MinimizeEDP, 2)) == ddr3 {
		t.Error("another geometry or batch shares the ddr3 signature")
	}
}

// TestMetricsIncludePlanCacheGauges: the count-plan cache counters are
// exposed on GET /metrics alongside the result-cache counters.
func TestMetricsIncludePlanCacheGauges(t *testing.T) {
	svc := New(Options{Workers: 2, CacheEntries: 8})
	if _, err := svc.DSE(context.Background(), DSERequest{Arch: "ddr3", Network: "lenet5"}); err != nil {
		t.Fatalf("DSE: %v", err)
	}
	text := svc.MetricsText()
	for _, want := range []string{
		"drmap_plan_cache_hits_total",
		"drmap_plan_cache_misses_total",
		"drmap_plan_cache_coalesced_total",
		"drmap_plan_cache_evictions_total",
		"drmap_plan_cache_entries",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	ps := svc.PlanCacheStats()
	if ps.Misses == 0 || ps.Entries == 0 {
		t.Errorf("plan cache unused after a DSE: %+v", ps)
	}
}

// TestEvaluateShardSplitsLayersMidSchedules: shard spans that cut
// layers between schedules - so a worker counts partial layer runs -
// return exactly the cells of a direct per-column scan, in column
// order, on both the cached and the plan-free path; merged, they reduce
// to serial RunDSE's picks layer for layer.
func TestEvaluateShardSplitsLayersMidSchedules(t *testing.T) {
	b, ok := dram.Lookup("masa")
	if !ok {
		t.Fatal("masa not registered")
	}
	job := DSEJob{
		Backend: b, Accel: accel.TableII(), Network: cnn.LeNet5(),
		Schedules: tiling.Schedules, Policies: mapping.TableI(),
		Objective: core.MinimizeEDP, Batch: 1,
	}
	grids, err := job.Grid()
	if err != nil {
		t.Fatal(err)
	}
	ns := len(job.Schedules)
	// Every cut but the last falls inside a layer's schedules.
	spans := []core.ColumnSpan{{Start: 0, End: 1}, {Start: 1, End: 6}, {Start: 6, End: 7}, {Start: 7, End: 14}, {Start: 14, End: job.Columns(grids)}}
	for _, svc := range []*Service{New(Options{Workers: 2, CacheEntries: 64}), planDisabled()} {
		ev, err := svc.evaluatorFor(job)
		if err != nil {
			t.Fatal(err)
		}
		perLayer := make([][]core.CellResult, len(grids))
		for _, span := range spans {
			cells, err := svc.EvaluateShard(context.Background(), job, span)
			if err != nil {
				t.Fatalf("EvaluateShard %v: %v", span, err)
			}
			var want []core.CellResult
			for col := span.Start; col < span.End; col++ {
				li, si := col/ns, col%ns
				want = append(want, ev.EvaluateScheduleColumn(grids[li], si, job.Schedules[si], job.Policies, job.Objective)...)
			}
			if !reflect.DeepEqual(cells, want) {
				t.Fatalf("span %v: shard cells diverge from the per-column scan", span)
			}
			for _, c := range cells {
				perLayer[c.LayerIndex] = append(perLayer[c.LayerIndex], c)
			}
		}
		serial, err := core.RunDSEObjective(job.Network, ev, job.Schedules, job.Policies, job.Objective)
		if err != nil {
			t.Fatal(err)
		}
		for li, lg := range grids {
			if got := core.ReduceCells(lg, job.Schedules, job.Policies, perLayer[li], ev.Timing()); !reflect.DeepEqual(got, serial.Layers[li]) {
				t.Errorf("layer %d: merged shards pick %+v, serial RunDSE %+v", li, got, serial.Layers[li])
			}
		}
	}
}

// TestPlanCacheBoundedInColumns: the plan cache's entry bound counts
// grid columns, so layer runs of any length never hold more than the
// bound, and a run longer than the whole bound is not retained.
func TestPlanCacheBoundedInColumns(t *testing.T) {
	const bound = 10
	svc := New(Options{Workers: 2, CacheEntries: 64, PlanCacheEntries: bound})
	resident := func() int {
		svc.planCache.mu.Lock()
		defer svc.planCache.mu.Unlock()
		return svc.planCache.weight
	}
	columns := func() int {
		n := 0
		svc.planCache.mu.Lock()
		defer svc.planCache.mu.Unlock()
		for el := svc.planCache.ll.Front(); el != nil; el = el.Next() {
			n += len(el.Value.(*cacheEntry).val.([]*core.FlatColumn))
		}
		return n
	}
	b, _ := dram.Lookup("ddr3")
	job := DSEJob{
		Backend: b, Accel: accel.TableII(), Network: cnn.LeNet5(),
		Schedules: tiling.Schedules, Policies: mapping.TableI(),
		Objective: core.MinimizeEDP, Batch: 1,
	}
	// Runs of 1 to 4 columns: single-column shards, partial layers and
	// whole DSEs over several networks and schedule sets.
	for _, span := range []core.ColumnSpan{{Start: 0, End: 1}, {Start: 1, End: 3}, {Start: 3, End: 9}, {Start: 9, End: 20}} {
		if _, err := svc.EvaluateShard(context.Background(), job, span); err != nil {
			t.Fatal(err)
		}
		if n := columns(); n > bound || n != resident() {
			t.Fatalf("after span %v: %d columns resident (weight %d), bound %d", span, n, resident(), bound)
		}
	}
	for _, req := range []DSERequest{
		{Arch: "ddr4", Network: "lenet5"},
		{Arch: "hbm2", Network: "alexnet"},
		{Arch: "ddr3", Network: "lenet5", Schedules: []string{"ofms", "ifms"}},
		{Arch: "ddr3", Network: "lenet5", Schedules: []string{"adaptive"}},
	} {
		if _, err := svc.DSE(context.Background(), req); err != nil {
			t.Fatalf("DSE %+v: %v", req, err)
		}
		if n := columns(); n > bound || n != resident() {
			t.Fatalf("after DSE %+v: %d columns resident (weight %d), bound %d", req, n, resident(), bound)
		}
	}
	if st := svc.PlanCacheStats(); st.Evictions == 0 {
		t.Error("a workload of many more columns than the bound evicted nothing")
	}

	// A bound below one layer's run keeps nothing rather than overflow.
	tiny := New(Options{Workers: 1, CacheEntries: 8, PlanCacheEntries: 3})
	if _, err := tiny.DSE(context.Background(), DSERequest{Arch: "ddr3", Network: "lenet5"}); err != nil {
		t.Fatal(err)
	}
	if st := tiny.PlanCacheStats(); st.Entries != 0 {
		t.Errorf("4-column runs in a 3-column cache: %d entries resident, want 0", st.Entries)
	}
}

// TestPlanSizeBytesCountsSharedIndexOnce: the columns of one layer run
// share its row index, so the plan cache's byte budget charges a run
// its plane bytes, one header per column and that index once - not once
// per column.
func TestPlanSizeBytesCountsSharedIndexOnce(t *testing.T) {
	svc := New(Options{Workers: 1, CacheEntries: 4})
	ev, err := svc.evaluatorFor(DSEJob{Backend: dram.Backends()[0], Accel: accel.TableII(), Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A non-square layer stores one plan row per tiling.
	l := cnn.Layer{Name: "rect", Kind: cnn.Conv, H: 15, W: 9, J: 24, I: 10, P: 5, Q: 3, Stride: 2, Pad: 1}
	lg := core.LayerGrid{Layer: l, Tilings: tiling.Enumerate(l, accel.TableII())}
	policies := mapping.TableI()
	run := ev.CountLayer(lg, tiling.Schedules, policies)
	if len(run) < 2 {
		t.Fatalf("run of %d columns, want several", len(run))
	}
	planes := int64(2*mapping.NumCategories) * int64(run[0].Cells()) * 8
	index := 2 * 4 * int64(run[0].Tilings()) // rowOf and firstTiling, an int32 per tiling each
	header := planSizeBytes(run[:1]) - planes - index
	if header <= 0 {
		t.Fatalf("one column weighs %d bytes, want more than its %d plane and %d index bytes", planSizeBytes(run[:1]), planes, index)
	}
	if got, want := planSizeBytes(run), int64(len(run))*(planes+header)+index; got != want {
		t.Errorf("a %d-column run weighs %d bytes, want %d: planes and header per column plus one %d-byte index", len(run), got, want, index)
	}
}
