// Benchmarks regenerating every table and figure of the DRMap paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Each figure/table bench recomputes the artifact per
// iteration and reports the headline quantity via b.ReportMetric so the
// reproduction values appear directly in `go test -bench` output:
//
//	BenchmarkFig1Characterization  - Fig. 1 (per-condition cycles/energy)
//	BenchmarkTableIMappingEnum     - Table I (policy enumeration + pruning)
//	BenchmarkTableIIAccelerator    - Table II (accelerator model)
//	BenchmarkFig9a..d              - Fig. 9(a-d) (EDP series per schedule)
//	BenchmarkKeyResultImprovements - headline DRMap-vs-worst percentages
//	BenchmarkObs4SALPvsDDR3        - Key Observation 4 percentages
//	BenchmarkAblation*             - design-choice ablations
package drmap_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"drmap"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/sweep"
	"drmap/internal/trace"
)

func benchEvaluators(b *testing.B) []*drmap.Evaluator {
	b.Helper()
	evs, err := getEvaluators()
	if err != nil {
		b.Fatalf("Evaluators: %v", err)
	}
	return evs
}

// BenchmarkFig1Characterization regenerates Fig. 1 for every
// architecture and reports the subarray-parallel stream cost, the
// quantity that separates the four architectures.
func BenchmarkFig1Characterization(b *testing.B) {
	for _, arch := range drmap.Archs() {
		b.Run(arch.String(), func(b *testing.B) {
			var last *drmap.Profile
			for i := 0; i < b.N; i++ {
				p, err := drmap.Characterize(drmap.ConfigFor(arch))
				if err != nil {
					b.Fatal(err)
				}
				last = p
			}
			if err := last.Validate(); err != nil {
				b.Fatalf("profile shape: %v", err)
			}
			for kind, cost := range last.Stream {
				b.ReportMetric(cost.Cycles, kind.String()+"-cyc/acc")
			}
		})
	}
}

// BenchmarkCharacterizeBackend measures the Fig. 1 characterization
// cost of every registered DRAM backend - the paper four plus the
// generality presets - so per-backend characterization cost shows up in
// the perf trajectory alongside BenchmarkParallelDSE. The hit-stream
// cycles/access is reported as the sanity metric.
func BenchmarkCharacterizeBackend(b *testing.B) {
	for _, backend := range drmap.Backends() {
		b.Run(backend.ID, func(b *testing.B) {
			var last *drmap.Profile
			for i := 0; i < b.N; i++ {
				p, err := drmap.CharacterizeBackend(backend)
				if err != nil {
					b.Fatal(err)
				}
				last = p
			}
			if err := last.Validate(); err != nil {
				b.Fatalf("profile shape: %v", err)
			}
			b.ReportMetric(last.Stream[drmap.AccessRowHit].Cycles, "hit-cyc/acc")
		})
	}
}

// BenchmarkTableIMappingEnumeration regenerates Table I: enumerate all
// 24 loop orders and prune to the six least-row-switching policies.
func BenchmarkTableIMappingEnumeration(b *testing.B) {
	n := 0
	for i := 0; i < b.N; i++ {
		pruned := prunedPolicies()
		n = len(pruned)
	}
	if n != 6 {
		b.Fatalf("pruned to %d policies, want 6 (Table I)", n)
	}
	b.ReportMetric(float64(n), "policies")
}

func prunedPolicies() []drmap.MappingPolicy {
	// The pruning rule is re-derived through the public policy list; the
	// internal enumeration is exercised in package mapping's tests.
	return drmap.TableIPolicies()
}

// BenchmarkTableIIAccelerator regenerates the Table II accelerator
// model numbers: peak MACs/cycle and AlexNet compute cycles.
func BenchmarkTableIIAccelerator(b *testing.B) {
	cfg := drmap.TableII()
	net := drmap.AlexNet()
	var cycles int64
	for i := 0; i < b.N; i++ {
		cycles = 0
		for _, l := range net.Layers {
			cycles += cfg.ComputeCycles(l, 1)
		}
	}
	b.ReportMetric(float64(cfg.MACsPerCycle()), "MACs/cycle")
	b.ReportMetric(float64(cycles), "alexnet-cycles")
}

// fig9Bench regenerates one Fig. 9 subplot per iteration and reports
// DRMap's total EDP and its improvement over the worst mapping.
func fig9Bench(b *testing.B, s drmap.Schedule) {
	evs := benchEvaluators(b)
	var points []drmap.Fig9Point
	for i := 0; i < b.N; i++ {
		pts, err := drmap.Fig9Series(drmap.AlexNet(), s, evs, drmap.TableIPolicies())
		if err != nil {
			b.Fatal(err)
		}
		points = pts
	}
	for _, arch := range drmap.Archs() {
		imp, err := drmap.DRMapImprovement(points, arch)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(imp*100, arch.String()+"-impr%")
	}
}

// BenchmarkFig9aIfmsReuse regenerates Fig. 9(a).
func BenchmarkFig9aIfmsReuse(b *testing.B) { fig9Bench(b, drmap.IfmsReuse) }

// BenchmarkFig9bWghsReuse regenerates Fig. 9(b).
func BenchmarkFig9bWghsReuse(b *testing.B) { fig9Bench(b, drmap.WghsReuse) }

// BenchmarkFig9cOfmsReuse regenerates Fig. 9(c).
func BenchmarkFig9cOfmsReuse(b *testing.B) { fig9Bench(b, drmap.OfmsReuse) }

// BenchmarkFig9dAdaptiveReuse regenerates Fig. 9(d).
func BenchmarkFig9dAdaptiveReuse(b *testing.B) { fig9Bench(b, drmap.AdaptiveReuse) }

// BenchmarkKeyResultImprovements regenerates the paper's headline: the
// EDP improvement of DRMap over the worst mapping per architecture
// (paper: up to 96% DDR3, 94% SALP-1, 91% SALP-2, 80% MASA).
func BenchmarkKeyResultImprovements(b *testing.B) {
	evs := benchEvaluators(b)
	imps := map[drmap.Arch]float64{}
	for i := 0; i < b.N; i++ {
		pts, err := drmap.Fig9Series(drmap.AlexNet(), drmap.AdaptiveReuse, evs, drmap.TableIPolicies())
		if err != nil {
			b.Fatal(err)
		}
		for _, arch := range drmap.Archs() {
			v, err := drmap.DRMapImprovement(pts, arch)
			if err != nil {
				b.Fatal(err)
			}
			imps[arch] = v
		}
	}
	for _, arch := range drmap.Archs() {
		b.ReportMetric(imps[arch]*100, arch.String()+"-impr%")
	}
}

// BenchmarkObs4SALPvsDDR3 regenerates Key Observation 4: the EDP gain
// of each SALP architecture over DDR3 per mapping, adaptive-reuse.
func BenchmarkObs4SALPvsDDR3(b *testing.B) {
	evs := benchEvaluators(b)
	var pts []drmap.Fig9Point
	for i := 0; i < b.N; i++ {
		p, err := drmap.Fig9Series(drmap.AlexNet(), drmap.AdaptiveReuse, evs, drmap.TableIPolicies())
		if err != nil {
			b.Fatal(err)
		}
		pts = p
	}
	for _, id := range []int{2, 3} { // the extremes: subarray-first and DRMap
		for _, arch := range []drmap.Arch{drmap.SALP1, drmap.SALP2, drmap.SALPMASA} {
			v, err := drmap.SALPImprovement(pts, id, arch)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(v*100, fmt.Sprintf("M%d-%v-gain%%", id, arch))
		}
	}
}

// BenchmarkDSEAlexNet times Algorithm 1 end to end on AlexNet (DDR3).
func BenchmarkDSEAlexNet(b *testing.B) {
	evs := benchEvaluators(b)
	for i := 0; i < b.N; i++ {
		res, err := drmap.RunDSE(drmap.AlexNet(), evs[0], drmap.Schedules(), drmap.TableIPolicies())
		if err != nil {
			b.Fatal(err)
		}
		if res.Layers[0].Best.Policy.ID != 3 {
			b.Fatal("DSE did not pick DRMap")
		}
	}
}

// BenchmarkDSEVGG16 times Algorithm 1 on the larger VGG-16 extension
// workload (SALP-MASA).
func BenchmarkDSEVGG16(b *testing.B) {
	evs := benchEvaluators(b)
	ev := evs[len(evs)-1]
	for i := 0; i < b.N; i++ {
		if _, err := drmap.RunDSE(drmap.VGG16(), ev, drmap.Schedules(), drmap.TableIPolicies()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelDSE compares serial RunDSE against the worker-pool
// executor on AlexNet (DDR3). The parallel sub-benchmarks fan the
// layer x schedule x policy grid over 1, 4 and NumCPU workers; on a
// multicore host the NumCPU variant's ns/op shows the pool's speedup
// over the serial baseline, with results verified identical.
func BenchmarkParallelDSE(b *testing.B) {
	evs := benchEvaluators(b)
	ev := evs[0]
	net := drmap.AlexNet()
	serial, err := drmap.RunDSE(net, ev, drmap.Schedules(), drmap.TableIPolicies())
	if err != nil {
		b.Fatal(err)
	}

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := drmap.RunDSE(net, ev, drmap.Schedules(), drmap.TableIPolicies()); err != nil {
				b.Fatal(err)
			}
		}
	})
	workerCounts := []int{1, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	for _, workers := range workerCounts {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
			var res *drmap.DSEResult
			for i := 0; i < b.N; i++ {
				r, err := drmap.ParallelDSE(context.Background(), net, ev, drmap.Schedules(), drmap.TableIPolicies(), workers)
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			if !reflect.DeepEqual(serial, res) {
				b.Fatal("parallel DSE diverged from serial")
			}
		})
	}
}

// BenchmarkBatchMultiBackend measures the count/price split on the
// headline multi-backend scenario: one network fanned over every
// registered DRAM backend (the paper four plus the generality presets)
// in a single batch request. Three paths:
//
//	recount - count-plan cache disabled: the pre-refactor baseline,
//	          every backend expands and counts every grid column.
//	cold    - plan cache enabled but empty: each column is counted
//	          once per distinct count signature (the four paper
//	          architectures share one 2Gb x8 die) and repriced for
//	          the other backends.
//	warm    - plan cache already populated by an earlier batch under
//	          a different objective: the whole batch is reprice-only,
//	          the steady state of a serving daemon.
//
// Every path characterizes its backends outside the timer, so the
// ns/op ratio isolates counting versus pricing. Equivalence of the
// three paths is pinned bit-for-bit by the service plan tests; each
// sub-benchmark asserts only that every item completed. Intended
// cadence: -benchtime=1x -count=3 (the CI bench job's BENCH_5.json);
// at larger -benchtime the timed batch of cold/warm repeats against a
// by-then-populated cache, understating the recount baseline's gap.
func BenchmarkBatchMultiBackend(b *testing.B) {
	backends := drmap.Backends()
	batchReq := func(objective string) drmap.BatchRequest {
		var req drmap.BatchRequest
		for _, backend := range backends {
			req.Jobs = append(req.Jobs, drmap.DSERequest{
				Arch: backend.ID, Network: "alexnet", Objective: objective,
			})
		}
		return req
	}
	ctx := context.Background()
	runBatch := func(b *testing.B, svc *drmap.Service, objective string) {
		b.Helper()
		resp, err := svc.Batch(ctx, batchReq(objective))
		if err != nil {
			b.Fatalf("Batch: %v", err)
		}
		if resp.Failed != 0 {
			b.Fatalf("%d batch items failed", resp.Failed)
		}
	}
	variants := []struct {
		name string
		opts drmap.ServiceOptions
		// prime readies the service outside the timer.
		prime func(b *testing.B, svc *drmap.Service)
	}{
		{"recount", drmap.ServiceOptions{PlanCacheEntries: -1}, nil},
		{"cold", drmap.ServiceOptions{}, nil},
		{"warm", drmap.ServiceOptions{}, func(b *testing.B, svc *drmap.Service) {
			// Populate the plan cache under a different objective:
			// count plans are objective-independent, DSE results are
			// not, so the timed batch misses the result cache but
			// reprices every cached plan.
			runBatch(b, svc, "energy")
		}},
	}
	for _, v := range variants {
		b.Run(v.name+"/8-backends", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				svc := drmap.NewService(v.opts)
				if _, err := svc.Characterize(ctx, drmap.CharacterizeRequest{}); err != nil {
					b.Fatalf("characterize: %v", err)
				}
				if v.prime != nil {
					v.prime(b, svc)
				}
				b.StartTimer()
				runBatch(b, svc, "")
			}
		})
	}
}

// BenchmarkAblationSubarraySweep sweeps subarrays-per-bank on SALP-MASA
// and reports the subarray-parallel stream cost: the SALP headroom the
// paper's architecture choice (8 subarrays) buys.
func BenchmarkAblationSubarraySweep(b *testing.B) {
	for _, sa := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("subarrays-%d", sa), func(b *testing.B) {
			cfg := drmap.SALPMASAConfig()
			cfg.Geometry.Subarrays = sa
			var cost float64
			for i := 0; i < b.N; i++ {
				p, err := drmap.Characterize(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cost = p.Stream[drmap.AccessSubarraySwitch].Cycles
			}
			b.ReportMetric(cost, "sa-cyc/acc")
		})
	}
}

// BenchmarkAblationBufferSweep sweeps the on-chip buffer sizes and
// reports DRMap's AlexNet total EDP on DDR3: how partitioning pressure
// trades against DRAM efficiency.
func BenchmarkAblationBufferSweep(b *testing.B) {
	for _, kb := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("buffers-%dKB", kb), func(b *testing.B) {
			acfg := drmap.TableII()
			acfg.IfmBufBytes, acfg.WgtBufBytes, acfg.OfmBufBytes = kb*1024, kb*1024, kb*1024
			prof, err := drmap.Characterize(drmap.DDR3Config())
			if err != nil {
				b.Fatal(err)
			}
			ev, err := drmap.NewEvaluator(prof, acfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			var total float64
			for i := 0; i < b.N; i++ {
				res, err := drmap.RunDSE(drmap.AlexNet(), ev, drmap.Schedules(),
					[]drmap.MappingPolicy{drmap.DRMapPolicy()})
				if err != nil {
					b.Fatal(err)
				}
				total = res.TotalEDP()
			}
			b.ReportMetric(total*1e6, "EDP-uJs")
		})
	}
}

// BenchmarkAblationDefaultMapping compares the commodity subarray-
// unaware default mapping against DRMap on SALP-MASA AlexNet. On DDR3
// the two tie (a subarray switch costs the same as a row conflict
// there); the subarray awareness pays off once the architecture can
// exploit it.
func BenchmarkAblationDefaultMapping(b *testing.B) {
	evs := benchEvaluators(b)
	ev := evs[len(evs)-1] // SALP-MASA
	var ratio float64
	for i := 0; i < b.N; i++ {
		def, err := drmap.RunDSE(drmap.AlexNet(), ev, drmap.Schedules(),
			[]drmap.MappingPolicy{drmap.DefaultPolicy()})
		if err != nil {
			b.Fatal(err)
		}
		dr, err := drmap.RunDSE(drmap.AlexNet(), ev, drmap.Schedules(),
			[]drmap.MappingPolicy{drmap.DRMapPolicy()})
		if err != nil {
			b.Fatal(err)
		}
		ratio = def.TotalEDP() / dr.TotalEDP()
	}
	b.ReportMetric(ratio, "default/DRMap-EDP")
}

// BenchmarkAblationModelVsSimulation quantifies the analytical model's
// approximation error against the cycle-accurate simulation on a small
// layer, for DRMap and for the subarray-first Mapping-2.
func BenchmarkAblationModelVsSimulation(b *testing.B) {
	evs := benchEvaluators(b)
	spec := drmap.LayerSpec{
		Layer:    drmap.LeNet5().Layers[1],
		Tiling:   drmap.Tiling{Th: 10, Tw: 10, Tj: 16, Ti: 6},
		Schedule: drmap.OfmsReuse,
		Batch:    1,
	}
	for _, pol := range []drmap.MappingPolicy{drmap.DRMapPolicy(), drmap.TableIPolicies()[1]} {
		b.Run(pol.Name, func(b *testing.B) {
			ev := evs[0]
			analytic := ev.EvaluateLayer(spec.Layer, spec.Tiling, spec.Schedule, pol)
			var sim drmap.LayerEDP
			for i := 0; i < b.N; i++ {
				s, err := drmap.SimulateLayer(drmap.DDR3Config(), pol, spec, 1)
				if err != nil {
					b.Fatal(err)
				}
				sim = s
			}
			b.ReportMetric(analytic.Cycles/sim.Cycles, "analytic/sim-cycles")
			b.ReportMetric(analytic.Energy/sim.Energy, "analytic/sim-energy")
		})
	}
}

// BenchmarkAblationWriteCosts compares the paper's single read cost set
// against direction-aware pricing on AlexNet (DDR3, DRMap): how much the
// paper's simplification under-prices ofm/psum write traffic.
func BenchmarkAblationWriteCosts(b *testing.B) {
	evs := benchEvaluators(b)
	base := evs[0]
	refined := *base
	refined.UseWriteCosts = true
	var ratio float64
	for i := 0; i < b.N; i++ {
		plain, err := drmap.RunDSE(drmap.AlexNet(), base, drmap.Schedules(),
			[]drmap.MappingPolicy{drmap.DRMapPolicy()})
		if err != nil {
			b.Fatal(err)
		}
		rw, err := drmap.RunDSE(drmap.AlexNet(), &refined, drmap.Schedules(),
			[]drmap.MappingPolicy{drmap.DRMapPolicy()})
		if err != nil {
			b.Fatal(err)
		}
		ratio = rw.TotalEDP() / plain.TotalEDP()
	}
	b.ReportMetric(ratio, "refined/paper-EDP")
}

// BenchmarkAblationToggleRate sweeps the VAMPIRE data-dependence term
// and reports the per-access energy of a hit stream.
func BenchmarkAblationToggleRate(b *testing.B) {
	for _, rate := range []float64{0, 0.5, 1.0} {
		b.Run(fmt.Sprintf("toggle-%.1f", rate), func(b *testing.B) {
			model, err := drmap.NewEnergyModel(drmap.DDR3Config())
			if err != nil {
				b.Fatal(err)
			}
			if err := model.SetToggleRate(rate); err != nil {
				b.Fatal(err)
			}
			ctrl, err := drmap.NewController(drmap.DDR3Config(), drmap.ControllerOptions{})
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([]drmap.Request, 1024)
			for i := range reqs {
				reqs[i] = drmap.Request{Addr: drmap.Address{Column: i % 128}}
			}
			var perAccess float64
			for i := 0; i < b.N; i++ {
				sim, err := ctrl.Run(reqs)
				if err != nil {
					b.Fatal(err)
				}
				perAccess = drmap.EnergyOfRun(model, sim).Total() / float64(len(reqs))
			}
			b.ReportMetric(perAccess*1e9, "nJ/access")
		})
	}
}

// BenchmarkExtChannelSweep extends DRMap's step 5: simulated
// cycles/access of a channel-interleaved DRMap stream as the channel
// count grows (paper's system has 1 channel; the speedup is ~linear).
func BenchmarkExtChannelSweep(b *testing.B) {
	for _, ch := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("channels-%d", ch), func(b *testing.B) {
			cfg := drmap.DDR3Config()
			cfg.Geometry.Channels = ch
			ctrl, err := drmap.NewController(cfg, drmap.ControllerOptions{})
			if err != nil {
				b.Fatal(err)
			}
			addrs := drmap.ChannelInterleavedAddresses(drmap.DRMapPolicy(), 8192, cfg.Geometry)
			reqs := make([]drmap.Request, len(addrs))
			for i, a := range addrs {
				reqs[i] = drmap.Request{Addr: a}
			}
			var per float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim, err := ctrl.Run(reqs)
				if err != nil {
					b.Fatal(err)
				}
				per = sim.AverageCyclesPerAccess()
			}
			b.ReportMetric(per, "cyc/access")
		})
	}
}

// BenchmarkControllerThroughput measures raw simulator speed on a
// DRMap-ordered request stream.
func BenchmarkControllerThroughput(b *testing.B) {
	cfg := drmap.SALPMASAConfig()
	ctrl, err := drmap.NewController(cfg, drmap.ControllerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	addrs := drmap.DRMapPolicy().Addresses(16384, cfg.Geometry)
	reqs := make([]drmap.Request, len(addrs))
	for i, a := range addrs {
		reqs[i] = drmap.Request{Addr: a}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.Run(reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(reqs)) * 8)
}

// BenchmarkCountsClosedForm measures the analytical category counter,
// the DSE's inner loop.
func BenchmarkCountsClosedForm(b *testing.B) {
	g := drmap.DDR3Config().Geometry
	pol := drmap.DRMapPolicy()
	var sink drmap.AccessCounts
	for i := 0; i < b.N; i++ {
		sink = pol.Counts(int64(i%65536)+1, g)
	}
	_ = sink
}

// BenchmarkRepriceFlat isolates the repricing inner loop the serving
// daemon's warm path runs per (column, backend): one AlexNet column
// (the layer with the most candidate tilings, adaptive-reuse, all six
// Table I policies) is counted once outside the timer, then repriced
// per iteration with PriceFlatInto over the packed FlatColumn planes
// into reused scratch. -benchmem pins the steady-state contract:
// 0 allocs/op. Equivalence with the direct per-tiling scan is pinned
// bit-for-bit by core's count/price tests.
func BenchmarkRepriceFlat(b *testing.B) {
	evs := benchEvaluators(b)
	ev := evs[0]
	schedules, policies := drmap.Schedules(), drmap.TableIPolicies()
	grids, err := core.DSEGrid(drmap.AlexNet(), ev, schedules, policies)
	if err != nil {
		b.Fatal(err)
	}
	lg := grids[0]
	for _, g := range grids {
		if len(g.Tilings) > len(lg.Tilings) {
			lg = g
		}
	}
	si := len(schedules) - 1 // adaptive-reuse
	flat := ev.CountScheduleColumn(lg, si, schedules[si], policies)
	b.Run("flat", func(b *testing.B) {
		out := ev.PriceFlatInto(flat, drmap.MinimizeEDP, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out = ev.PriceFlatInto(flat, drmap.MinimizeEDP, out)
		}
	})
}

// BenchmarkCountColumn measures the whole-network count phase of one
// DSE: every (layer, schedule) column of the four-schedule Table I grid
// counted with CountScheduleColumn into its flat plan, ready for
// repricing - the work a plan-cache miss costs the serving daemon.
// Grid construction is outside the timer. -benchmem pins the kernel's
// allocation discipline: the per-call burst-length memo and reused
// tile-group buffer keep allocs/op at a few per column, not a few per
// tiling.
func BenchmarkCountColumn(b *testing.B) {
	ev := benchEvaluators(b)[0]
	schedules, policies := drmap.Schedules(), drmap.TableIPolicies()
	for _, net := range []drmap.Network{drmap.AlexNet(), drmap.VGG16()} {
		grids, err := core.DSEGrid(net, ev, schedules, policies)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(net.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, lg := range grids {
					for si, s := range schedules {
						ev.CountScheduleColumn(lg, si, s, policies)
					}
				}
			}
		})
	}
}

// BenchmarkRegistrySweep measures the delta-repricing trajectory of the
// whole-registry scan (internal/sweep's plan cache): the DRMap-policy
// AlexNet DSE across every registered backend. Three paths, all with
// characterization outside the timer:
//
//	recount - the pre-split baseline: one serial RunDSE per backend,
//	          every backend expands and counts every grid column.
//	cold    - a fresh plan cache: one count pass per distinct die
//	          geometry (the paper four share one), every other backend
//	          repriced from carried-over vectorized plans.
//	delta   - the cache primed by an earlier pass: the whole registry
//	          is reprice-only, the cost of re-running a sweep point.
//
// Intended cadence: -benchtime=1x -count=3 (the CI bench job).
func BenchmarkRegistrySweep(b *testing.B) {
	net := drmap.AlexNet()
	acfg := drmap.TableII()
	backends := drmap.Backends()
	profs := make([]*drmap.Profile, len(backends))
	for i, backend := range backends {
		p, err := drmap.CharacterizeBackend(backend)
		if err != nil {
			b.Fatal(err)
		}
		profs[i] = p
	}
	scan := func(b *testing.B, pl *sweep.Planner) {
		b.Helper()
		for _, p := range profs {
			if _, err := pl.TotalEDP(p, acfg, net, 1); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("recount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range profs {
				ev, err := drmap.NewEvaluator(p, acfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := drmap.RunDSE(net, ev, drmap.Schedules(),
					[]drmap.MappingPolicy{drmap.DRMapPolicy()}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		var st sweep.PlanStats
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			pl := sweep.NewPlanner()
			b.StartTimer()
			scan(b, pl)
			st = pl.Stats()
		}
		b.ReportMetric(float64(st.Misses), "count-passes")
		b.ReportMetric(float64(st.Hits), "repriced")
	})
	b.Run("delta", func(b *testing.B) {
		pl := sweep.NewPlanner()
		scan(b, pl) // prime outside the timer
		before := pl.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scan(b, pl)
		}
		b.StopTimer()
		if st := pl.Stats(); st.Misses != before.Misses {
			b.Fatalf("primed registry scan recounted: misses %d -> %d", before.Misses, st.Misses)
		}
	})
}

// simulateBenchSpecs is a mid-size simulation workload at fixed design
// points: three AlexNet conv layers, each cut into multiple tile
// streams. Each tile stream is an independent controller domain on the
// event engine, so the parallel driver has real width to exploit while
// the serial driver stays the bit-for-bit reference.
func simulateBenchSpecs() []drmap.LayerSpec {
	a := drmap.AlexNet().Layers
	return []drmap.LayerSpec{
		{Layer: a[2], Tiling: drmap.Tiling{Th: 13, Tw: 13, Tj: 24, Ti: 64}, Schedule: drmap.OfmsReuse, Batch: 1},
		{Layer: a[3], Tiling: drmap.Tiling{Th: 13, Tw: 13, Tj: 24, Ti: 96}, Schedule: drmap.IfmsReuse, Batch: 1},
		{Layer: a[4], Tiling: drmap.Tiling{Th: 13, Tw: 13, Tj: 32, Ti: 96}, Schedule: drmap.WghsReuse, Batch: 1},
	}
}

// benchSimulate runs the cycle-accurate network simulation end to end
// on the chosen discrete-event driver and reports the simulated cycle
// total so the output doubles as a correctness anchor: serial and
// parallel must print the same sim-cycles.
func benchSimulate(b *testing.B, parallel bool) {
	cfg := drmap.ConfigFor(drmap.SALP2)
	specs := simulateBenchSpecs()
	var cycles float64
	for i := 0; i < b.N; i++ {
		res, err := drmap.SimulateNetwork(context.Background(), cfg, drmap.DRMapPolicy(), specs, drmap.SimOptions{
			BytesPerElement: drmap.TableII().BytesPerElement,
			Parallel:        parallel,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = 0
		for _, lr := range res {
			cycles += lr.Cost.Cycles
		}
	}
	b.ReportMetric(cycles, "sim-cycles")
}

// BenchmarkMemctrlRun measures the controller hot loop by itself -
// one cycle-accurate controller servicing a seeded mixed read/write
// stream with refresh on, no network-level harness around it
// (BENCH_10.json). The controller is reused across iterations, so the
// steady state exercises the buffer-reuse path of reset; the reported
// ctrl-cycles metric anchors correctness across runs.
func BenchmarkMemctrlRun(b *testing.B) {
	cfg := drmap.ConfigFor(drmap.SALP2)
	g := cfg.Geometry
	rng := rand.New(rand.NewSource(1020))
	reqs := make([]drmap.Request, 16384)
	for i := range reqs {
		op := trace.Read
		if rng.Intn(4) == 0 {
			op = trace.Write
		}
		reqs[i] = drmap.Request{Op: op, Addr: dram.Address{
			Bank:   rng.Intn(g.Banks),
			Row:    rng.Intn(g.Rows),
			Column: rng.Intn(g.Columns),
		}}
	}
	ctrl, err := drmap.NewController(cfg, drmap.ControllerOptions{EnableRefresh: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles float64
	for i := 0; i < b.N; i++ {
		res, err := ctrl.Run(reqs)
		if err != nil {
			b.Fatal(err)
		}
		cycles = float64(res.TotalCycles)
	}
	b.ReportMetric(cycles, "ctrl-cycles")
}

// BenchmarkSimulateSerial / BenchmarkSimulateParallel: the same
// cycle-accurate network simulation on the serial and parallel event
// engines (BENCH_9.json). The parallel driver's wall-clock win is the
// headline - round-based dispatch beats per-event heap pops even on
// one core, and scales with GOMAXPROCS - while identical sim-cycles
// metrics certify the engines agree bit for bit.
func BenchmarkSimulateSerial(b *testing.B)   { benchSimulate(b, false) }
func BenchmarkSimulateParallel(b *testing.B) { benchSimulate(b, true) }
