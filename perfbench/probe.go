package main

import (
	"context"
	"fmt"
	"time"

	"drmap/internal/accel"
	"drmap/internal/cli"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/memctrl"
	"drmap/internal/profile"
	"drmap/internal/service"
	"drmap/internal/tiling"
	"drmap/internal/trace"
)

// probeOps is how many ops of the stream the module probes replay.
const probeOps = 2

// probe times calls into each module's public functions on a
// workload's first ops, the way the serving path composes them:
// grid -> count -> flatten -> price -> reduce for the analytic pick,
// SimulateNetwork on both engines, and Controller.Run and address
// generation on the same tile streams. The cluster's figures come from
// the daemons themselves (see putService and scrape).
type probe struct {
	acc      accel.Config
	profiles map[string]*profile.Profile
	charMS   map[string]float64

	ops                int
	gridMS             float64
	countMS, flattenUS float64
	countCols          int
	priceUS            float64
	priceCols          int
	reduceUS           float64
	reduces            int
	simnetMS           [2]float64 // serial, parallel
	memctrlMS, addrMS  float64
	cmds, reqs         int64
}

var engineNames = [2]string{"serial", "parallel"}

func newProbe() *probe {
	return &probe{
		acc: accel.TableII(), profiles: map[string]*profile.Profile{}, charMS: map[string]float64{},
	}
}

// run characterizes every backend, then probes the workload's first
// ops (on cluster-mix: its first batch and its first simulate).
func (p *probe) run(ctx context.Context, w *Workload) error {
	for _, b := range dram.Backends() {
		start := time.Now()
		prof, err := profile.CharacterizeBackend(b)
		if err != nil {
			return err
		}
		p.charMS[b.ID] = ms(time.Since(start))
		p.profiles[b.ID] = prof
	}
	var ops []Op
	if w.Cluster {
		var batch, sim *Op
		for i := 0; batch == nil || sim == nil; i++ {
			op := w.Op(i)
			if op.Sim != nil && sim == nil {
				sim = &op
			} else if op.Batch != nil && batch == nil {
				batch = &op
			}
		}
		ops = []Op{*batch, *sim}
	} else {
		for i := 0; i < probeOps; i++ {
			ops = append(ops, w.Op(i))
		}
	}
	for _, op := range ops {
		if err := p.probeOp(ctx, op); err != nil {
			return err
		}
		p.ops++
	}
	return nil
}

func (p *probe) probeOp(ctx context.Context, op Op) error {
	if op.Sim != nil {
		return p.probeSim(ctx, *op.Sim)
	}
	jobs := []service.DSERequest{}
	if op.Batch != nil {
		jobs = op.Batch.Jobs
	} else {
		jobs = append(jobs, *op.DSE)
	}
	first := jobs[0]
	net, err := networkOf(first.Network, first.Layers)
	if err != nil {
		return err
	}
	obj, err := objectiveOf(first.Objective)
	if err != nil {
		return err
	}
	var archs []string
	for _, j := range jobs {
		archs = append(archs, j.Arch)
	}
	batch := batchOf(first.Batch)
	policies := mapping.TableI()
	layers, err := p.analytic(net, archs, tiling.Schedules, policies, obj, batch)
	if err != nil {
		return err
	}
	b, _ := dram.Lookup(first.Arch)
	return p.simulate(ctx, b.Config, mapping.DRMap(), specsOf(layers, batch), memctrl.Options{})
}

func (p *probe) probeSim(ctx context.Context, req service.SimulateRequest) error {
	pol, err := policyOf(req.Policy)
	if err != nil {
		return err
	}
	net, err := cli.ParseNetwork(req.Network)
	if err != nil {
		return err
	}
	batch := batchOf(req.Batch)
	// The per-policy pick a network simulate runs first.
	layers, err := p.analytic(net, []string{req.Arch}, []tiling.Schedule{tiling.AdaptiveReuse}, []mapping.Policy{pol}, core.MinimizeEDP, batch)
	if err != nil {
		return err
	}
	var opt memctrl.Options
	if req.Scheduler == "frfcfs" {
		opt.Scheduler = memctrl.FRFCFS
	}
	if req.PagePolicy == "closed" {
		opt.PagePolicy = memctrl.ClosedRow
	}
	b, _ := dram.Lookup(req.Arch)
	return p.simulate(ctx, b.Config, pol, specsOf(layers, batch), opt)
}

func specsOf(layers []core.LayerResult, batch int) []core.LayerSpec {
	specs := make([]core.LayerSpec, len(layers))
	for i, lr := range layers {
		specs[i] = core.LayerSpec{Layer: lr.Layer, Tiling: lr.Best.Tiling, Schedule: lr.Best.Schedule, Batch: batch}
	}
	return specs
}

// analytic runs the count -> price pipeline the service runs: the grid
// once, each count signature's columns counted and flattened once, and
// every backend's columns repriced and reduced. It returns the first
// backend's layer picks.
func (p *probe) analytic(net cnn.Network, archs []string, schedules []tiling.Schedule, policies []mapping.Policy, obj core.Objective, batch int) ([]core.LayerResult, error) {
	start := time.Now()
	grids, err := core.DSEGridFor(net, p.acc, schedules, policies)
	if err != nil {
		return nil, err
	}
	p.gridMS += ms(time.Since(start))
	type group struct {
		key   core.CountKey
		evs   []*core.Evaluator
		first bool
	}
	var groups []*group
	for i, arch := range archs {
		ev, err := core.NewEvaluator(p.profiles[arch], p.acc, batch)
		if err != nil {
			return nil, err
		}
		var g *group
		for _, x := range groups {
			if x.key == ev.CountKey() {
				g = x
			}
		}
		if g == nil {
			g = &group{key: ev.CountKey(), first: i == 0}
			groups = append(groups, g)
		}
		g.evs = append(g.evs, ev)
	}
	var layers []core.LayerResult
	for _, g := range groups {
		// One signature's plans at a time bounds the probe's memory.
		flats := make([]*core.FlatColumn, 0, len(grids)*len(schedules))
		for li := range grids {
			for si, s := range schedules {
				start := time.Now()
				cc := g.evs[0].CountScheduleColumn(grids[li], si, s, policies)
				p.countMS += ms(time.Since(start))
				p.countCols++
				start = time.Now()
				flats = append(flats, cc.Flatten())
				p.flattenUS += us(time.Since(start))
			}
		}
		for ei, ev := range g.evs {
			perLayer := make([][]core.CellResult, len(grids))
			for c, fc := range flats {
				start := time.Now()
				out := ev.PriceFlatInto(fc, obj, nil)
				p.priceUS += us(time.Since(start))
				p.priceCols++
				li := c / len(schedules)
				perLayer[li] = append(perLayer[li], out...)
			}
			for li := range grids {
				start := time.Now()
				lr := core.ReduceCells(grids[li], schedules, policies, perLayer[li], ev.Timing())
				p.reduceUS += us(time.Since(start))
				p.reduces++
				if g.first && ei == 0 {
					layers = append(layers, lr)
				}
			}
		}
	}
	return layers, nil
}

// simulate times SimulateNetwork on both engines, then Controller.Run
// and the mapping's address generator on the same tile streams.
func (p *probe) simulate(ctx context.Context, cfg dram.Config, pol mapping.Policy, specs []core.LayerSpec, opt memctrl.Options) error {
	var results [2][]core.SimLayerResult
	for e, parallel := range []bool{false, true} {
		start := time.Now()
		res, err := core.SimulateNetwork(ctx, cfg, pol, specs, core.SimOptions{
			Controller: opt, Parallel: parallel, BytesPerElement: p.acc.BytesPerElement,
		})
		if err != nil {
			return err
		}
		p.simnetMS[e] += ms(time.Since(start))
		results[e] = res
	}
	if ok, err := sameJSON(results[0], results[1]); err != nil || !ok {
		return fmt.Errorf("serial and parallel engines disagree (err %v)", err)
	}
	// The controller options SimulateNetwork runs every stream with.
	opt.DiscardServiced = true
	gen := pol.Generator(cfg.Geometry)
	access := int64(cfg.Geometry.AccessBytes())
	var reqs []trace.Request
	for _, spec := range specs {
		for _, grp := range tiling.TileGroups(spec.Layer, spec.Tiling, spec.Schedule, spec.Batch) {
			bursts := (grp.Elems*int64(p.acc.BytesPerElement) + access - 1) / access
			op := trace.Read
			if grp.Write {
				op = trace.Write
			}
			reqs = reqs[:0]
			start := time.Now()
			for k := int64(0); k < bursts; k++ {
				reqs = append(reqs, trace.Request{Op: op, Addr: gen.At(k)})
			}
			p.addrMS += ms(time.Since(start))
			p.reqs += bursts
			ctrl, err := memctrl.New(cfg, opt)
			if err != nil {
				return err
			}
			start = time.Now()
			res, err := ctrl.Run(reqs)
			if err != nil {
				return err
			}
			p.memctrlMS += ms(time.Since(start))
			for _, n := range res.KindCounts {
				p.cmds += n
			}
		}
	}
	return nil
}

// report puts the probe's per-layer metrics.
func (p *probe) report(b *bench) {
	n := float64(max(p.ops, 1))
	b.put("core.grid_ms", p.gridMS/n, "ms")
	b.put("core.count_ms_per_col", p.countMS/float64(max(p.countCols, 1)), "ms")
	b.put("core.count_cols", float64(p.countCols), "count")
	b.put("core.flatten_us_per_col", p.flattenUS/float64(max(p.countCols, 1)), "us")
	b.put("core.price_us_per_col", p.priceUS/float64(max(p.priceCols, 1)), "us")
	b.put("core.price_cols", float64(p.priceCols), "count")
	b.put("core.reduce_us", p.reduceUS/float64(max(p.reduces, 1)), "us")
	// SimulateNetwork generates addresses as it runs the controllers, so
	// the engine's own time is what is left after both.
	runMS, addrMS := p.memctrlMS/n, p.addrMS/n
	for e, name := range engineNames {
		b.put("core.simnet_ms."+name, p.simnetMS[e]/n, "ms")
		b.put("sim.engine_overhead_ms."+name, p.simnetMS[e]/n-runMS-addrMS, "ms")
	}
	b.put("memctrl.run_ms", runMS, "ms")
	b.put("memctrl.cmds", float64(p.cmds), "count")
	b.put("memctrl.ns_per_cmd", 1e6*p.memctrlMS/float64(max(p.cmds, 1)), "ns")
	b.put("mapping.addrgen_ns_per_req", 1e6*p.addrMS/float64(max(p.reqs, 1)), "ns")
	for id, v := range p.charMS {
		b.put("profile.characterize_ms."+id, v, "ms")
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
