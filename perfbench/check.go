package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"drmap/client"
	"drmap/internal/accel"
	"drmap/internal/cli"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/memctrl"
	"drmap/internal/profile"
	"drmap/internal/report"
	"drmap/internal/service"
	"drmap/internal/tiling"
	"drmap/internal/trace"
)

// Exact certificates: cycle counts the simulator must reproduce
// bit-for-bit on every commit.
const (
	certSimCycles  = 2818328 // three AlexNet conv specs on SALP-2, either engine
	certCtrlCycles = 152566  // seeded 16K-request refresh-on controller stream
)

// reference recomputes outputs in-process on the serial paths: serial
// core.RunDSEObjective for DSE and batch items, the serial engine for
// simulations.
type reference struct {
	acc      accel.Config
	profiles map[string]*profile.Profile
}

func newReference() (*reference, error) {
	r := &reference{acc: accel.TableII(), profiles: map[string]*profile.Profile{}}
	for _, b := range dram.Backends() {
		p, err := profile.CharacterizeBackend(b)
		if err != nil {
			return nil, err
		}
		r.profiles[b.ID] = p
	}
	return r, nil
}

// networkOf resolves a request's workload the way the service does.
func networkOf(name string, layers []service.LayerJSON) (cnn.Network, error) {
	if name != "" {
		return cli.ParseNetwork(name)
	}
	net := cnn.Network{Name: "custom"}
	for _, l := range layers {
		kind := cnn.Conv
		if l.Kind == "fc" {
			kind = cnn.FC
		}
		net.Layers = append(net.Layers, cnn.Layer{
			Name: l.Name, Kind: kind, H: l.H, W: l.W, J: l.J, I: l.I,
			P: l.P, Q: l.Q, Stride: l.Stride, Pad: l.Pad,
		})
	}
	return net, net.Validate()
}

func objectiveOf(name string) (core.Objective, error) {
	switch name {
	case "", "edp":
		return core.MinimizeEDP, nil
	case "energy":
		return core.MinimizeEnergy, nil
	case "delay":
		return core.MinimizeDelay, nil
	}
	return 0, fmt.Errorf("unknown objective %q", name)
}

func policyOf(id int) (mapping.Policy, error) {
	if id == 0 {
		return mapping.Default(), nil
	}
	for _, p := range mapping.TableI() {
		if p.ID == id {
			return p, nil
		}
	}
	return mapping.Policy{}, fmt.Errorf("unknown policy %d", id)
}

func batchOf(n int) int {
	if n == 0 {
		return 1
	}
	return n
}

// evaluator builds an evaluator for a backend on the reference profiles.
func (r *reference) evaluator(arch string, batch int) (*core.Evaluator, dram.Backend, error) {
	b, ok := dram.Lookup(arch)
	if !ok {
		return nil, b, fmt.Errorf("unknown backend %q", arch)
	}
	ev, err := core.NewEvaluator(r.profiles[arch], r.acc, batchOf(batch))
	return ev, b, err
}

func (r *reference) dse(req client.DSERequest) (report.DSEJSON, error) {
	net, err := networkOf(req.Network, req.Layers)
	if err != nil {
		return report.DSEJSON{}, err
	}
	obj, err := objectiveOf(req.Objective)
	if err != nil {
		return report.DSEJSON{}, err
	}
	ev, b, err := r.evaluator(req.Arch, req.Batch)
	if err != nil {
		return report.DSEJSON{}, err
	}
	res, err := core.RunDSEObjective(net, ev, tiling.Schedules, mapping.TableI(), obj)
	if err != nil {
		return report.DSEJSON{}, err
	}
	return report.DSEResultJSON(res, b.Config.Timing), nil
}

// simInputs resolves a network-mode simulate request to its policy,
// DSE-picked layer specs and controller options.
func (r *reference) simInputs(req client.SimulateRequest) (dram.Backend, mapping.Policy, []core.LayerSpec, memctrl.Options, error) {
	var opt memctrl.Options
	pol, err := policyOf(req.Policy)
	if err != nil {
		return dram.Backend{}, pol, nil, opt, err
	}
	net, err := networkOf(req.Network, nil)
	if err != nil {
		return dram.Backend{}, pol, nil, opt, err
	}
	sched := "adaptive"
	if req.Schedule != "" {
		sched = req.Schedule
	}
	scheds, err := cli.ParseSchedules(sched)
	if err != nil {
		return dram.Backend{}, pol, nil, opt, err
	}
	ev, b, err := r.evaluator(req.Arch, req.Batch)
	if err != nil {
		return b, pol, nil, opt, err
	}
	res, err := core.RunDSE(net, ev, scheds[:1], []mapping.Policy{pol})
	if err != nil {
		return b, pol, nil, opt, err
	}
	specs := make([]core.LayerSpec, len(res.Layers))
	for i, lr := range res.Layers {
		specs[i] = core.LayerSpec{Layer: lr.Layer, Tiling: lr.Best.Tiling, Schedule: lr.Best.Schedule, Batch: batchOf(req.Batch)}
	}
	if req.Scheduler == "frfcfs" {
		opt.Scheduler = memctrl.FRFCFS
	}
	if req.PagePolicy == "closed" {
		opt.PagePolicy = memctrl.ClosedRow
	}
	return b, pol, specs, opt, nil
}

func (r *reference) simulate(ctx context.Context, req client.SimulateRequest) (client.SimulateResponse, error) {
	b, pol, specs, opt, err := r.simInputs(req)
	if err != nil {
		return client.SimulateResponse{}, err
	}
	res, err := core.SimulateNetwork(ctx, b.Config, pol, specs, core.SimOptions{
		Controller: opt, BytesPerElement: r.acc.BytesPerElement,
	})
	if err != nil {
		return client.SimulateResponse{}, err
	}
	net, _ := networkOf(req.Network, nil)
	tm := b.Config.Timing
	out := client.SimulateResponse{Arch: b.Name, Network: net.Name}
	var total core.LayerEDP
	for _, lr := range res {
		total.Add(lr.Cost)
		out.Layers = append(out.Layers, client.SimulateLayer{
			Index: lr.Index, Name: lr.Name, Cost: report.LayerEDPToJSON(lr.Cost, tm),
			Groups: lr.Groups, Requests: lr.Requests, Commands: lr.TotalCommands,
		})
	}
	out.Cost = report.LayerEDPToJSON(total, tm)
	return out, nil
}

func sameJSON(a, b any) (bool, error) {
	x, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	y, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return string(x) == string(y), nil
}

// check compares one op's served output with the reference.
func (r *reference) check(ctx context.Context, op Op, o outcome) error {
	switch {
	case op.V1:
		return r.checkDSE(*op.DSE, o.v1)
	case op.DSE != nil:
		var got client.DSEResponse
		if err := json.Unmarshal(o.result, &got); err != nil {
			return err
		}
		return r.checkDSE(*op.DSE, &got)
	case op.Batch != nil:
		var got client.BatchResponse
		if err := json.Unmarshal(o.result, &got); err != nil {
			return err
		}
		if len(got.Results) != len(op.Batch.Jobs) {
			return fmt.Errorf("batch returned %d items for %d jobs", len(got.Results), len(op.Batch.Jobs))
		}
		for i, item := range got.Results {
			if item.Error != "" {
				return fmt.Errorf("batch item %d: %s", i, item.Error)
			}
			if err := r.checkDSE(op.Batch.Jobs[i], item.Result); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	default:
		var got client.SimulateResponse
		if err := json.Unmarshal(o.result, &got); err != nil {
			return err
		}
		want, err := r.simulate(ctx, *op.Sim)
		if err != nil {
			return err
		}
		got.Cached = false
		if ok, err := sameJSON(got, want); err != nil || !ok {
			return fmt.Errorf("simulate %s/%s policy %d differs from the serial reference (err %v)", op.Sim.Arch, op.Sim.Network, op.Sim.Policy, err)
		}
		return nil
	}
}

func (r *reference) checkDSE(req client.DSERequest, got *client.DSEResponse) error {
	if got == nil {
		return fmt.Errorf("dse %s: no response", req.Arch)
	}
	want, err := r.dse(req)
	if err != nil {
		return err
	}
	if ok, err := sameJSON(got.Result, want); err != nil || !ok {
		return fmt.Errorf("dse %s/%s %s batch %d differs from serial RunDSEObjective (err %v)", req.Arch, req.Network, req.Objective, req.Batch, err)
	}
	return nil
}

// certSpecs are the three AlexNet conv specs of the sim-cycles
// certificate.
func certSpecs() []core.LayerSpec {
	a := cnn.AlexNet().Layers
	return []core.LayerSpec{
		{Layer: a[2], Tiling: tiling.Tiling{Th: 13, Tw: 13, Tj: 24, Ti: 64}, Schedule: tiling.OfmsReuse, Batch: 1},
		{Layer: a[3], Tiling: tiling.Tiling{Th: 13, Tw: 13, Tj: 24, Ti: 96}, Schedule: tiling.IfmsReuse, Batch: 1},
		{Layer: a[4], Tiling: tiling.Tiling{Th: 13, Tw: 13, Tj: 32, Ti: 96}, Schedule: tiling.WghsReuse, Batch: 1},
	}
}

// checkCertificates asserts both exact cycle counts.
func checkCertificates(ctx context.Context) error {
	cfg := dram.ConfigFor(dram.SALP2)
	for _, parallel := range []bool{false, true} {
		res, err := core.SimulateNetwork(ctx, cfg, mapping.DRMap(), certSpecs(), core.SimOptions{
			BytesPerElement: accel.TableII().BytesPerElement, Parallel: parallel,
		})
		if err != nil {
			return err
		}
		var cycles float64
		for _, lr := range res {
			cycles += lr.Cost.Cycles
		}
		if cycles != certSimCycles {
			return fmt.Errorf("sim-cycles certificate: got %v (parallel=%v), want %d", cycles, parallel, certSimCycles)
		}
	}
	g := cfg.Geometry
	rng := rand.New(rand.NewSource(1020))
	reqs := make([]trace.Request, 16384)
	for i := range reqs {
		op := trace.Read
		if rng.Intn(4) == 0 {
			op = trace.Write
		}
		reqs[i] = trace.Request{Op: op, Addr: dram.Address{
			Bank: rng.Intn(g.Banks), Row: rng.Intn(g.Rows), Column: rng.Intn(g.Columns),
		}}
	}
	ctrl, err := memctrl.New(cfg, memctrl.Options{EnableRefresh: true})
	if err != nil {
		return err
	}
	res, err := ctrl.Run(reqs)
	if err != nil {
		return err
	}
	if res.TotalCycles != certCtrlCycles {
		return fmt.Errorf("ctrl-cycles certificate: got %d, want %d", res.TotalCycles, certCtrlCycles)
	}
	return nil
}
