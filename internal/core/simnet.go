package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/memctrl"
	"drmap/internal/sim"
	"drmap/internal/tiling"
	"drmap/internal/trace"
	"drmap/internal/vampire"
)

// SimLayerResult is one layer's outcome of a network simulation. Every
// field is a plain value, so the result JSON-round-trips exactly - the
// cluster's distributed simulate merges worker-returned layer results
// bit-for-bit.
type SimLayerResult struct {
	// Index is the layer's position in the simulated spec list; results
	// are self-locating so shards merge in any order.
	Index int `json:"index"`
	// Name is the layer's name.
	Name string `json:"name"`
	// Cost is the simulated DRAM cost (cycles and energy), accumulated
	// over the layer's tile streams in group order.
	Cost LayerEDP `json:"cost"`
	// Groups counts the layer's distinct tile streams.
	Groups int `json:"groups"`
	// Requests counts the simulated burst requests (per distinct
	// stream, not scaled by stream loads).
	Requests int64 `json:"requests"`
	// Commands counts issued DRAM commands by mnemonic (ACT, PRE, RD,
	// WR, SASEL, REF), per distinct stream.
	Commands map[string]int64 `json:"commands,omitempty"`
	// TotalCommands sums Commands.
	TotalCommands int64 `json:"total_commands"`
}

// SimOptions tune a network simulation.
type SimOptions struct {
	// Controller tunes the memory controller (page policy, scheduler,
	// refresh, arrival gap).
	Controller memctrl.Options
	// Parallel selects the parallel event engine: every tile stream of
	// every layer becomes an independent controller agent, and
	// same-tick arrivals of different agents execute concurrently. The
	// results are bit-for-bit identical to the serial engine's (agents
	// share no state).
	Parallel bool
	// Workers bounds the parallel engine's concurrency; <= 0 means one
	// per logical CPU. Ignored by the serial engine.
	Workers int
	// BytesPerElement sizes tensor elements; must be positive.
	BytesPerElement int
	// OnLayer, when set, receives each layer's result the moment its
	// last tile stream finalizes - from an engine goroutine under the
	// parallel driver, so it must be safe for concurrent use.
	OnLayer func(SimLayerResult)
}

// SimLayerSink receives finished layers of a network simulation as an
// executor completes them: lr the moment it is reduced, total the
// job's layer count. Like core.Progress it rides the context so the
// executor signatures (local engine run, cluster coordinator) need not
// change, and implementations must be safe for concurrent use.
type SimLayerSink func(lr SimLayerResult, total int)

type simLayersKey struct{}

// WithSimLayers attaches a layer sink to ctx; simulate executors
// report through it when present.
func WithSimLayers(ctx context.Context, fn SimLayerSink) context.Context {
	return context.WithValue(ctx, simLayersKey{}, fn)
}

// SimLayersFrom returns the context's layer sink, or nil when none is
// attached. Callers must nil-check.
func SimLayersFrom(ctx context.Context) SimLayerSink {
	fn, _ := ctx.Value(simLayersKey{}).(SimLayerSink)
	return fn
}

// requestStream feeds one tile stream's requests to a controller agent
// straight from the mapping policy's address walk - every tile starts
// at the rank origin, so the k-th request is a pure function of k and
// the stream never exists as a slice.
type requestStream struct {
	op  trace.Op
	n   int64
	gen mapping.AddressGen
}

func (s requestStream) Len() int { return int(s.n) }
func (s requestStream) At(i int) trace.Request {
	return trace.Request{Op: s.op, Addr: s.gen.At(int64(i))}
}

// layerSim tracks one layer's agents while the engine runs.
type layerSim struct {
	spec    LayerSpec
	groups  []tiling.TileGroup
	agents  []*memctrl.Agent
	nreqs   []int
	pending atomic.Int64
}

// SimulateNetwork runs every layer of specs through the cycle-accurate
// controller and the energy model on one discrete-event engine: each
// (layer, tile stream) pair is an independent controller agent, so the
// parallel driver overlaps streams across cores while each stream
// stays exactly sequential. Per layer, cycles and energy accumulate in
// tile-group order, so for any engine the per-layer results are
// bit-for-bit identical to calling SimulateLayer per spec.
//
// ctx cancellation aborts the run mid-stream (the engines check it at
// event granularity) and returns ctx's error.
func SimulateNetwork(ctx context.Context, cfg dram.Config, pol mapping.Policy, specs []LayerSpec, opt SimOptions) ([]SimLayerResult, error) {
	if opt.BytesPerElement <= 0 {
		return nil, fmt.Errorf("core: bytes per element must be positive, got %d", opt.BytesPerElement)
	}
	model, err := vampire.New(cfg)
	if err != nil {
		return nil, err
	}
	var eng sim.Engine
	if opt.Parallel {
		eng = sim.NewParallelEngine(opt.Workers)
	} else {
		eng = sim.NewSerialEngine()
	}

	accessBytes := int64(cfg.Geometry.AccessBytes())
	// The layer reduction only reads the result's counters (census,
	// cycles), so the per-request serviced log is dead weight here;
	// dropping it keeps each stream's footprint independent of its
	// length. Callers that want logs run memctrl.Controller directly.
	ctrlOpt := opt.Controller
	ctrlOpt.DiscardServiced = true
	gen := pol.Generator(cfg.Geometry)
	results := make([]SimLayerResult, len(specs))
	layers := make([]*layerSim, len(specs))
	for li, spec := range specs {
		ls := &layerSim{
			spec:   spec,
			groups: tiling.TileGroups(spec.Layer, spec.Tiling, spec.Schedule, spec.Batch),
		}
		layers[li] = ls
		ls.pending.Store(int64(len(ls.groups)))
		for _, grp := range ls.groups {
			bursts := (grp.Elems*int64(opt.BytesPerElement) + accessBytes - 1) / accessBytes
			op := trace.Read
			if grp.Write {
				op = trace.Write
			}
			ctrl, err := memctrl.New(cfg, ctrlOpt)
			if err != nil {
				return nil, err
			}
			agent, err := memctrl.NewSourceAgent(eng, ctrl, requestStream{op: op, n: bursts, gen: gen})
			if err != nil {
				return nil, err
			}
			ls.agents = append(ls.agents, agent)
			ls.nreqs = append(ls.nreqs, int(bursts))
		}
		// The layer finalizes when its last stream does; the hook runs
		// on the finishing agent's engine goroutine, and the atomic
		// countdown orders every stream's finalize before the reduce.
		li := li
		finishLayer := func() {
			if ls.pending.Add(-1) != 0 {
				return
			}
			results[li] = reduceLayer(li, ls, model)
			if opt.OnLayer != nil {
				opt.OnLayer(results[li])
			}
		}
		if len(ls.groups) == 0 {
			results[li] = reduceLayer(li, ls, model)
			if opt.OnLayer != nil {
				opt.OnLayer(results[li])
			}
			continue
		}
		for _, agent := range ls.agents {
			agent.SetOnDone(finishLayer)
		}
	}

	if err := eng.Run(ctx); err != nil {
		return nil, err
	}
	return results, nil
}

// reduceLayer folds one layer's finalized agents into its result, in
// tile-group order, so the floating-point result does not depend on the
// order the engine finished the streams in.
func reduceLayer(index int, ls *layerSim, model *vampire.Model) SimLayerResult {
	out := SimLayerResult{
		Index:    index,
		Name:     ls.spec.Layer.Name,
		Groups:   len(ls.groups),
		Commands: make(map[string]int64),
	}
	for gi, grp := range ls.groups {
		res, err := ls.agents[gi].Result()
		if err != nil {
			// Unreachable: the countdown fires only after every agent
			// finalized.
			panic(err)
		}
		act := vampire.ActivityFromCounts(res.KindCounts, res.DeviceActiveCycles, res.TotalCycles)
		act.ExtraOpenSubarrayCycles = res.ExtraOpenSubarrayCycles
		out.Cost.Cycles += float64(res.TotalCycles) * float64(grp.Loads)
		out.Cost.Energy += model.Energy(act).Total() * float64(grp.Loads)
		out.Requests += int64(ls.nreqs[gi])
		for kind, n := range res.KindCounts {
			if n == 0 {
				continue // only issued kinds get map keys, as before
			}
			out.Commands[trace.CommandKind(kind).String()] += n
			out.TotalCommands += n
		}
	}
	return out
}
