package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"drmap/client"
	"drmap/internal/dram"
	"drmap/internal/service"
)

// Op is one load-generator operation. Exactly one of DSE, Batch and Sim
// is set; V1 sends a DSE synchronously (POST /api/v1/dse) instead of as
// a v2 job followed on its event stream.
type Op struct {
	V1    bool                    `json:"v1,omitempty"`
	DSE   *client.DSERequest      `json:"dse,omitempty"`
	Batch *client.BatchRequest    `json:"batch,omitempty"`
	Sim   *client.SimulateRequest `json:"sim,omitempty"`
}

// JobRequest wraps the op as a v2 job submission.
func (op Op) JobRequest() client.JobRequest {
	switch {
	case op.Batch != nil:
		return client.JobRequest{Kind: "batch", Batch: op.Batch}
	case op.Sim != nil:
		return client.JobRequest{Kind: "simulate", Simulate: op.Sim}
	default:
		return client.JobRequest{Kind: "dse", DSE: op.DSE}
	}
}

// Workload is one seeded traffic mix: the requests primed before the
// timer and the timed op stream, which the closed loop consumes in
// order and replays cyclically if a run outlasts it.
type Workload struct {
	Name    string
	Clients int  // closed-loop clients, i.e. ops in flight
	Cluster bool // coordinator plus two workers instead of one daemon
	Prime   []Op
	Ops     []Op
}

// Op returns the i-th op of the timed stream.
func (w *Workload) Op(i int) Op { return w.Ops[i%len(w.Ops)] }

// Workloads lists the benchmark's workload names.
var Workloads = []string{"dse-hot", "dse-mix", "sim-net", "cluster-mix"}

var (
	objectives  = []string{"edp", "energy", "delay"}
	batches     = []int{1, 2, 4}
	schedulers  = []string{"fcfs", "frfcfs"}
	pagePolices = []string{"open", "closed"}
	simNetworks = []string{"lenet5", "alexnet", "resnet18", "vgg16"}
)

// Generate builds a workload's inputs from its seed alone: the same
// seed gives a byte-identical op stream.
func Generate(name string, seed int64) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	backends := dram.BackendIDs()
	switch name {
	case "dse-hot":
		return genDSEHot(rng, backends), nil
	case "dse-mix":
		return genDSEMix(rng, backends), nil
	case "sim-net":
		return genSimNet(rng, backends), nil
	case "cluster-mix":
		return genClusterMix(rng, backends), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads)
}

// genDSEHot draws 24 distinct v1 DSE requests over the cheaper networks;
// the timed stream replays seeded permutations of exactly that set, so
// after priming every timed op is a result-cache hit.
func genDSEHot(rng *rand.Rand, backends []string) *Workload {
	w := &Workload{Name: "dse-hot", Clients: 2}
	seen := map[string]bool{}
	for len(w.Prime) < 24 {
		req := client.DSERequest{
			Arch:      backends[rng.Intn(len(backends))],
			Objective: objectives[rng.Intn(len(objectives))],
			Batch:     batches[rng.Intn(len(batches))],
		}
		// Six requests per network class, so every seed primes the same
		// amount of counting.
		if k := len(w.Prime) % 4; k == 3 {
			req.Layers = customStack(rng)
		} else {
			req.Network = []string{"lenet5", "alexnet", "resnet18"}[k]
		}
		key := keyOf(req)
		if seen[key] {
			continue
		}
		seen[key] = true
		w.Prime = append(w.Prime, Op{V1: true, DSE: &req})
	}
	for len(w.Ops) < 4096 {
		for _, i := range rng.Perm(len(w.Prime)) {
			w.Ops = append(w.Ops, w.Prime[i])
		}
	}
	return w
}

// geometryGroups partitions the backends by die geometry, the part of
// a backend the count plan depends on; the groups keep registry order.
func geometryGroups(backends []string) [][]string {
	var groups [][]string
	var geoms []dram.Geometry
	for _, id := range backends {
		b, _ := dram.Lookup(id)
		k := slices.Index(geoms, b.Config.Geometry)
		if k < 0 {
			geoms = append(geoms, b.Config.Geometry)
			groups = append(groups, nil)
			k = len(groups) - 1
		}
		groups[k] = append(groups[k], id)
	}
	return groups
}

// builtinUnits returns every backend x objective x batch request of a
// built-in network, in units that share one count signature (network,
// batch, die geometry): a unit's first op counts, the rest reprice.
// Units over a multi-backend geometry (12 ops) are spread evenly
// between the single-backend ones (3 ops), so any stretch of the
// sequence has the same share of cold counts.
func builtinUnits(rng *rand.Rand, network string, groups [][]string) []client.DSERequest {
	var big, small [][]client.DSERequest
	for _, batch := range batches {
		for _, g := range groups {
			var unit []client.DSERequest
			for _, arch := range g {
				for _, obj := range objectives {
					unit = append(unit, client.DSERequest{Arch: arch, Network: network, Objective: obj, Batch: batch})
				}
			}
			rng.Shuffle(len(unit), func(i, j int) { unit[i], unit[j] = unit[j], unit[i] })
			if len(g) > 1 {
				big = append(big, unit)
			} else {
				small = append(small, unit)
			}
		}
	}
	rng.Shuffle(len(big), func(i, j int) { big[i], big[j] = big[j], big[i] })
	rng.Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
	var out []client.DSERequest
	per := len(small) / max(len(big), 1)
	for len(big) > 0 || len(small) > 0 {
		if len(big) > 0 {
			out = append(out, big[0]...)
			big = big[1:]
		}
		for k := 0; k < per && len(small) > 0; k++ {
			out = append(out, small[0]...)
			small = small[1:]
		}
	}
	return out
}

// freshStack draws a custom stack and batch size pair not in seen.
func freshStack(rng *rand.Rand, seen map[string]bool) ([]service.LayerJSON, int) {
	for {
		layers, batch := customStack(rng), batches[rng.Intn(len(batches))]
		k := keyOf(struct {
			L []service.LayerJSON
			B int
		}{layers, batch})
		if !seen[k] {
			seen[k] = true
			return layers, batch
		}
	}
}

// customUnit is a fresh custom stack asked three times on one die
// geometry: one cold count, two reprices.
func customUnit(rng *rand.Rand, group []string, seen map[string]bool) []client.DSERequest {
	layers, batch := freshStack(rng, seen)
	var unit []client.DSERequest
	for _, k := range rng.Perm(len(group) * len(objectives))[:3] {
		unit = append(unit, client.DSERequest{
			Arch: group[k/len(objectives)], Layers: layers,
			Objective: objectives[k%len(objectives)], Batch: batch,
		})
	}
	return unit
}

// genDSEMix builds rounds of seven ops in seeded order: one each of
// lenet5, alexnet, resnet18 and vgg16 and three custom-stack ops. Each
// built-in class walks its 72 requests (8 backends x 3 objectives x 3
// batch sizes) in count-signature units and then starts over - by then
// the result cache has long evicted them - and custom units are always
// fresh, so result hits are rare and every class keeps a fixed share
// of cold counts and reprices. Three custom slots keep the expensive
// resnet18 and vgg16 cold counts near 6% of the ops, so lat_p90_ms
// falls inside the cheaper cold counts rather than at the edge of the
// expensive ones, where it would swing with the seed.
func genDSEMix(rng *rand.Rand, backends []string) *Workload {
	w := &Workload{Name: "dse-mix", Clients: 2}
	groups := geometryGroups(backends)
	shared := groups[0]
	for _, g := range groups {
		if len(g) > len(shared) {
			shared = g
		}
	}
	var classes [][]client.DSERequest
	for _, n := range []string{"lenet5", "alexnet", "resnet18", "vgg16"} {
		classes = append(classes, builtinUnits(rng, n, groups))
	}
	const customSlots = 3
	var custom []client.DSERequest
	seen := map[string]bool{}
	for round := 0; len(w.Ops) < 3000; round++ {
		for _, k := range rng.Perm(len(classes) + customSlots) {
			var req client.DSERequest
			if k >= len(classes) {
				if len(custom) == 0 {
					custom = customUnit(rng, shared, seen)
				}
				req, custom = custom[0], custom[1:]
			} else {
				c := classes[k]
				req = c[round%len(c)]
			}
			w.Ops = append(w.Ops, Op{DSE: &req})
		}
	}
	return w
}

// simCombo is one simulate cache key: the engine is not part of it.
type simCombo struct {
	arch            string
	policy          int
	scheduler, page string
}

func simPerm(rng *rand.Rand, backends []string) []simCombo {
	var all []simCombo
	for _, b := range backends {
		for p := 0; p <= 6; p++ {
			for _, sc := range schedulers {
				for _, pg := range pagePolices {
					all = append(all, simCombo{b, p, sc, pg})
				}
			}
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}

func (c simCombo) request(network, engine string) *client.SimulateRequest {
	return &client.SimulateRequest{
		Arch: c.arch, Policy: c.policy, Network: network,
		Scheduler: c.scheduler, PagePolicy: c.page, Engine: engine,
	}
}

// genSimNet builds rounds of six ops in seeded order: one lenet5, one
// alexnet, two resnet18 and two vgg16. With two thirds of the ops on
// the two expensive networks both lat_p50_ms and lat_p90_ms fall inside
// their latency range instead of in the gap below it, which keeps them
// steady across seeds. Each network walks its own permutation of its
// 224 cache keys, so the stream has no key repeats, and alternates
// engines, so half of its ops run on each.
func genSimNet(rng *rand.Rand, backends []string) *Workload {
	w := &Workload{Name: "sim-net", Clients: 2}
	weights := []int{1, 1, 2, 2} // per simNetworks entry
	var slots []int
	for k, n := range weights {
		for i := 0; i < n; i++ {
			slots = append(slots, k)
		}
	}
	perms := make([][]simCombo, len(simNetworks))
	for i := range simNetworks {
		perms[i] = simPerm(rng, backends)
	}
	// An even number of whole rounds that fits every network's keys.
	rounds := len(perms[0])
	for _, n := range weights {
		rounds = min(rounds, len(perms[0])/n)
	}
	rounds -= rounds % 2
	used := make([]int, len(simNetworks))
	for r := 0; r < rounds; r++ {
		for _, j := range rng.Perm(len(slots)) {
			k := slots[j]
			engine := engineNames[used[k]%2]
			w.Ops = append(w.Ops, Op{Sim: perms[k][used[k]].request(simNetworks[k], engine)})
			used[k]++
		}
	}
	return w
}

// genClusterMix emits blocks of eight ops: six 8-backend batches and
// two network simulates, at seeded positions. Batches come in pairs on
// one fresh custom stack and batch size: the first of a pair counts
// once per die geometry and reprices the backends sharing one; the
// second (another objective) finds those plans only on the worker that
// counted them. Simulates walk a
// permutation of cache keys over the three cheaper built-in networks.
func genClusterMix(rng *rand.Rand, backends []string) *Workload {
	w := &Workload{Name: "cluster-mix", Clients: 1, Cluster: true}
	sims := simPerm(rng, backends)
	nextSim := 0
	var pending []Op
	seen := map[string]bool{}
	batchOp := func() Op {
		if len(pending) == 0 {
			layers, batch := freshStack(rng, seen)
			for _, k := range rng.Perm(len(objectives))[:2] {
				var jobs []client.DSERequest
				for _, b := range backends {
					jobs = append(jobs, client.DSERequest{Arch: b, Layers: layers, Objective: objectives[k], Batch: batch})
				}
				pending = append(pending, Op{Batch: &client.BatchRequest{Jobs: jobs}})
			}
		}
		op := pending[0]
		pending = pending[1:]
		return op
	}
	for len(w.Ops) < 1600 {
		simAt := rng.Perm(8)[:2]
		for pos := 0; pos < 8; pos++ {
			if pos == simAt[0] || pos == simAt[1] {
				engine := engineNames[nextSim%2]
				w.Ops = append(w.Ops, Op{Sim: sims[nextSim%len(sims)].request(simNetworks[nextSim%3], engine)})
				nextSim++
				continue
			}
			w.Ops = append(w.Ops, batchOp())
		}
	}
	return w
}

// customStack draws a seeded four-layer 3x3 conv stack, two layers at
// 14x14 then two at 7x7, with 32 to 128 channels: shapes well inside
// the Table II buffers, whose count cost varies only with the channels.
func customStack(rng *rand.Rand) []service.LayerJSON {
	chans := []int{32, 48, 64, 96, 128}
	in := chans[rng.Intn(2)]
	layers := make([]service.LayerJSON, 4)
	for i := range layers {
		hw := 14 >> (i / 2)
		out := chans[rng.Intn(len(chans))]
		layers[i] = service.LayerJSON{
			Name: fmt.Sprintf("C%d", i+1), H: hw, W: hw, J: out, I: in,
			P: 3, Q: 3, Stride: 1, Pad: 1,
		}
		in = out
	}
	return layers
}

// keyOf is a request's identity: its JSON form. Generated requests
// always spell out objective and batch, so equal keys mean equal
// server-side cache keys.
func keyOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always encode
	}
	return string(b)
}
