package service

import (
	"fmt"

	"drmap/internal/cli"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/obs"
	"drmap/internal/report"
	"drmap/internal/tiling"
)

// LayerJSON is one CNN layer's geometry in request bodies, for clients
// submitting custom networks instead of naming a built-in one.
type LayerJSON struct {
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // "conv" (default) or "fc"
	H      int    `json:"h"`
	W      int    `json:"w"`
	J      int    `json:"j"`
	I      int    `json:"i"`
	P      int    `json:"p"`
	Q      int    `json:"q"`
	Stride int    `json:"stride"`
	Pad    int    `json:"pad"`
}

func (l LayerJSON) toLayer() (cnn.Layer, error) {
	kind := cnn.Conv
	switch l.Kind {
	case "", "conv":
	case "fc":
		kind = cnn.FC
	default:
		return cnn.Layer{}, fmt.Errorf("layer %s: unknown kind %q (want conv or fc)", l.Name, l.Kind)
	}
	out := cnn.Layer{
		Name: l.Name, Kind: kind,
		H: l.H, W: l.W, J: l.J, I: l.I, P: l.P, Q: l.Q,
		Stride: l.Stride, Pad: l.Pad,
	}
	return out, out.Validate()
}

// DSERequest asks for an Algorithm 1 run.
type DSERequest struct {
	// Arch is a registered DRAM backend ID (ddr3, salp1, salp2, masa,
	// ddr4, lpddr3, lpddr4, hbm2, or anything registered at runtime);
	// GET /api/v1/backends lists the live set.
	Arch string `json:"arch"`
	// Network names a built-in workload (alexnet, vgg16, lenet5,
	// resnet18); leave empty and populate Layers for a custom network.
	Network string `json:"network,omitempty"`
	// Layers is a custom workload, used when Network is empty.
	Layers []LayerJSON `json:"layers,omitempty"`
	// Schedules restricts the scheduling schemes (ifms, wghs, ofms,
	// adaptive, all); empty means all four.
	Schedules []string `json:"schedules,omitempty"`
	// Policies restricts the Table I mapping IDs (1-6); 0 selects the
	// commodity default mapping. Empty means all six Table I policies.
	Policies []int `json:"policies,omitempty"`
	// Objective is edp (default), energy or delay.
	Objective string `json:"objective,omitempty"`
	// Batch is the image batch size; defaults to 1.
	Batch int `json:"batch,omitempty"`
}

// DSEResponse is a DSE outcome plus serving metadata.
type DSEResponse struct {
	Network   string         `json:"network"`
	Objective string         `json:"objective"`
	Batch     int            `json:"batch"`
	Result    report.DSEJSON `json:"result"`
	// Cached reports whether the result was served from the cache (or
	// coalesced onto an identical in-flight evaluation) instead of
	// being evaluated for this request.
	Cached bool `json:"cached"`
	// hitBody is the result-cache entry's cached:true body; every copy
	// of the cached value shares it, and writeJSON writes it for a hit.
	hitBody *encodedBody
}

// CharacterizeRequest asks for Fig. 1 characterizations.
type CharacterizeRequest struct {
	// Archs lists registered backend IDs to characterize; empty means
	// every registered backend.
	Archs []string `json:"archs,omitempty"`
}

// CharacterizeResponse carries the characterizations in request order.
type CharacterizeResponse struct {
	Profiles []report.ProfileJSON `json:"profiles"`
	Cached   bool                 `json:"cached"`
}

// PoliciesResponse lists the Table I policies.
type PoliciesResponse struct {
	Policies []report.PolicyJSON `json:"policies"`
}

// SimulateRequest asks for a trace-driven simulation - the validation
// path of the tool flow (cycle-accurate controller + energy model
// instead of the analytical counts). Two modes share the endpoint:
// single-layer (Layer + Tiling + Schedule, the original surface) and
// whole-network (Network), where each layer first gets its
// tiling/schedule picked by the DSE under the requested policy and
// then simulates at that design point.
type SimulateRequest struct {
	// Arch is a registered DRAM backend ID.
	Arch string `json:"arch"`
	// Policy is the mapping ID (1-6, or 0 for the commodity default).
	Policy int `json:"policy"`
	// Network names a built-in workload (alexnet, vgg16, lenet5,
	// resnet18) for whole-network simulation. Give either Network or
	// Layer+Tiling, not both.
	Network string `json:"network,omitempty"`
	// Layer is the simulated layer's geometry (single-layer mode).
	Layer LayerJSON `json:"layer,omitzero"`
	// Tiling fixes the partitioning under test (single-layer mode).
	Tiling report.TilingJSON `json:"tiling,omitzero"`
	// Schedule is ifms, wghs, ofms or adaptive. Required in
	// single-layer mode; defaults to adaptive in network mode.
	Schedule string `json:"schedule,omitempty"`
	// Batch defaults to 1.
	Batch int `json:"batch,omitempty"`
	// BytesPerElement defaults to the service accelerator's element
	// width (1 for the paper's int8 Table II datapath).
	BytesPerElement int `json:"bytes_per_element,omitempty"`
	// Scheduler picks the controller's request scheduler: fcfs (the
	// default, the paper's Table II) or frfcfs.
	Scheduler string `json:"scheduler,omitempty"`
	// PagePolicy picks the controller's row policy: open (default) or
	// closed.
	PagePolicy string `json:"page_policy,omitempty"`
	// Engine picks the event engine: serial (default) or parallel.
	// The engines produce bit-for-bit identical results (the choice is
	// excluded from the result cache key); parallel overlaps
	// independent tile streams across cores.
	Engine string `json:"engine,omitempty"`
}

// SimulateLayerJSON is one layer's simulated outcome in network-mode
// responses and "sim_layer" job events.
type SimulateLayerJSON struct {
	// Index is the layer's position in the network.
	Index int `json:"index"`
	// Name is the layer's name.
	Name string `json:"name"`
	// Cost is the simulated DRAM cost.
	Cost report.LayerEDPJSON `json:"cost"`
	// Groups counts the layer's distinct tile streams.
	Groups int `json:"groups"`
	// Requests counts the simulated burst requests.
	Requests int64 `json:"requests"`
	// Commands counts the issued DRAM commands.
	Commands int64 `json:"commands"`
}

// SimulateResponse is the simulated cost: a single layer's, or - in
// network mode - every layer's plus the network total.
type SimulateResponse struct {
	Arch string `json:"arch"`
	// Layer names the simulated layer (single-layer mode).
	Layer string `json:"layer,omitempty"`
	// Network names the simulated workload (network mode), with the
	// per-layer outcomes in Layers.
	Network string              `json:"network,omitempty"`
	Layers  []SimulateLayerJSON `json:"layers,omitempty"`
	// Cost is the layer's cost, or the network total in network mode.
	Cost   report.LayerEDPJSON `json:"cost"`
	Cached bool                `json:"cached"`
}

// SweepRequest asks for one ablation sweep.
type SweepRequest struct {
	// Kind selects the sweep: subarrays, buffers or batch.
	Kind string `json:"kind"`
	// Values are the swept points (subarray counts, buffer KBs or batch
	// sizes); empty picks the sweep's documented defaults.
	Values []int `json:"values,omitempty"`
	// Arch is a registered DRAM backend ID for the buffers/batch sweeps
	// and defaults to ddr3; the subarrays sweep ignores it (it is
	// SALP-MASA by definition).
	Arch string `json:"arch,omitempty"`
	// Network defaults to alexnet.
	Network string `json:"network,omitempty"`
	// Batch defaults to 1 (ignored by the batch sweep).
	Batch int `json:"batch,omitempty"`
}

// SweepResponse is the sweep table.
type SweepResponse struct {
	Table report.SweepJSON `json:"table"`
	// Cached reports that every point was a result-cache hit.
	Cached bool `json:"cached"`
}

// BackendsResponse lists the registered DRAM backends.
type BackendsResponse struct {
	Backends []report.BackendJSON `json:"backends"`
}

// VersionResponse identifies the serving binary: GET /api/v1/version
// and drmap-serve -version, so a deployment observed in traces, logs
// or metrics can be tied to an exact build.
type VersionResponse struct {
	Service string `json:"service"`
	obs.BuildInfo
}

// Version reports the running binary's build identity.
func Version() VersionResponse {
	return VersionResponse{Service: "drmap", BuildInfo: obs.Build()}
}

// HealthResponse reports daemon liveness and serving counters.
type HealthResponse struct {
	Status      string     `json:"status"`
	Workers     int        `json:"workers"`
	Evaluations int64      `json:"evaluations"`
	Cache       CacheStats `json:"cache"`
}

// parseSchedules resolves a request's schedule names ("all" expands).
func parseSchedules(names []string) ([]tiling.Schedule, error) {
	if len(names) == 0 {
		return tiling.Schedules, nil
	}
	var out []tiling.Schedule
	seen := map[tiling.Schedule]bool{}
	for _, name := range names {
		ss, err := cli.ParseSchedules(name)
		if err != nil {
			return nil, err
		}
		for _, s := range ss {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out, nil
}

// parsePolicies resolves mapping IDs to Table I policies (0 = the
// commodity default mapping), dropping repeats in first-seen order as
// parseSchedules does: a repeated policy only multiplies the grid, and
// it never wins the strict-min scan over its first copy.
func parsePolicies(ids []int) ([]mapping.Policy, error) {
	if len(ids) == 0 {
		return mapping.TableI(), nil
	}
	byID := map[int]mapping.Policy{0: mapping.Default()}
	for _, p := range mapping.TableI() {
		byID[p.ID] = p
	}
	var out []mapping.Policy
	seen := map[int]bool{}
	for _, id := range ids {
		p, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("unknown mapping policy %d (want 1-6, or 0 for the default mapping)", id)
		}
		if !seen[id] {
			seen[id] = true
			out = append(out, p)
		}
	}
	return out, nil
}

// parseObjective resolves a request's objective name.
func parseObjective(name string) (core.Objective, error) {
	switch name {
	case "", "edp":
		return core.MinimizeEDP, nil
	case "energy":
		return core.MinimizeEnergy, nil
	case "delay":
		return core.MinimizeDelay, nil
	default:
		return 0, fmt.Errorf("unknown objective %q (want edp, energy or delay)", name)
	}
}

// parseNetwork resolves a named workload or a custom layer list.
func parseNetwork(name string, layers []LayerJSON) (cnn.Network, error) {
	if name != "" {
		if len(layers) > 0 {
			return cnn.Network{}, fmt.Errorf("give either a network name or custom layers, not both")
		}
		return cli.ParseNetwork(name)
	}
	if len(layers) == 0 {
		return cnn.Network{}, fmt.Errorf("missing network: name one of alexnet, vgg16, lenet5, resnet18 or give custom layers")
	}
	net := cnn.Network{Name: "custom", Layers: make([]cnn.Layer, 0, len(layers))}
	for _, lj := range layers {
		l, err := lj.toLayer()
		if err != nil {
			return cnn.Network{}, err
		}
		net.Layers = append(net.Layers, l)
	}
	return net, net.Validate()
}

// parseBackend resolves a registered DRAM backend ID; the error lists
// the registry's current contents.
func parseBackend(name string) (dram.Backend, error) {
	return cli.ParseBackend(name)
}

// parseSchedule resolves a single schedule name (adaptive allowed).
func parseSchedule(name string) (tiling.Schedule, error) {
	ss, err := cli.ParseSchedules(name)
	if err != nil {
		return 0, err
	}
	if len(ss) != 1 {
		return 0, fmt.Errorf("schedule %q names %d schemes; give exactly one", name, len(ss))
	}
	return ss[0], nil
}
