// Package drmap is a from-scratch Go reproduction of "DRMap: A Generic
// DRAM Data Mapping Policy for Energy-Efficient Processing of
// Convolutional Neural Networks" (Putra, Hanif, Shafique - DAC 2020).
//
// The package is a facade over the implementation packages:
//
//   - a cycle-accurate DRAM command simulator with DDR3-1600 timing and
//     the SALP-1 / SALP-2 / SALP-MASA subarray-parallel architectures,
//     plus a named backend registry seeded with DDR4/LPDDR3/LPDDR4/HBM2
//     generality presets (internal/dram, internal/memctrl - the
//     Ramulator substitute);
//   - a Micron-power-calc / VAMPIRE-style DRAM energy model
//     (internal/vampire);
//   - the Fig. 1 characterization harness (internal/profile);
//   - CNN workloads, layer partitioning and the four reuse scheduling
//     schemes (internal/cnn, internal/tiling, internal/accel);
//   - the six Table I mapping policies including DRMap itself
//     (internal/mapping);
//   - the analytical EDP model (Eq. 2-3) and the DSE of Algorithm 1
//     (internal/core);
//   - paper-style table renderers (internal/report).
//
// # Quick start
//
//	profiles, _ := drmap.CharacterizeAll()
//	ev, _ := drmap.NewEvaluator(profiles[0], drmap.TableII(), 1)
//	res, _ := drmap.RunDSE(drmap.AlexNet(), ev, drmap.Schedules(), drmap.TableIPolicies())
//	fmt.Println(drmap.RenderDSE(res))
package drmap

import (
	"context"
	"fmt"
	"io"

	"drmap/internal/accel"
	"drmap/internal/cluster"
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
	"drmap/internal/vampire"
)

// DRAM architecture and configuration types.
type (
	// Arch identifies a DRAM controller capability (DDR3-style or a
	// SALP variant); the identity of a DRAM system is a Backend.
	Arch = dram.Arch
	// Backend is a registered DRAM system: ID, display name, config.
	Backend = dram.Backend
	// DRAMConfig bundles geometry, timing and power of a DRAM system.
	DRAMConfig = dram.Config
	// Geometry is the channel/rank/chip/bank/subarray/row/column shape.
	Geometry = dram.Geometry
	// Timing holds the JEDEC timing parameters in clock cycles.
	Timing = dram.Timing
	// Power holds IDD currents and related electrical parameters.
	Power = dram.Power
	// Address identifies one burst-sized DRAM location.
	Address = dram.Address
)

// Architectures evaluated by the paper.
const (
	DDR3     = dram.DDR3
	SALP1    = dram.SALP1
	SALP2    = dram.SALP2
	SALPMASA = dram.SALPMASA
)

// Archs lists the four architectures in paper order.
func Archs() []Arch { return dram.Archs }

// RegisterBackend adds a DRAM system to the backend registry, making
// it addressable by every tool, example and service endpoint.
func RegisterBackend(b Backend) error { return dram.Register(b) }

// LookupBackend returns the backend registered under id.
func LookupBackend(id string) (Backend, bool) { return dram.Lookup(id) }

// Backends lists every registered DRAM backend sorted by ID: the four
// paper architectures, the generality presets (DDR4-2400, LPDDR3-1600,
// LPDDR4-3200, HBM2-PC) and any runtime registrations, in one
// deterministic listing.
func Backends() []Backend { return dram.Backends() }

// PaperBackends lists the four paper architectures in figure order.
func PaperBackends() []Backend { return dram.PaperBackends() }

// DDR3Config returns the paper's DDR3-1600 2Gb x8 configuration.
func DDR3Config() DRAMConfig { return dram.DDR3Config() }

// SALP1Config returns the SALP-1 configuration.
func SALP1Config() DRAMConfig { return dram.SALP1Config() }

// SALP2Config returns the SALP-2 configuration.
func SALP2Config() DRAMConfig { return dram.SALP2Config() }

// SALPMASAConfig returns the SALP-MASA configuration.
func SALPMASAConfig() DRAMConfig { return dram.SALPMASAConfig() }

// ConfigFor returns the preset configuration of an architecture.
func ConfigFor(a Arch) DRAMConfig { return dram.ConfigFor(a) }

// DDR4Config returns the DDR4-2400 generality preset.
func DDR4Config() DRAMConfig { return dram.DDR4Config() }

// LPDDR3Config returns the LPDDR3-1600 generality preset.
func LPDDR3Config() DRAMConfig { return dram.LPDDR3Config() }

// LPDDR4Config returns the LPDDR4-3200 generality preset.
func LPDDR4Config() DRAMConfig { return dram.LPDDR4Config() }

// HBM2Config returns the HBM2 pseudo-channel generality preset.
func HBM2Config() DRAMConfig { return dram.HBM2Config() }

// Workload types.
type (
	// Layer is one CNN layer's tensor geometry.
	Layer = cnn.Layer
	// Network is an ordered list of layers.
	Network = cnn.Network
	// AccelConfig is the TPU-like accelerator of Table II.
	AccelConfig = accel.Config
)

// AlexNet returns the paper's evaluation workload.
func AlexNet() Network { return cnn.AlexNet() }

// VGG16 returns the VGG-16 extension workload.
func VGG16() Network { return cnn.VGG16() }

// LeNet5 returns a small smoke-test workload.
func LeNet5() Network { return cnn.LeNet5() }

// ResNet18 returns the ResNet-18 extension workload.
func ResNet18() Network { return cnn.ResNet18() }

// TableII returns the paper's accelerator configuration.
func TableII() AccelConfig { return accel.TableII() }

// Partitioning and scheduling types.
type (
	// Tiling fixes the outer-loop step sizes (layer partitioning).
	Tiling = tiling.Tiling
	// Schedule is a DRAM access scheduling scheme (reuse priority).
	Schedule = tiling.Schedule
	// Traffic aggregates DRAM element volumes of a layer.
	Traffic = tiling.Traffic
)

// The four scheduling schemes of the paper.
const (
	IfmsReuse     = tiling.IfmsReuse
	WghsReuse     = tiling.WghsReuse
	OfmsReuse     = tiling.OfmsReuse
	AdaptiveReuse = tiling.AdaptiveReuse
)

// Schedules lists the four scheduling schemes in paper order.
func Schedules() []Schedule { return tiling.Schedules }

// EnumerateTilings returns every divisor-aligned partitioning of the
// layer that fits the accelerator's buffers.
func EnumerateTilings(l Layer, cfg AccelConfig) []Tiling { return tiling.Enumerate(l, cfg) }

// EstimateTraffic computes the DRAM traffic of a layer under a tiling
// and schedule.
func EstimateTraffic(l Layer, t Tiling, s Schedule, batch int) Traffic {
	return tiling.Estimate(l, t, s, batch)
}

// Mapping policy types.
type (
	// MappingPolicy is a DRAM data-mapping loop order.
	MappingPolicy = mapping.Policy
	// AccessCounts splits a tile stream into the access categories: an
	// array indexed by category, in the order different column (row
	// buffer hits), banks, subarrays, rows (incl. the first access).
	AccessCounts = mapping.Counts
)

// TableIPolicies returns the six mapping policies of the paper's
// Table I.
func TableIPolicies() []MappingPolicy { return mapping.TableI() }

// DRMapPolicy returns the paper's proposed policy (Mapping-3).
func DRMapPolicy() MappingPolicy { return mapping.DRMap() }

// DefaultPolicy returns the commodity subarray-unaware mapping.
func DefaultPolicy() MappingPolicy { return mapping.Default() }

// Simulation and characterization types.
type (
	// Controller is the cycle-accurate DRAM memory controller.
	Controller = memctrl.Controller
	// ControllerOptions tune the controller (page policy, refresh...).
	ControllerOptions = memctrl.Options
	// SimResult is a controller run's command log and cycle accounting.
	SimResult = memctrl.Result
	// Request is one burst-sized DRAM transaction.
	Request = trace.Request
	// EnergyModel is the VAMPIRE-style DRAM energy model.
	EnergyModel = vampire.Model
	// EnergyBreakdown itemizes a run's energy in joules.
	EnergyBreakdown = vampire.Breakdown
	// Profile is a Fig. 1 characterization of one architecture.
	Profile = profile.Profile
	// AccessKind classifies a DRAM access by its row-buffer condition.
	AccessKind = trace.AccessKind
	// AccessCost is a per-access (cycles, energy) pair.
	AccessCost = profile.Cost
)

// The five access conditions of Fig. 1.
const (
	AccessRowHit         = trace.AccessRowHit
	AccessRowMiss        = trace.AccessRowMiss
	AccessRowConflict    = trace.AccessRowConflict
	AccessSubarraySwitch = trace.AccessSubarraySwitch
	AccessBankSwitch     = trace.AccessBankSwitch
)

// NewController builds a cycle-accurate controller for a configuration.
func NewController(cfg DRAMConfig, opt ControllerOptions) (*Controller, error) {
	return memctrl.New(cfg, opt)
}

// NewEnergyModel builds the energy model for a configuration.
func NewEnergyModel(cfg DRAMConfig) (*EnergyModel, error) { return vampire.New(cfg) }

// Characterize measures one configuration's per-access-condition costs
// (the paper's Fig. 1).
func Characterize(cfg DRAMConfig) (*Profile, error) { return profile.Characterize(cfg) }

// CharacterizeBackend measures one registered DRAM system; the profile
// carries the backend identity for labeling.
func CharacterizeBackend(b Backend) (*Profile, error) { return profile.CharacterizeBackend(b) }

// CharacterizeAll measures every registered backend in ID order (the
// deterministic Backends listing).
func CharacterizeAll() ([]*Profile, error) { return profile.CharacterizeAll() }

// CharacterizePaper measures the four paper architectures in figure
// order - the set the paper's figures are defined over.
func CharacterizePaper() ([]*Profile, error) { return profile.CharacterizePaper() }

// EDP model and DSE types.
type (
	// Evaluator prices layer/tiling/schedule/mapping combinations.
	Evaluator = core.Evaluator
	// LayerEDP is the modeled DRAM cost of a layer.
	LayerEDP = core.LayerEDP
	// DSEResult is Algorithm 1's outcome for a network.
	DSEResult = core.DSEResult
	// Fig9Point is one bar of the paper's Fig. 9.
	Fig9Point = core.Fig9Point
	// LayerSpec bundles the inputs of a trace-driven layer simulation.
	LayerSpec = core.LayerSpec
)

// The count/price split: a design point's access-count structure is
// independent of the DRAM device's characterization - only the
// per-access costs change (DRMap Sec. V-B). Evaluator.CountLayer
// computes a layer's schedule columns in one pass, each as a
// FlatColumn (Evaluator.CountScheduleColumn counts one column);
// Evaluator.PriceFlatInto reprices one under any evaluator whose
// CountKey matches (the paper's four architectures share one), with
// results bit-for-bit identical to the direct scan. The service's
// count-plan cache, Fig9Series and the registry sweep are built on it.
type (
	// CellCounts is the read/write access-count structure of one
	// (tiling, policy) design point (FlatColumn.At).
	CellCounts = core.CellCounts
	// CountKey is the projection of an evaluator its counts depend on;
	// equal keys mean interchangeable count plans.
	CountKey = core.CountKey
	// FlatColumn is the backend-independent count plan of one
	// (layer, schedule) grid column, stored as packed per-category
	// planes of one row per distinct tile stream (a square layer's Th/Tw
	// mirror tilings share a row); Evaluator.PriceFlatInto reprices it
	// as a branch-light linear scan. The service's plan cache stores
	// columns in this form.
	FlatColumn = core.FlatColumn
)

// SimulateLayer prices a layer by running its tile streams through the
// cycle-accurate controller and energy model instead of the analytical
// category counts - the validation path of the paper's tool flow. It is
// a one-layer SimulateNetwork on the serial engine.
func SimulateLayer(cfg DRAMConfig, pol MappingPolicy, spec LayerSpec, bytesPerElement int) (LayerEDP, error) {
	return core.SimulateLayer(cfg, pol, spec, bytesPerElement)
}

// Multi-layer cycle-accurate simulation on the discrete-event engines.
type (
	// SimLayerResult is one layer's simulated outcome: exact cycles and
	// energy, tile-group and request counts, and the per-kind DRAM
	// command census.
	SimLayerResult = core.SimLayerResult
	// SimOptions tune SimulateNetwork: controller knobs, the
	// serial/parallel engine choice, and a per-layer completion hook.
	SimOptions = core.SimOptions
)

// SimulateNetwork simulates every layer of a workload cycle-accurately
// on the internal/sim discrete-event kernel. With opt.Parallel the
// layers' tile-stream controllers run concurrently across cores -
// bit-for-bit identical to the serial engine, only faster.
func SimulateNetwork(ctx context.Context, cfg DRAMConfig, pol MappingPolicy, specs []LayerSpec, opt SimOptions) ([]SimLayerResult, error) {
	return core.SimulateNetwork(ctx, cfg, pol, specs, opt)
}

// TotalLayerName labels Fig. 9's aggregate pseudo-layer.
const TotalLayerName = core.TotalLayerName

// NewEvaluator builds an EDP evaluator from a characterization profile.
func NewEvaluator(p *Profile, cfg AccelConfig, batch int) (*Evaluator, error) {
	return core.NewEvaluator(p, cfg, batch)
}

// RunDSE executes Algorithm 1 over a network.
func RunDSE(net Network, ev *Evaluator, schedules []Schedule, policies []MappingPolicy) (*DSEResult, error) {
	return core.RunDSE(net, ev, schedules, policies)
}

// Objective selects what the DSE minimizes (EDP, energy or delay).
type Objective = core.Objective

// The supported DSE objectives.
const (
	MinimizeEDP    = core.MinimizeEDP
	MinimizeEnergy = core.MinimizeEnergy
	MinimizeDelay  = core.MinimizeDelay
)

// RunDSEObjective is RunDSE under an explicit optimization objective.
func RunDSEObjective(net Network, ev *Evaluator, schedules []Schedule, policies []MappingPolicy, obj Objective) (*DSEResult, error) {
	return core.RunDSEObjective(net, ev, schedules, policies, obj)
}

// Fig9Series regenerates one subplot of the paper's Fig. 9.
func Fig9Series(net Network, s Schedule, evs []*Evaluator, policies []MappingPolicy) ([]Fig9Point, error) {
	return core.Fig9Series(net, s, evs, policies)
}

// DRMapImprovement returns DRMap's EDP improvement over the worst
// mapping for one architecture (the paper's headline result).
func DRMapImprovement(points []Fig9Point, arch Arch) (float64, error) {
	return core.DRMapImprovement(points, arch)
}

// SALPImprovement returns a SALP architecture's EDP improvement over
// DDR3 for one mapping policy (Key Observation 4).
func SALPImprovement(points []Fig9Point, policyID int, arch Arch) (float64, error) {
	return core.SALPImprovement(points, policyID, arch)
}

// EnergyOfRun computes the energy breakdown of a controller run under
// an energy model, wiring the controller's cycle accounting into the
// model's activity summary. It works from the run's per-kind command
// census, so it needs no retained command log.
func EnergyOfRun(model *EnergyModel, sim *SimResult) EnergyBreakdown {
	act := vampire.ActivityFromCounts(sim.KindCounts, sim.DeviceActiveCycles, sim.TotalCycles)
	act.ExtraOpenSubarrayCycles = sim.ExtraOpenSubarrayCycles
	return model.Energy(act)
}

// WriteRequests encodes a request stream in the text trace format.
func WriteRequests(w io.Writer, reqs []Request) error { return trace.WriteRequests(w, reqs) }

// ReadRequests decodes a request stream from the text trace format.
func ReadRequests(r io.Reader) ([]Request, error) { return trace.ReadRequests(r) }

// WriteCommands encodes a controller command log as text.
func WriteCommands(w io.Writer, cmds []Command) error { return trace.WriteCommands(w, cmds) }

// Command is one DRAM command with its issue cycle.
type Command = trace.Command

// Report renderers.

// RenderFig1 renders the characterization table.
func RenderFig1(profiles []*Profile) string { return report.Fig1Table(profiles) }

// RenderTableI renders the six mapping policies.
func RenderTableI() string { return report.TableI() }

// RenderFig9 renders one Fig. 9 subplot as a table.
func RenderFig9(points []Fig9Point, schedule string) string {
	return report.Fig9Table(points, schedule)
}

// RenderImprovements renders the headline improvement percentages.
func RenderImprovements(points []Fig9Point) string { return report.ImprovementsTable(points) }

// RenderSALPGains renders Key Observation 4's table.
func RenderSALPGains(points []Fig9Point) string { return report.SALPGainsTable(points) }

// RenderDSE renders Algorithm 1's per-layer outcome.
func RenderDSE(res *DSEResult) string { return report.DSETable(res) }

// RenderFig9Chart renders one Fig. 9 subplot as a log-scale bar chart,
// the way the paper draws it.
func RenderFig9Chart(points []Fig9Point, schedule string) string {
	return report.Fig9Chart(points, schedule)
}

// Multi-channel placements (DRMap flowchart step 5 and its parallel
// generalization).

// RankSpillAddresses lays a tile out rank by rank (the literal step 5).
func RankSpillAddresses(p MappingPolicy, bursts int64, g Geometry) []Address {
	return mapping.RankSpill(p, bursts, g)
}

// ChannelInterleavedAddresses spreads a tile round-robin across all
// channel/rank units, exploiting channel-level parallelism.
func ChannelInterleavedAddresses(p MappingPolicy, bursts int64, g Geometry) []Address {
	return mapping.ChannelInterleaved(p, bursts, g)
}

// Evaluators builds one evaluator per paper architecture, sharing an
// accelerator configuration - the common setup for Fig. 9 runs. Use
// BackendEvaluator to price any other registered backend.
func Evaluators(cfg AccelConfig, batch int) ([]*Evaluator, error) {
	profiles, err := CharacterizePaper()
	if err != nil {
		return nil, err
	}
	evs := make([]*Evaluator, 0, len(profiles))
	for _, p := range profiles {
		ev, err := NewEvaluator(p, cfg, batch)
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// Concurrent serving (package service, the engine behind drmap-serve).
type (
	// Service is the concurrent, cacheable DSE/characterization engine.
	Service = service.Service
	// ServiceOptions tune a Service (workers, cache bound, accelerator).
	ServiceOptions = service.Options
	// ServiceCacheStats snapshots the result cache counters.
	ServiceCacheStats = service.CacheStats
	// DSERequest / DSEResponse are the JSON shapes of /api/v1/dse.
	DSERequest  = service.DSERequest
	DSEResponse = service.DSEResponse
	// CharacterizeRequest / CharacterizeResponse are the JSON shapes of
	// /api/v1/characterize.
	CharacterizeRequest  = service.CharacterizeRequest
	CharacterizeResponse = service.CharacterizeResponse
)

// NewService builds the concurrent DSE/characterization service.
func NewService(opt ServiceOptions) *Service { return service.New(opt) }

// Job-oriented serving (the /api/v2/jobs surface): asynchronous
// submit, status + progress, NDJSON/SSE event streaming, cancel. The
// v1 endpoints are synchronous wrappers over the same JobManager.
// Remote consumers should prefer the typed SDK in package
// drmap/client.
type (
	// JobManager owns the v2 job lifecycle around a Service.
	JobManager = service.JobManager
	// JobManagerOptions tune a JobManager (store bound, TTL, clock).
	JobManagerOptions = service.JobManagerOptions
	// JobRequest is the POST /api/v2/jobs body (kind + payload).
	JobRequest = service.JobRequest
	// JobView is a job as the API reports it.
	JobView = service.JobView
	// JobEvent is one entry of a job's streamed event log.
	JobEvent = service.JobEvent
	// JobKind / JobState name the workload kinds and lifecycle states.
	JobKind  = service.JobKind
	JobState = service.JobState
)

// NewJobManager builds the v2 job manager around a Service; install it
// via ServerOptions.Jobs (or let NewHandler build a default one).
func NewJobManager(svc *Service, opt JobManagerOptions) *JobManager {
	return service.NewJobManager(svc, opt)
}

// Distributed serving (package cluster): a coordinator shards the DSE
// column grid over HTTP workers and merges results bit-for-bit equal to
// serial RunDSE; see cmd/drmap-serve -role coordinator and
// cmd/drmap-worker.
type (
	// DSEJob is a fully resolved DSE run - the unit a cluster
	// distributes and the input of a custom ServiceOptions.Runner.
	DSEJob = service.DSEJob
	// BatchRequest / BatchResponse are the JSON shapes of /api/v1/batch.
	BatchRequest  = service.BatchRequest
	BatchResponse = service.BatchResponse
	// ClusterCoordinator shards DSE jobs across registered workers; it
	// implements the service's DSERunner.
	ClusterCoordinator = cluster.Coordinator
	// ClusterCoordinatorOptions tune a coordinator (TTL, shard sizing).
	ClusterCoordinatorOptions = cluster.CoordinatorOptions
	// ClusterWorker executes shards on a local Service and heartbeats
	// its registration to a coordinator.
	ClusterWorker = cluster.Worker
	// ClusterWorkerOptions tune a worker (identity, URLs, heartbeat).
	ClusterWorkerOptions = cluster.WorkerOptions
	// ClusterWorkerInfo identifies a registered worker in a
	// coordinator's membership.
	ClusterWorkerInfo = cluster.WorkerInfo
)

// ErrNoWorkers marks a distributed run attempted with no live workers;
// a Service configured with a cluster Runner answers such jobs from its
// local pool.
var ErrNoWorkers = service.ErrNoWorkers

// NewClusterCoordinator builds a DSE shard coordinator with an empty
// worker membership. Install it as ServiceOptions.Runner (and mount its
// endpoints via ServerOptions.Mount) to distribute a service's DSE and
// batch traffic.
func NewClusterCoordinator(opt ClusterCoordinatorOptions) *ClusterCoordinator {
	return cluster.NewCoordinator(opt)
}

// NewClusterWorker wraps a Service as a cluster worker: mount its shard
// endpoint with Mount and keep it registered with Run.
func NewClusterWorker(svc *Service, opt ClusterWorkerOptions) *ClusterWorker {
	return cluster.NewWorker(svc, opt)
}

// ParallelDSE is RunDSE with the layer x schedule x policy grid fanned
// over a worker pool (workers <= 0 means one per CPU). The result is
// bit-for-bit identical to RunDSE's.
func ParallelDSE(ctx context.Context, net Network, ev *Evaluator, schedules []Schedule, policies []MappingPolicy, workers int) (*DSEResult, error) {
	return service.ParallelDSE(ctx, net, ev, schedules, policies, core.MinimizeEDP, workers)
}

// ParallelDSEObjective is ParallelDSE under an explicit objective.
func ParallelDSEObjective(ctx context.Context, net Network, ev *Evaluator, schedules []Schedule, policies []MappingPolicy, obj Objective, workers int) (*DSEResult, error) {
	return service.ParallelDSE(ctx, net, ev, schedules, policies, obj, workers)
}

// BackendEvaluator characterizes one registered backend and builds an
// evaluator for it - the one-liner behind "run the DSE on DDR4".
func BackendEvaluator(id string, cfg AccelConfig, batch int) (*Evaluator, error) {
	b, ok := LookupBackend(id)
	if !ok {
		return nil, fmt.Errorf("drmap: unknown DRAM backend %q", id)
	}
	p, err := CharacterizeBackend(b)
	if err != nil {
		return nil, err
	}
	return NewEvaluator(p, cfg, batch)
}

// ParallelCharacterizeAll is CharacterizeAll with the registered
// backends fanned over a worker pool; every worker builds its own
// controllers.
func ParallelCharacterizeAll(ctx context.Context, workers int) ([]*Profile, error) {
	return service.CharacterizeBackends(ctx, dram.Backends(), workers)
}

// JSON mirrors of the report renderers (machine-readable output).
type (
	// ProfileJSON is the Fig. 1 characterization of one architecture.
	ProfileJSON = report.ProfileJSON
	// PolicyJSON is one Table I mapping policy.
	PolicyJSON = report.PolicyJSON
	// DSEResultJSON is Algorithm 1's outcome for a network.
	DSEResultJSON = report.DSEJSON
	// Fig9PointJSON is one bar of Fig. 9.
	Fig9PointJSON = report.Fig9PointJSON
	// BackendJSON is one registered DRAM backend with its summaries.
	BackendJSON = report.BackendJSON
)

// EncodeJSON marshals any of the JSON mirror types with indentation.
func EncodeJSON(v any) (string, error) { return report.EncodeJSON(v) }

// Fig1JSON encodes the characterization of every profile.
func Fig1JSON(profiles []*Profile) []report.ProfileJSON { return report.Fig1JSON(profiles) }

// TableIJSON encodes the six Table I mapping policies.
func TableIJSON() []report.PolicyJSON { return report.TableIJSON() }

// DSEJSON encodes Algorithm 1's outcome under the evaluator's timing.
func DSEJSON(res *DSEResult, tm Timing) report.DSEJSON { return report.DSEResultJSON(res, tm) }

// Fig9JSON encodes one Fig. 9 subplot's points.
func Fig9JSON(points []Fig9Point) []report.Fig9PointJSON { return report.Fig9JSON(points) }

// BackendsJSON encodes a backend list in the order given (Backends()
// supplies the ID-sorted registry).
func BackendsJSON(backends []Backend) []report.BackendJSON { return report.BackendsJSON(backends) }

// RenderBackends renders the backend registry as a table.
func RenderBackends(backends []Backend) string { return report.BackendsTable(backends) }
