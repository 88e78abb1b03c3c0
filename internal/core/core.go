// Package core implements the DRMap paper's primary contribution: the
// analytical energy-delay-product (EDP) model of Eq. 2-3 and the
// design-space-exploration algorithm of Algorithm 1.
//
// The model prices every DRAM tile stream of a CNN layer by splitting
// its accesses into the four categories of the paper (different column
// = row-buffer hit, different banks, different subarrays, different
// rows) using a mapping policy's loop structure (package mapping), and
// multiplying the per-category counts with the cycles- and
// energy-per-access characterized on the cycle-accurate simulator
// (package profile). The DSE then searches layer partitionings
// (package tiling), scheduling schemes and mapping policies for the
// minimum-EDP configuration of every layer, for each DRAM architecture.
package core

import (
	"fmt"
	"math"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/profile"
	"drmap/internal/tiling"
	"drmap/internal/trace"
)

// AccessCosts holds the per-access stream cost of each category of the
// analytical model for one DRAM architecture.
type AccessCosts struct {
	Hit      profile.Cost // N/E_dif_column
	Bank     profile.Cost // N/E_dif_banks
	Subarray profile.Cost // N/E_dif_subarrays
	Row      profile.Cost // N/E_dif_rows
}

// CostsFromProfile extracts the four model inputs from a Fig. 1
// characterization (read streams, the paper's convention).
func CostsFromProfile(p *profile.Profile) AccessCosts {
	return AccessCosts{
		Hit:      p.Stream[trace.AccessRowHit],
		Bank:     p.Stream[trace.AccessBankSwitch],
		Subarray: p.Stream[trace.AccessSubarraySwitch],
		Row:      p.Stream[trace.AccessRowConflict],
	}
}

// WriteCostsFromProfile extracts the write-stream counterparts, for the
// direction-aware pricing refinement.
func WriteCostsFromProfile(p *profile.Profile) AccessCosts {
	return AccessCosts{
		Hit:      p.StreamWrite[trace.AccessRowHit],
		Bank:     p.StreamWrite[trace.AccessBankSwitch],
		Subarray: p.StreamWrite[trace.AccessSubarraySwitch],
		Row:      p.StreamWrite[trace.AccessRowConflict],
	}
}

// LayerEDP is the modeled DRAM cost of one layer (or one tile stream).
type LayerEDP struct {
	Cycles float64 // DRAM access cycles (Eq. 2)
	Energy float64 // DRAM access energy in joules (Eq. 3)
}

// Add accumulates another cost.
func (e *LayerEDP) Add(other LayerEDP) {
	e.Cycles += other.Cycles
	e.Energy += other.Energy
}

// Seconds converts the cycle count to seconds under a timing.
func (e LayerEDP) Seconds(t dram.Timing) float64 {
	return t.Seconds(int64(math.Round(e.Cycles)))
}

// EDP returns energy x delay in joule-seconds.
func (e LayerEDP) EDP(t dram.Timing) float64 {
	return e.Energy * e.Seconds(t)
}

// Evaluator prices layer/tiling/schedule/mapping combinations for one
// DRAM architecture. Build one per architecture with NewEvaluator.
type Evaluator struct {
	Profile    *profile.Profile
	Costs      AccessCosts
	WriteCosts AccessCosts
	Accel      accel.Config
	Batch      int
	// UsePhysicalCounts switches the access classification from the
	// paper's loop-level convention to the stream-accurate one
	// (mapping.PhysicalCounts); used by the model-fidelity ablation.
	UsePhysicalCounts bool
	// UseWriteCosts prices write streams (ofm stores, psum spills) with
	// the write-characterized costs instead of the paper's single read
	// cost set; used by the direction-aware pricing refinement.
	UseWriteCosts bool
}

// NewEvaluator builds an evaluator from a characterization profile and
// an accelerator configuration.
func NewEvaluator(p *profile.Profile, acfg accel.Config, batch int) (*Evaluator, error) {
	if err := acfg.Validate(); err != nil {
		return nil, err
	}
	if batch < 1 {
		return nil, fmt.Errorf("core: batch must be >= 1, got %d", batch)
	}
	return &Evaluator{
		Profile:    p,
		Costs:      CostsFromProfile(p),
		WriteCosts: WriteCostsFromProfile(p),
		Accel:      acfg,
		Batch:      batch,
	}, nil
}

// Arch returns the evaluator's DRAM controller capability.
func (ev *Evaluator) Arch() dram.Arch { return ev.Profile.Arch }

// Backend returns the registered DRAM system the evaluator prices; the
// zero value marks an ad-hoc configuration.
func (ev *Evaluator) Backend() dram.Backend { return ev.Profile.Backend }

// Label names the evaluator's DRAM system for reports.
func (ev *Evaluator) Label() string { return ev.Profile.Label() }

// Timing returns the evaluator's DRAM timing.
func (ev *Evaluator) Timing() dram.Timing { return ev.Profile.Config.Timing }

// burstsOf converts a tile's element count to burst-sized DRAM accesses.
func (ev *Evaluator) burstsOf(elems int64) int64 {
	bytes := elems * int64(ev.Accel.BytesPerElement)
	per := int64(ev.Profile.Config.Geometry.AccessBytes())
	return (bytes + per - 1) / per
}

// streamCounts splits one stream of `bursts` accesses into the access
// categories under the evaluator's counting convention: the paper's
// loop-level Counts, or PhysicalCounts when UsePhysicalCounts is set.
func (ev *Evaluator) streamCounts(pol mapping.Policy, bursts int64) mapping.Counts {
	if ev.UsePhysicalCounts {
		return pol.PhysicalCounts(bursts, ev.Profile.Config.Geometry)
	}
	return pol.Counts(bursts, ev.Profile.Config.Geometry)
}

// GroupCounts accumulates the access-category counts of a set of tile
// streams under a mapping policy.
func (ev *Evaluator) GroupCounts(pol mapping.Policy, groups []tiling.TileGroup) mapping.Counts {
	var total mapping.Counts
	for _, grp := range groups {
		total.Add(ev.streamCounts(pol, ev.burstsOf(grp.Elems)), grp.Loads)
	}
	return total
}

// priceWith applies Eq. 2-3 under an explicit cost set.
func priceWith(costs AccessCosts, c mapping.Counts) LayerEDP {
	return LayerEDP{
		Cycles: float64(c.DifColumn)*costs.Hit.Cycles +
			float64(c.DifBanks)*costs.Bank.Cycles +
			float64(c.DifSubarrays)*costs.Subarray.Cycles +
			float64(c.DifRows)*costs.Row.Cycles,
		Energy: float64(c.DifColumn)*costs.Hit.Energy +
			float64(c.DifBanks)*costs.Bank.Energy +
			float64(c.DifSubarrays)*costs.Subarray.Energy +
			float64(c.DifRows)*costs.Row.Energy,
	}
}

// Price applies Eq. 2-3: counts x per-category cycles and energy,
// using the read cost set as the paper does.
func (ev *Evaluator) Price(c mapping.Counts) LayerEDP {
	return priceWith(ev.Costs, c)
}

// PriceRW prices read and write counts with their own cost sets.
func (ev *Evaluator) PriceRW(read, write mapping.Counts) LayerEDP {
	total := priceWith(ev.Costs, read)
	total.Add(priceWith(ev.WriteCosts, write))
	return total
}

// GroupCountsRW is GroupCounts with the split by transfer direction.
func (ev *Evaluator) GroupCountsRW(pol mapping.Policy, groups []tiling.TileGroup) (read, write mapping.Counts) {
	for _, grp := range groups {
		c := ev.streamCounts(pol, ev.burstsOf(grp.Elems))
		if grp.Write {
			write.Add(c, grp.Loads)
		} else {
			read.Add(c, grp.Loads)
		}
	}
	return read, write
}

// priceGroups prices a set of tile streams under the evaluator's
// configured cost model (honoring UseWriteCosts). Both the single-combo
// EvaluateLayer and the DSE grid scan route through it, so the two can
// never desynchronize.
func (ev *Evaluator) priceGroups(pol mapping.Policy, groups []tiling.TileGroup) LayerEDP {
	if ev.UseWriteCosts {
		read, write := ev.GroupCountsRW(pol, groups)
		return ev.PriceRW(read, write)
	}
	return ev.Price(ev.GroupCounts(pol, groups))
}

// EvaluateLayer prices one (layer, tiling, schedule, mapping) combo.
func (ev *Evaluator) EvaluateLayer(l cnn.Layer, tl tiling.Tiling, s tiling.Schedule, pol mapping.Policy) LayerEDP {
	return ev.priceGroups(pol, tiling.TileGroups(l, tl, s, ev.Batch))
}

// MinOverTilings returns the minimum-EDP tiling for a (layer, schedule,
// mapping) combination, searching the given candidate tilings. It is
// the count -> price pipeline over a single-policy column; callers
// scanning many policies or DRAM systems over one tiling set should
// count once with CountScheduleColumn and reprice with MinOverColumn.
func (ev *Evaluator) MinOverTilings(l cnn.Layer, tilings []tiling.Tiling, s tiling.Schedule, pol mapping.Policy) (tiling.Tiling, LayerEDP) {
	lg := LayerGrid{Layer: l, Tilings: tilings}
	ti, best := ev.MinOverColumn(ev.CountScheduleColumn(lg, 0, s, []mapping.Policy{pol}), 0)
	var bestTiling tiling.Tiling
	if ti >= 0 {
		bestTiling = tilings[ti]
	}
	return bestTiling, best
}

// Combo identifies one DSE design point.
type Combo struct {
	Tiling   tiling.Tiling
	Schedule tiling.Schedule
	Policy   mapping.Policy
}

// LayerResult is the DSE outcome for one layer.
type LayerResult struct {
	Layer  cnn.Layer
	Best   Combo
	Cost   LayerEDP
	MinEDP float64
}

// DSEResult is the DSE outcome for a whole network on one DRAM system.
type DSEResult struct {
	// Backend identifies the DRAM system the search ran on; zero for
	// ad-hoc configurations.
	Backend dram.Backend
	// Arch is the system's controller capability (kept alongside the
	// backend because the paper's comparison tables are capability-keyed).
	Arch   dram.Arch
	Layers []LayerResult
}

// Label names the DSE's DRAM system for reports: the backend name when
// the search ran on a registered backend, else the capability arch.
func (r *DSEResult) Label() string { return dram.LabelFor(r.Backend, r.Arch) }

// TotalEDP sums the per-layer minimum EDPs; the paper's "minimum total
// EDP for a whole network" aggregates per-layer EDPs the same way
// (Fig. 9's Total group).
func (r *DSEResult) TotalEDP() float64 {
	var total float64
	for _, l := range r.Layers {
		total += l.MinEDP
	}
	return total
}

// TotalEnergy sums per-layer energies of the chosen design points.
func (r *DSEResult) TotalEnergy() float64 {
	var total float64
	for _, l := range r.Layers {
		total += l.Cost.Energy
	}
	return total
}

// RunDSE executes Algorithm 1: for every layer of the network it
// searches all feasible partitionings, all given scheduling schemes and
// all given mapping policies, and keeps the minimum-EDP combination.
func RunDSE(net cnn.Network, ev *Evaluator, schedules []tiling.Schedule, policies []mapping.Policy) (*DSEResult, error) {
	return RunDSEObjective(net, ev, schedules, policies, MinimizeEDP)
}

// RunDSEObjective is RunDSE under an explicit optimization objective.
// LayerResult.MinEDP always reports the EDP of the chosen design point
// regardless of the objective, so results remain comparable.
//
// The scan is expressed over the evaluation grid of grid.go: each
// (layer, schedule, policy) cell searches its tilings independently and
// ReduceCells restores the serial pick order, so the parallel executor
// of package service reproduces this function's output bit for bit.
// Cells honor the evaluator's UseWriteCosts/UsePhysicalCounts flags,
// so those refinements now apply to the DSE too (earlier revisions
// priced the scan with the plain read cost set regardless).
func RunDSEObjective(net cnn.Network, ev *Evaluator, schedules []tiling.Schedule, policies []mapping.Policy, obj Objective) (*DSEResult, error) {
	grids, err := DSEGrid(net, ev, schedules, policies)
	if err != nil {
		return nil, err
	}
	result := &DSEResult{Backend: ev.Backend(), Arch: ev.Arch()}
	for _, lg := range grids {
		result.Layers = append(result.Layers, ev.EvaluateLayerGrid(lg, schedules, policies, obj))
	}
	return result, nil
}

// Fig9Point is one bar of the paper's Fig. 9: the minimum EDP (over
// partitionings) of a layer for one mapping policy on one architecture
// under one scheduling scheme.
type Fig9Point struct {
	Layer   string
	Policy  mapping.Policy
	Backend dram.Backend // registered DRAM system (zero for ad-hoc configs)
	Arch    dram.Arch
	Cost    LayerEDP
	Seconds float64
	EDP     float64
}

// Label names the point's DRAM system the way reports print it.
func (p Fig9Point) Label() string { return dram.LabelFor(p.Backend, p.Arch) }

// TotalLayerName labels the aggregate pseudo-layer of Fig. 9.
const TotalLayerName = "Total"

// Fig9Series regenerates one subplot of Fig. 9: for every layer of the
// network (plus the Total aggregate), every mapping policy and every
// provided evaluator (one per architecture), the minimum EDP over all
// feasible partitionings under the given scheduling scheme.
//
// The series runs the count -> price split per layer: each distinct
// CountKey among the evaluators counts the (tiling x policy) plan once,
// and every evaluator reprices its group's plan - so the four paper
// architectures (which share one die geometry) expand and count every
// layer's tile streams once instead of four times, with points
// bit-for-bit identical to the per-evaluator scan.
func Fig9Series(net cnn.Network, s tiling.Schedule, evs []*Evaluator, policies []mapping.Policy) ([]Fig9Point, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("core: Fig9Series needs at least one evaluator")
	}
	var points []Fig9Point
	type key struct {
		pol     string
		backend string
		arch    dram.Arch
	}
	totals := make(map[key]*Fig9Point)
	for _, layer := range net.Layers {
		tilings := tiling.Enumerate(layer, evs[0].Accel)
		if len(tilings) == 0 {
			return nil, fmt.Errorf("core: layer %s: no partitioning fits the buffers", layer.Name)
		}
		lg := LayerGrid{Layer: layer, Tilings: tilings}
		plans := make(map[CountKey]*CountColumn, len(evs))
		for _, ev := range evs {
			if k := ev.CountKey(); plans[k] == nil {
				plans[k] = ev.CountScheduleColumn(lg, 0, s, policies)
			}
		}
		for pi, pol := range policies {
			for _, ev := range evs {
				_, cost := ev.MinOverColumn(plans[ev.CountKey()], pi)
				tm := ev.Timing()
				p := Fig9Point{
					Layer:   layer.Name,
					Policy:  pol,
					Backend: ev.Backend(),
					Arch:    ev.Arch(),
					Cost:    cost,
					Seconds: cost.Seconds(tm),
					EDP:     cost.EDP(tm),
				}
				points = append(points, p)
				k := key{pol: pol.Name, backend: ev.Backend().ID, arch: ev.Arch()}
				if agg, ok := totals[k]; ok {
					agg.Cost.Add(cost)
					agg.Seconds += p.Seconds
					agg.EDP += p.EDP
				} else {
					totals[k] = &Fig9Point{Layer: TotalLayerName, Policy: pol, Backend: ev.Backend(),
						Arch: ev.Arch(), Cost: cost, Seconds: p.Seconds, EDP: p.EDP}
				}
			}
		}
	}
	for _, pol := range policies {
		for _, ev := range evs {
			if agg, ok := totals[key{pol: pol.Name, backend: ev.Backend().ID, arch: ev.Arch()}]; ok {
				points = append(points, *agg)
			}
		}
	}
	return points, nil
}

// SelectLabeledPoint finds the Fig. 9 point for a (layer, policy ID,
// system label) triple, or nil if absent. Labels distinguish backends
// that share a controller capability (e.g. DDR3 vs DDR4-2400).
func SelectLabeledPoint(points []Fig9Point, layer string, policyID int, label string) *Fig9Point {
	for i := range points {
		p := &points[i]
		if p.Layer == layer && p.Policy.ID == policyID && p.Label() == label {
			return p
		}
	}
	return nil
}

// SelectPoint finds the Fig. 9 point for a (layer, policy ID, arch)
// triple, or nil if absent. The paper's comparison tables are keyed by
// the four-arch capability; series mixing several backends of one
// capability should use SelectLabeledPoint.
func SelectPoint(points []Fig9Point, layer string, policyID int, arch dram.Arch) *Fig9Point {
	for i := range points {
		p := &points[i]
		if p.Layer == layer && p.Policy.ID == policyID && p.Arch == arch {
			return p
		}
	}
	return nil
}

// DRMapImprovement returns the paper's headline metric for one
// architecture: the relative EDP improvement of DRMap (Mapping-3) over
// the worst Table I mapping on the Total aggregate, in [0,1).
func DRMapImprovement(points []Fig9Point, arch dram.Arch) (float64, error) {
	drmap := SelectPoint(points, TotalLayerName, 3, arch)
	if drmap == nil {
		return 0, fmt.Errorf("core: no DRMap total point for %v", arch)
	}
	worst := math.Inf(-1)
	for _, p := range points {
		if p.Layer == TotalLayerName && p.Arch == arch && p.EDP > worst {
			worst = p.EDP
		}
	}
	if worst <= 0 {
		return 0, fmt.Errorf("core: degenerate worst EDP for %v", arch)
	}
	return 1 - drmap.EDP/worst, nil
}

// SALPImprovement returns Key Observation 4's metric: the relative EDP
// improvement of the given SALP architecture over DDR3 for one mapping
// policy on the Total aggregate.
func SALPImprovement(points []Fig9Point, policyID int, arch dram.Arch) (float64, error) {
	base := SelectPoint(points, TotalLayerName, policyID, dram.DDR3)
	salp := SelectPoint(points, TotalLayerName, policyID, arch)
	if base == nil || salp == nil {
		return 0, fmt.Errorf("core: missing total points for mapping %d on %v", policyID, arch)
	}
	if base.EDP <= 0 {
		return 0, fmt.Errorf("core: degenerate DDR3 EDP for mapping %d", policyID)
	}
	return 1 - salp.EDP/base.EDP, nil
}
