// Delta repricing for sweeps. A sweep evaluates a trajectory of
// near-identical DSE points - the same network under a mutated DRAM
// geometry, buffer budget or batch size - and most of each point's work
// is the backend-independent tile-group counting of countplan.go. The
// Planner keeps every counted (and vectorized) column keyed by its full
// count identity, so a sweep point whose count signature carries over
// from an earlier point reprices flat plans instead of recounting: the
// registry scan counts once per distinct die geometry, and a buffer
// sweep recounts only the layers whose tiling candidates actually
// changed.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/mapping"
	"drmap/internal/profile"
	"drmap/internal/tiling"
)

// PlanStats counts a Planner's column outcomes: a hit repriced a cached
// vectorized plan, a miss counted the column fresh.
type PlanStats struct {
	Hits   int64
	Misses int64
}

// Planner caches vectorized count plans (core.FlatColumn) across the
// points of a sweep. It is NOT safe for concurrent use - sweeps are
// serial trajectories; the concurrent equivalent is the service's
// single-flight plan cache.
type Planner struct {
	plans map[string]*core.FlatColumn
	stats PlanStats
	// scratch buffers for the per-column reprice and the per-layer cell
	// accumulation; both are recycled across points (core.ReduceCells
	// copies the cells it keeps).
	scratch []core.CellResult
	cells   []core.CellResult
}

// NewPlanner returns an empty plan cache.
func NewPlanner() *Planner {
	return &Planner{plans: map[string]*core.FlatColumn{}}
}

// Stats snapshots the hit/miss counters.
func (p *Planner) Stats() PlanStats { return p.stats }

// Plans returns the number of distinct cached plans.
func (p *Planner) Plans() int { return len(p.plans) }

// columnKey content-addresses one column's count plan by everything the
// counts depend on: the evaluator's count signature (die geometry,
// element width, batch, counting convention), the layer, the candidate
// tilings, the schedule and the policy list. Two sweep points agreeing
// on all of these produce identical counts by construction, whatever
// else (costs, timing, buffer budgets that left the tilings unchanged)
// differs between them.
type columnKey struct {
	Count    core.CountKey
	Layer    cnn.Layer
	Tilings  []tiling.Tiling
	Schedule string
	Policies []mapping.Policy
}

// fingerprint is the sweep-local content address: SHA-256 over the
// canonical JSON encoding (the same scheme the service cache uses;
// reimplemented here because service imports sweep).
func fingerprint(k columnKey) (string, error) {
	b, err := json.Marshal(k)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// column returns the vectorized count plan of one (layer, schedule)
// column, counting it only when no earlier point counted an identical
// column.
func (p *Planner) column(ev *core.Evaluator, lg core.LayerGrid, si int, s tiling.Schedule, policies []mapping.Policy) (*core.FlatColumn, error) {
	key, err := fingerprint(columnKey{
		Count:    ev.CountKey(),
		Layer:    lg.Layer,
		Tilings:  lg.Tilings,
		Schedule: s.String(),
		Policies: policies,
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: plan key: %w", err)
	}
	if fc := p.plans[key]; fc != nil {
		p.stats.Hits++
		return fc, nil
	}
	p.stats.Misses++
	fc := ev.CountScheduleColumn(lg, si, s, policies)
	p.plans[key] = fc
	return fc, nil
}

// run evaluates one DSE point through the plan cache: every column is
// repriced from its (possibly carried-over) flat plan and reduced per
// layer exactly as the serial scan reduces, so the totals are
// bit-for-bit core.RunDSE's for the same inputs.
func (p *Planner) run(ev *core.Evaluator, net cnn.Network, schedules []tiling.Schedule, policies []mapping.Policy) (edp, seconds, energy float64, err error) {
	grids, err := core.DSEGrid(net, ev, schedules, policies)
	if err != nil {
		return 0, 0, 0, err
	}
	tm := ev.Timing()
	for _, lg := range grids {
		p.cells = p.cells[:0]
		for si, s := range schedules {
			fc, err := p.column(ev, lg, si, s, policies)
			if err != nil {
				return 0, 0, 0, err
			}
			p.scratch = ev.PriceFlatInto(fc, core.MinimizeEDP, p.scratch)
			p.cells = append(p.cells, p.scratch...)
		}
		lr := core.ReduceCells(lg, schedules, policies, p.cells, tm)
		edp += lr.MinEDP
		seconds += lr.Cost.Seconds(tm)
		energy += lr.Cost.Energy
	}
	return edp, seconds, energy, nil
}

// TotalEDP evaluates one sweep point - the DRMap-policy, all-schedules
// DSE of the network on the characterized DRAM system - and returns its
// total EDP, identical bit-for-bit to summing core.RunDSE with the
// DRMap policy. Columns whose count identity appeared at an earlier
// point (same die geometry, batch and tiling candidates) are repriced
// from the cached plan rather than recounted; Stats reports how much of
// the trajectory carried over.
func (p *Planner) TotalEDP(prof *profile.Profile, acfg accel.Config, net cnn.Network, batch int) (float64, error) {
	ev, err := core.NewEvaluator(prof, acfg, batch)
	if err != nil {
		return 0, err
	}
	edp, _, _, err := p.run(ev, net, tiling.Schedules, []mapping.Policy{mapping.DRMap()})
	return edp, err
}
