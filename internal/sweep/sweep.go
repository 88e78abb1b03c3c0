// Package sweep runs the parameter sweeps behind the reproduction's
// ablation studies: subarrays-per-bank, on-chip buffer capacity, batch
// size and the data-toggle energy term. Each sweep produces a Table
// that renders as aligned text or CSV, so the ablation numbers in
// EXPERIMENTS.md are regenerable from one command.
package sweep

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/profile"
	"drmap/internal/tiling"
	"drmap/internal/trace"
)

// Table is a sweep result: one labelled row per swept value.
type Table struct {
	Name   string
	Header []string
	Labels []string
	Rows   [][]float64
}

// AddRow appends a labelled row; the value count must match the header.
func (t *Table) AddRow(label string, values ...float64) error {
	if len(values) != len(t.Header)-1 {
		return fmt.Errorf("sweep: row %q has %d values for %d columns", label, len(values), len(t.Header)-1)
	}
	t.Labels = append(t.Labels, label)
	t.Rows = append(t.Rows, values)
	return nil
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	sb.WriteString(t.Name + "\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Header, "\t"))
	for i, label := range t.Labels {
		fmt.Fprint(w, label)
		for _, v := range t.Rows[i] {
			fmt.Fprintf(w, "\t%.6g", v)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return sb.String()
}

// WriteCSV emits the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for i, label := range t.Labels {
		rec := make([]string, 0, len(t.Rows[i])+1)
		rec = append(rec, label)
		for _, v := range t.Rows[i] {
			rec = append(rec, strconv.FormatFloat(v, 'g', 8, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// drmapTotalEDP characterizes the config and returns the DRMap-only DSE
// total EDP of the network, repricing through the sweep's plan cache:
// consecutive sweep points whose count identity carries over (same die
// geometry, batch and tiling candidates) skip the counting pass.
func drmapTotalEDP(pl *Planner, cfg dram.Config, acfg accel.Config, net cnn.Network, batch int) (float64, error) {
	prof, err := profile.Characterize(cfg)
	if err != nil {
		return 0, err
	}
	return pl.TotalEDP(prof, acfg, net, batch)
}

// Subarrays sweeps subarrays-per-bank on SALP-MASA: the subarray-stream
// cost and the network's DRMap EDP quantify how much parallelism
// headroom the architecture choice buys.
func Subarrays(counts []int, net cnn.Network, batch int) (*Table, error) {
	t := &Table{
		Name:   "Ablation: subarrays per bank (SALP-MASA, " + net.Name + ")",
		Header: []string{"subarrays", "subarray-cycles/access", "subarray-nJ/access", "DRMap-total-EDP[uJs]"},
	}
	pl := NewPlanner()
	for _, sa := range counts {
		cfg := dram.SALPMASAConfig()
		cfg.Geometry.Subarrays = sa
		prof, err := profile.Characterize(cfg)
		if err != nil {
			return nil, err
		}
		cost := prof.Stream[trace.AccessSubarraySwitch]
		edp, err := drmapTotalEDP(pl, cfg, accel.TableII(), net, batch)
		if err != nil {
			return nil, err
		}
		if err := t.AddRow(strconv.Itoa(sa), cost.Cycles, cost.Energy*1e9, edp*1e6); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Buffers sweeps the on-chip buffer capacity on any registered DRAM
// backend: smaller buffers force finer partitionings and more DRAM
// traffic.
func Buffers(sizesKB []int, backend dram.Backend, net cnn.Network, batch int) (*Table, error) {
	t := &Table{
		Name:   fmt.Sprintf("Ablation: on-chip buffer capacity (%s, %s)", backend.Label(), net.Name),
		Header: []string{"buffer-KB", "DRMap-total-EDP[uJs]"},
	}
	cfg := backend.Config
	// One plan cache across the trajectory: the count signature is
	// buffer-independent, so layers whose tiling candidates coincide
	// between budgets reprice the carried-over plans.
	pl := NewPlanner()
	for _, kb := range sizesKB {
		acfg := accel.TableII()
		acfg.IfmBufBytes, acfg.WgtBufBytes, acfg.OfmBufBytes = kb*1024, kb*1024, kb*1024
		edp, err := drmapTotalEDP(pl, cfg, acfg, net, batch)
		if err != nil {
			return nil, err
		}
		if err := t.AddRow(strconv.Itoa(kb), edp*1e6); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Batches sweeps the batch size on any registered DRAM backend:
// traffic scales linearly, EDP super-linearly (energy x delay).
func Batches(batches []int, backend dram.Backend, net cnn.Network) (*Table, error) {
	t := &Table{
		Name:   fmt.Sprintf("Ablation: batch size (%s, %s)", backend.Label(), net.Name),
		Header: []string{"batch", "DRMap-total-EDP[uJs]"},
	}
	cfg := backend.Config
	pl := NewPlanner()
	for _, b := range batches {
		edp, err := drmapTotalEDP(pl, cfg, accel.TableII(), net, b)
		if err != nil {
			return nil, err
		}
		if err := t.AddRow(strconv.Itoa(b), edp*1e6); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// PolicyPruning validates the paper's Table I pruning on a layer: it
// prices all 24 loop-order permutations and reports the best EDP among
// the pruned-away 18 versus the Table I six. The pruning is sound if
// no pruned permutation beats the six.
//
// The scan runs through the count -> price split: the layer's tile
// groups expand once into a 24-policy count plan, and one pricing scan
// yields every permutation's minimum, with EDPs identical to the
// per-permutation scan. The layer is checked as the DSE checks it: an
// invalid layer, or one that fits no tiling, is an error.
func PolicyPruning(backend dram.Backend, layer cnn.Layer, batch int) (*Table, error) {
	prof, err := profile.CharacterizeBackend(backend)
	if err != nil {
		return nil, err
	}
	ev, err := core.NewEvaluator(prof, accel.TableII(), batch)
	if err != nil {
		return nil, err
	}
	perms := mapping.AllPermutations()
	schedules := []tiling.Schedule{tiling.AdaptiveReuse}
	grids, err := core.DSEGrid(cnn.Network{Name: layer.Name, Layers: []cnn.Layer{layer}}, ev, schedules, perms)
	if err != nil {
		return nil, err
	}
	cells := ev.PriceFlatInto(ev.CountScheduleColumn(grids[0], 0, schedules[0], perms), core.MinimizeEDP, nil)
	tableI := map[[4]mapping.Level]bool{}
	for _, p := range mapping.TableI() {
		tableI[p.Order] = true
	}
	t := &Table{
		Name:   fmt.Sprintf("Ablation: Table I pruning soundness (%s, layer %s)", backend.Label(), layer.Name),
		Header: []string{"policy-set", "best-EDP[uJs]"},
	}
	bestKept, bestPruned := -1.0, -1.0
	for pi, p := range perms {
		edp := cells[pi].Value
		if tableI[p.Order] {
			if bestKept < 0 || edp < bestKept {
				bestKept = edp
			}
		} else if bestPruned < 0 || edp < bestPruned {
			bestPruned = edp
		}
	}
	if err := t.AddRow("tableI-six", bestKept*1e6); err != nil {
		return nil, err
	}
	if err := t.AddRow("pruned-eighteen", bestPruned*1e6); err != nil {
		return nil, err
	}
	return t, nil
}

// Registry sweeps the whole DRAM backend registry: the DRMap-policy DSE
// total EDP (and its delay and energy factors) of one network on every
// given backend - the multi-backend scan the count/price split was
// built for. Each (layer, schedule) column's count plan is computed
// once per distinct count signature (core.CountKey) and repriced for
// every backend sharing it, so the paper's four architectures expand
// and count their tile streams once instead of four times; every row
// is bit-for-bit the backend's serial core.RunDSE total.
func Registry(backends []dram.Backend, net cnn.Network, batch int) (*Table, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("sweep: registry sweep needs at least one backend")
	}
	t := &Table{
		Name:   fmt.Sprintf("Registry scan: DRMap DSE (%s, batch %d)", net.Name, batch),
		Header: []string{"backend", "DRMap-total-EDP[uJs]", "delay[ms]", "energy[mJ]"},
	}
	acfg := accel.TableII()
	policies := []mapping.Policy{mapping.DRMap()}
	// One plan cache across the scan: a backend whose count signature
	// (die geometry, element width, batch) appeared earlier reprices the
	// cached vectorized plans in a flat linear scan, into scratch buffers
	// the planner recycles across backends.
	pl := NewPlanner()
	for _, b := range backends {
		prof, err := profile.CharacterizeBackend(b)
		if err != nil {
			return nil, err
		}
		ev, err := core.NewEvaluator(prof, acfg, batch)
		if err != nil {
			return nil, err
		}
		totalEDP, totalSeconds, totalEnergy, err := pl.run(ev, net, tiling.Schedules, policies)
		if err != nil {
			return nil, err
		}
		if err := t.AddRow(b.ID, totalEDP*1e6, totalSeconds*1e3, totalEnergy*1e3); err != nil {
			return nil, err
		}
	}
	return t, nil
}
