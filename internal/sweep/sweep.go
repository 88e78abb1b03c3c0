// Package sweep holds the table behind the reproduction's ablation
// studies, which renders as aligned text or CSV so the ablation numbers
// in EXPERIMENTS.md are regenerable from one command, and the Table I
// pruning-soundness check. The subarrays-per-bank, buffer-capacity and
// batch sweeps run their points as DSE jobs through the service
// (service.Sweep), and the registry scan is a service batch.
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
