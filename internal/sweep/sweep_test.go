package sweep

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/profile"
	"drmap/internal/tiling"
)

func TestTableAddRowValidatesWidth(t *testing.T) {
	tb := &Table{Name: "t", Header: []string{"x", "a", "b"}}
	if err := tb.AddRow("1", 1.0); err == nil {
		t.Error("accepted short row")
	}
	if err := tb.AddRow("1", 1.0, 2.0); err != nil {
		t.Errorf("rejected valid row: %v", err)
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tb := &Table{Name: "demo", Header: []string{"x", "y"}}
	if err := tb.AddRow("r1", 3.5); err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	for _, want := range []string{"demo", "x", "y", "r1", "3.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csvOut := buf.String()
	if !strings.HasPrefix(csvOut, "x,y\n") || !strings.Contains(csvOut, "r1,3.5") {
		t.Errorf("CSV malformed:\n%s", csvOut)
	}
}

func TestPolicyPruningSound(t *testing.T) {
	// The paper prunes 24 loop orders to the 6 with the row loop
	// outer-most; no pruned permutation may beat the kept set.
	tb, err := PolicyPruning(mustBackend("salp1"), cnn.LeNet5().Layers[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	kept, pruned := tb.Rows[0][0], tb.Rows[1][0]
	if pruned < kept*(1-1e-9) {
		t.Errorf("a pruned permutation (%.6g) beats Table I's best (%.6g): pruning unsound", pruned, kept)
	}
}

// TestPolicyPruningMatchesDirectScan: the plan-based pruning table
// equals the pre-refactor per-permutation scan (tile groups expanded
// and priced directly per permutation through EvaluateLayer) exactly.
func TestPolicyPruningMatchesDirectScan(t *testing.T) {
	backend := mustBackend("salp2")
	layer := cnn.LeNet5().Layers[1]
	tb, err := PolicyPruning(backend, layer, 1)
	if err != nil {
		t.Fatal(err)
	}

	prof, err := profile.CharacterizeBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(prof, accel.TableII(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tilings := tiling.Enumerate(layer, ev.Accel)
	tm := ev.Timing()
	tableI := map[[4]mapping.Level]bool{}
	for _, p := range mapping.TableI() {
		tableI[p.Order] = true
	}
	bestKept, bestPruned := -1.0, -1.0
	for _, p := range mapping.AllPermutations() {
		best := math.Inf(1)
		for _, tl := range tilings {
			if edp := ev.EvaluateLayer(layer, tl, tiling.AdaptiveReuse, p).EDP(tm); edp < best {
				best = edp
			}
		}
		if tableI[p.Order] {
			if bestKept < 0 || best < bestKept {
				bestKept = best
			}
		} else if bestPruned < 0 || best < bestPruned {
			bestPruned = best
		}
	}
	if got := tb.Rows[0][0]; got != bestKept*1e6 {
		t.Errorf("tableI-six %.17g != direct scan %.17g", got, bestKept*1e6)
	}
	if got := tb.Rows[1][0]; got != bestPruned*1e6 {
		t.Errorf("pruned-eighteen %.17g != direct scan %.17g", got, bestPruned*1e6)
	}
}

// mustBackend resolves a registered backend for test fixtures.
func mustBackend(id string) dram.Backend {
	b, ok := dram.Lookup(id)
	if !ok {
		panic("sweep test: backend " + id + " not registered")
	}
	return b
}

// TestPolicyPruningRejectsUntileableLayer: a layer that passes
// validation but fits no tiling in the buffers is an error - the one the
// DSE reports - not a table of meaningless EDPs.
func TestPolicyPruningRejectsUntileableLayer(t *testing.T) {
	layer := cnn.Layer{Name: "huge-kernel", H: 1, W: 1, J: 1, I: 1, P: 512, Q: 512, Stride: 1}
	if err := layer.Validate(); err != nil {
		t.Fatalf("layer must pass validation for this test: %v", err)
	}
	if n := len(tiling.Enumerate(layer, accel.TableII())); n != 0 {
		t.Fatalf("layer admits %d tilings; the test needs none", n)
	}
	tb, err := PolicyPruning(mustBackend("ddr3"), layer, 1)
	if err == nil {
		t.Fatalf("PolicyPruning returned no error and rows %v", tb.Rows)
	}
	if !strings.Contains(err.Error(), "no partitioning fits the buffers") {
		t.Errorf("error %q does not name the missing partitioning", err)
	}
}
