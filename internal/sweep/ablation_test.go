package sweep_test

// The ablation sweeps run each point as a DSE job through service.Sweep,
// and the registry scan is a DRMap-only service batch (cmd/drmap-sweep).
// These tests pin both to the serial scan - every row equals a fresh
// characterization and a serial core.RunDSE, bit for bit - and keep the
// sweeps' physical sanity checks.

import (
	"context"
	"testing"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/profile"
	"drmap/internal/service"
	"drmap/internal/tiling"
	"drmap/internal/trace"
)

// sweepRows runs one sweep on a fresh service and returns its rows'
// values in order.
func sweepRows(t *testing.T, req service.SweepRequest) [][]float64 {
	t.Helper()
	resp, err := service.New(service.Options{Workers: 2}).Sweep(context.Background(), req)
	if err != nil {
		t.Fatalf("Sweep %+v: %v", req, err)
	}
	rows := make([][]float64, len(resp.Table.Rows))
	for i, r := range resp.Table.Rows {
		rows[i] = r.Values
	}
	return rows
}

// serialDRMapDSE is the reference a sweep point must equal: a fresh
// characterization and a serial DRMap-only, all-schedules core.RunDSE,
// with no caching or flattening anywhere.
func serialDRMapDSE(t *testing.T, cfg dram.Config, acfg accel.Config, net cnn.Network, batch int) (*profile.Profile, *core.DSEResult) {
	t.Helper()
	prof, err := profile.Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(prof, acfg, batch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunDSE(net, ev, tiling.Schedules, []mapping.Policy{mapping.DRMap()})
	if err != nil {
		t.Fatal(err)
	}
	return prof, res
}

// checkRow compares one sweep row with its expected values exactly.
func checkRow(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s column %d: sweep %.17g != serial %.17g", label, i, got[i], want[i])
		}
	}
}

func TestSubarraySweepMatchesSerialDSE(t *testing.T) {
	net := cnn.LeNet5()
	values := []int{2, 4, 8, 16}
	rows := sweepRows(t, service.SweepRequest{Kind: "subarrays", Network: "lenet5"})
	if len(rows) != len(values) {
		t.Fatalf("%d rows for %d default values", len(rows), len(values))
	}
	for i, sa := range values {
		cfg := dram.SALPMASAConfig()
		cfg.Geometry.Subarrays = sa
		prof, res := serialDRMapDSE(t, cfg, accel.TableII(), net, 1)
		cost := prof.Stream[trace.AccessSubarraySwitch]
		checkRow(t, "subarrays", rows[i], []float64{cost.Cycles, cost.Energy * 1e9, res.TotalEDP() * 1e6})
	}
}

func TestBufferSweepMatchesSerialDSE(t *testing.T) {
	net := cnn.LeNet5()
	values := []int{32, 64, 128, 256}
	rows := sweepRows(t, service.SweepRequest{Kind: "buffers", Network: "lenet5"})
	if len(rows) != len(values) {
		t.Fatalf("%d rows for %d default values", len(rows), len(values))
	}
	for i, kb := range values {
		acfg := accel.TableII()
		acfg.IfmBufBytes, acfg.WgtBufBytes, acfg.OfmBufBytes = kb*1024, kb*1024, kb*1024
		_, res := serialDRMapDSE(t, mustBackend(t, "ddr3").Config, acfg, net, 1)
		checkRow(t, "buffers", rows[i], []float64{res.TotalEDP() * 1e6})
	}
}

func TestBatchSweepMatchesSerialDSE(t *testing.T) {
	net := cnn.LeNet5()
	values := []int{1, 2, 4, 8}
	rows := sweepRows(t, service.SweepRequest{Kind: "batch", Network: "lenet5"})
	if len(rows) != len(values) {
		t.Fatalf("%d rows for %d default values", len(rows), len(values))
	}
	for i, batch := range values {
		_, res := serialDRMapDSE(t, mustBackend(t, "ddr3").Config, accel.TableII(), net, batch)
		checkRow(t, "batch", rows[i], []float64{res.TotalEDP() * 1e6})
	}
}

// TestRegistrySweepMatchesSerialDSE: the registry scan's batch, one
// DRMap-only DSE request per registered backend, yields each backend's
// serial totals exactly - EDP, the in-order sum of the layers' seconds,
// and energy, the three values of a drmap-sweep registry row.
func TestRegistrySweepMatchesSerialDSE(t *testing.T) {
	net := cnn.LeNet5()
	backends := dram.Backends()
	jobs := make([]service.DSERequest, len(backends))
	for i, b := range backends {
		jobs[i] = service.DSERequest{Arch: b.ID, Network: "lenet5", Policies: []int{mapping.DRMap().ID}}
	}
	resp, err := service.New(service.Options{Workers: 2}).Batch(context.Background(), service.BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range backends {
		item := resp.Results[i]
		if item.Error != "" {
			t.Fatalf("%s: %s", b.ID, item.Error)
		}
		_, res := serialDRMapDSE(t, b.Config, accel.TableII(), net, 1)
		var seconds, wantSeconds float64
		for _, l := range item.Result.Result.Layers {
			seconds += l.Seconds
		}
		for _, lr := range res.Layers {
			wantSeconds += lr.Cost.Seconds(b.Config.Timing)
		}
		r := item.Result.Result
		checkRow(t, b.ID, []float64{r.TotalEDPJs, seconds, r.TotalEnergyJ},
			[]float64{res.TotalEDP(), wantSeconds, res.TotalEnergy()})
	}
}

func TestSubarraySweepMonotone(t *testing.T) {
	// More subarrays per bank means more parallelism headroom: the
	// subarray-stream cost must be non-increasing in the count.
	rows := sweepRows(t, service.SweepRequest{Kind: "subarrays", Values: []int{2, 4, 8}, Network: "lenet5"})
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][0] > rows[i-1][0]+0.5 {
			t.Errorf("subarray cost rose with more subarrays: %v", rows)
		}
	}
}

func TestBufferSweepMonotone(t *testing.T) {
	// Bigger buffers can only help (the DSE search space grows
	// monotonically): EDP must be non-increasing in buffer size.
	rows := sweepRows(t, service.SweepRequest{Kind: "buffers", Values: []int{16, 64, 256}, Arch: "ddr3", Network: "lenet5"})
	for i := 1; i < len(rows); i++ {
		if rows[i][0] > rows[i-1][0]*1.0001 {
			t.Errorf("EDP rose with bigger buffers: %v", rows)
		}
	}
}

func TestBatchSweepSuperlinear(t *testing.T) {
	// EDP = energy x delay: doubling the batch doubles both factors, so
	// EDP must grow at least ~4x per doubling (minus fixed effects).
	rows := sweepRows(t, service.SweepRequest{Kind: "batch", Values: []int{1, 2, 4}, Arch: "ddr3", Network: "lenet5"})
	if rows[1][0] < 3*rows[0][0] {
		t.Errorf("batch-2 EDP %.4g not ~4x batch-1 %.4g", rows[1][0], rows[0][0])
	}
	if rows[2][0] < 3*rows[1][0] {
		t.Errorf("batch-4 EDP %.4g not ~4x batch-2 %.4g", rows[2][0], rows[1][0])
	}
}

// mustBackend resolves a registered backend.
func mustBackend(t *testing.T, id string) dram.Backend {
	t.Helper()
	b, ok := dram.Lookup(id)
	if !ok {
		t.Fatalf("backend %s not registered", id)
	}
	return b
}
