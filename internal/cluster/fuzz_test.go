package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/service"
	"drmap/internal/tiling"
)

// FuzzShardRequest sends raw bytes to the worker's shard endpoint as a
// request body. Whatever a peer posts, the worker answers a 4xx or a
// 200 whose cells and simulated layers have finite, non-negative values
// and costs, and whose simulated cycles fit int64: never a panic, never
// a 5xx. The committed corpus under testdata/fuzz/FuzzShardRequest
// holds well-formed DSE and simulate shards of LeNet-5, malformed
// variants, a DSE layer and a simulate batch whose counts would leave
// the exact range, a backend with negative I/O energy and DSE jobs
// that repeat a policy or a schedule, so plain go test replays them
// offline.
func FuzzShardRequest(f *testing.F) {
	w := NewWorker(service.New(service.Options{Workers: 1, CacheEntries: 8}), WorkerOptions{ID: "fuzz"})
	f.Fuzz(func(t *testing.T, body []byte) {
		// Mutated layer dimensions can ask for unbounded work (there is
		// no work budget yet), so each input gets a deadline, as a
		// coordinator's shard timeout would impose.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		rec := httptest.NewRecorder()
		w.handleShard(rec, httptest.NewRequestWithContext(ctx, http.MethodPost, PathShard, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
			}
			return
		}
		var resp ShardResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 reply does not decode: %v: %s", err, rec.Body)
		}
		for _, c := range resp.Cells {
			if !finiteNonNegative(c.Value, c.Cost.Cycles, c.Cost.Energy) {
				t.Fatalf("body %q: cell %+v has a negative or non-finite value or cost", body, c)
			}
		}
		for _, lr := range resp.SimLayers {
			if !finiteNonNegative(lr.Cost.Cycles, lr.Cost.Energy) {
				t.Fatalf("body %q: sim layer %d has a negative or non-finite cost %+v", body, lr.Index, lr.Cost)
			}
			// A layer inside the exact count range takes fewer clock
			// cycles than int64 holds.
			if lr.Cost.Cycles >= math.MaxInt64 {
				t.Fatalf("body %q: sim layer %d ran %g cycles, past int64", body, lr.Index, lr.Cost.Cycles)
			}
		}
	})
}

func finiteNonNegative(xs ...float64) bool {
	for _, x := range xs {
		if math.IsInf(x, 0) || math.IsNaN(x) || x < 0 {
			return false
		}
	}
	return true
}

// FuzzShardResponse puts raw bytes into a stub worker's reply to
// RunDSE (simulate=false) or RunSimulate (simulate=true). Whatever a
// peer answers, the coordinator ends in a clean failure - retries
// exhausted into service.ErrNoWorkers, or a merge rejection - or in a
// finite result: one entry per layer with finite costs. Never a panic.
func FuzzShardResponse(f *testing.F) {
	var reply atomic.Pointer[[]byte]
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.Write(*reply.Load())
	}))
	defer stub.Close()

	backend, _ := dram.Lookup("ddr3")
	net := cnn.LeNet5()
	dse := service.DSEJob{
		Backend: backend, Accel: accel.TableII(), Network: net,
		Schedules: tiling.Schedules, Policies: mapping.TableI(),
		Objective: core.MinimizeEDP, Batch: 1,
	}
	grids, err := dse.Grid()
	if err != nil {
		f.Fatal(err)
	}
	// The coordinator never simulates, so the specs need valid layers
	// but no DSE-picked tilings.
	sim := service.SimulateJob{Backend: backend, Policy: mapping.TableI()[0], BytesPerElement: 1}
	for _, l := range net.Layers {
		sim.Specs = append(sim.Specs, core.LayerSpec{Layer: l, Batch: 1})
	}
	finite := func(xs ...float64) bool {
		for _, x := range xs {
			if math.IsInf(x, 0) || math.IsNaN(x) {
				return false
			}
		}
		return true
	}

	f.Fuzz(func(t *testing.T, simulate bool, body []byte) {
		reply.Store(&body)
		c := NewCoordinator(CoordinatorOptions{})
		c.Membership().Heartbeat(WorkerInfo{ID: "stub", URL: stub.URL, Capacity: 1})
		var err error
		if simulate {
			var layers []core.SimLayerResult
			if layers, err = c.RunSimulate(context.Background(), sim); err == nil {
				if len(layers) != len(net.Layers) {
					t.Fatalf("merged %d sim layers, want %d", len(layers), len(net.Layers))
				}
				for _, lr := range layers {
					if !finite(lr.Cost.Cycles, lr.Cost.Energy) {
						t.Fatalf("sim layer %d has non-finite cost %+v", lr.Index, lr.Cost)
					}
				}
			}
		} else {
			var res *core.DSEResult
			if res, err = c.RunDSE(context.Background(), dse, grids); err == nil {
				if len(res.Layers) != len(net.Layers) {
					t.Fatalf("merged %d DSE layers, want %d", len(res.Layers), len(net.Layers))
				}
				for li, lr := range res.Layers {
					if !finite(lr.MinEDP, lr.Cost.Cycles, lr.Cost.Energy) {
						t.Fatalf("DSE layer %d has non-finite pick: MinEDP %g, cost %+v", li, lr.MinEDP, lr.Cost)
					}
				}
			}
		}
		if err != nil && !errors.Is(err, service.ErrNoWorkers) && !strings.Contains(err.Error(), "merge:") {
			t.Fatalf("reply %q: unexpected error %v", body, err)
		}
	})
}
