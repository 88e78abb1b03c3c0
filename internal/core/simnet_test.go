package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"drmap/internal/cnn"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/tiling"
)

// simnetSpecs is a small multi-layer workload: two LeNet-5 conv layers
// and one FC layer, tilings chosen so each cuts several tile groups but
// stays cheap enough for the full engine matrix.
func simnetSpecs() []LayerSpec {
	l := cnn.LeNet5().Layers
	return []LayerSpec{
		{Layer: l[0], Tiling: tiling.Tiling{Th: 14, Tw: 14, Tj: 6, Ti: 1}, Schedule: tiling.OfmsReuse, Batch: 1},
		{Layer: l[1], Tiling: tiling.Tiling{Th: 10, Tw: 10, Tj: 16, Ti: 6}, Schedule: tiling.IfmsReuse, Batch: 1},
		{Layer: l[3], Tiling: tiling.Tiling{Th: 1, Tw: 1, Tj: 60, Ti: 120}, Schedule: tiling.WghsReuse, Batch: 1},
	}
}

// TestSimulateNetworkSerialParallelIdentical pins the engine
// equivalence at the network level across all four paper backends and
// both mapping extremes: the parallel driver's layer results -
// per-layer cycles, command censuses, request counts, and float64
// energies - are bit-for-bit the serial driver's (reflect.DeepEqual).
func TestSimulateNetworkSerialParallelIdentical(t *testing.T) {
	specs := simnetSpecs()
	pols := mapping.TableI()
	for _, arch := range dram.Archs {
		cfg := dram.ConfigFor(arch)
		for _, pol := range []mapping.Policy{pols[0], mapping.DRMap()} {
			name := fmt.Sprintf("%v/%s", arch, pol.Name)
			serial, err := SimulateNetwork(context.Background(), cfg, pol, specs, SimOptions{BytesPerElement: 2})
			if err != nil {
				t.Fatalf("%s: serial: %v", name, err)
			}
			parallel, err := SimulateNetwork(context.Background(), cfg, pol, specs, SimOptions{
				BytesPerElement: 2, Parallel: true, Workers: 4,
			})
			if err != nil {
				t.Fatalf("%s: parallel: %v", name, err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("%s: parallel network simulation diverged from serial:\nserial:   %+v\nparallel: %+v", name, serial, parallel)
			}
		}
	}
}

// TestSimulateNetworkMatchesSimulateLayer: a one-layer network prices
// exactly like the standalone SimulateLayer path under both engines -
// the v1 validation endpoint and the network simulator share one
// ground truth. The costs are the ones the separate request-slice
// simulate path produced before SimulateLayer became a one-spec
// network simulation, recorded as exact float64 literals.
func TestSimulateNetworkMatchesSimulateLayer(t *testing.T) {
	spec := leNetSpec()
	want := map[int]map[dram.Arch]LayerEDP{
		1: {
			dram.DDR3:     {Cycles: 2651, Energy: 7.895012500000001e-07},
			dram.SALP1:    {Cycles: 2651, Energy: 7.895012500000001e-07},
			dram.SALP2:    {Cycles: 2651, Energy: 7.895012500000001e-07},
			dram.SALPMASA: {Cycles: 2651, Energy: 7.905565000000001e-07},
		},
		2: {
			dram.DDR3:     {Cycles: 5239, Energy: 1.56848375e-06},
			dram.SALP1:    {Cycles: 5239, Energy: 1.56848375e-06},
			dram.SALP2:    {Cycles: 5239, Energy: 1.56848375e-06},
			dram.SALPMASA: {Cycles: 5239, Energy: 1.57029275e-06},
		},
	}
	for _, bpe := range []int{1, 2} {
		byArch := want[bpe]
		for _, arch := range dram.Archs {
			cfg := dram.ConfigFor(arch)
			got, err := SimulateLayer(cfg, mapping.DRMap(), spec, bpe)
			if err != nil {
				t.Fatalf("%v bpe %d: SimulateLayer: %v", arch, bpe, err)
			}
			if got != byArch[arch] {
				t.Errorf("%v bpe %d: SimulateLayer cost %+v, want recorded %+v", arch, bpe, got, byArch[arch])
			}
			for _, par := range []bool{false, true} {
				res, err := SimulateNetwork(context.Background(), cfg, mapping.DRMap(), []LayerSpec{spec}, SimOptions{
					BytesPerElement: bpe, Parallel: par, Workers: 4,
				})
				if err != nil {
					t.Fatalf("%v bpe %d parallel=%v: SimulateNetwork: %v", arch, bpe, par, err)
				}
				if len(res) != 1 || res[0].Cost != byArch[arch] {
					t.Errorf("%v bpe %d parallel=%v: network cost %+v, want recorded %+v", arch, bpe, par, res[0].Cost, byArch[arch])
				}
			}
		}
	}
}

// TestSimulateNetworkOnLayerStreams: the OnLayer hook fires exactly
// once per layer with complete indices and names, under both drivers.
func TestSimulateNetworkOnLayerStreams(t *testing.T) {
	specs := simnetSpecs()
	for _, par := range []bool{false, true} {
		var mu sync.Mutex
		seen := map[int]string{}
		_, err := SimulateNetwork(context.Background(), dram.DDR3Config(), mapping.DRMap(), specs, SimOptions{
			BytesPerElement: 2, Parallel: par, Workers: 4,
			OnLayer: func(lr SimLayerResult) {
				mu.Lock()
				seen[lr.Index] = lr.Name
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("parallel=%v: %v", par, err)
		}
		if len(seen) != len(specs) {
			t.Fatalf("parallel=%v: OnLayer fired for %d layers, want %d", par, len(seen), len(specs))
		}
		for i, sp := range specs {
			if seen[i] != sp.Layer.Name {
				t.Errorf("parallel=%v: layer %d streamed as %q, want %q", par, i, seen[i], sp.Layer.Name)
			}
		}
	}
}

// TestSimulateNetworkCancel: a canceled context aborts the run under
// both drivers - even though every arrival sits at tick 0.
func TestSimulateNetworkCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []bool{false, true} {
		if _, err := SimulateNetwork(ctx, dram.DDR3Config(), mapping.DRMap(), simnetSpecs(), SimOptions{
			BytesPerElement: 2, Parallel: par, Workers: 4,
		}); err == nil {
			t.Errorf("parallel=%v: canceled simulation returned no error", par)
		}
	}
}
