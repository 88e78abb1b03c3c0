package cluster

import (
	"context"
	"fmt"

	"drmap/internal/core"
	"drmap/internal/service"
)

// RunSimulate distributes one resolved simulate job across the live
// workers by layer-index span, through the same dispatcher as RunDSE,
// and merges the layers by placement into a result bit-for-bit
// identical to the local engines (layers share no simulation state, so
// a span is exact wherever it runs); with no live workers it wraps
// service.ErrNoWorkers. Progress counts layers as units; a sim-layer
// sink (core.WithSimLayers) receives every layer in index order after
// the merge, so a distributed v2 simulate job streams the same
// sim_layer events as a local one.
func (c *Coordinator) RunSimulate(ctx context.Context, job service.SimulateJob) ([]core.SimLayerResult, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	layers := len(job.Specs)
	// Simulate spans carry no count plan, so they place by the job's
	// content hash; an unfingerprintable job places by the empty key.
	fp, _ := service.Fingerprint(job)
	res, err := runShards(ctx, c, shardJob[core.SimLayerResult, []core.SimLayerResult]{
		kind: "simulate", placement: fp, units: layers,
		request: func(span core.ColumnSpan, shard, total int) ShardRequest {
			return ShardRequest{Sim: &job, Span: span, Shard: shard, Total: total}
		},
		payload: func(sr ShardResponse) []core.SimLayerResult { return sr.SimLayers },
		merge: func(shards [][]core.SimLayerResult) ([]core.SimLayerResult, error) {
			return MergeSim(layers, shards)
		},
	})
	if err != nil {
		return nil, err
	}
	if sink := core.SimLayersFrom(ctx); sink != nil {
		for _, lr := range res {
			sink(lr, layers)
		}
	}
	return res, nil
}

// MergeSim assembles shard layer results into the job's layer order by
// placement: each result carries its global index, so shards merge in
// any order. Out-of-range, duplicate, or missing indices are rejected -
// they indicate a worker evaluating a different job than the
// coordinator cut.
func MergeSim(layers int, shardResults [][]core.SimLayerResult) ([]core.SimLayerResult, error) {
	out := make([]core.SimLayerResult, layers)
	seen := make([]bool, layers)
	for _, shard := range shardResults {
		for _, lr := range shard {
			if lr.Index < 0 || lr.Index >= layers {
				return nil, fmt.Errorf("cluster: sim merge: layer index %d outside [0, %d)", lr.Index, layers)
			}
			if seen[lr.Index] {
				return nil, fmt.Errorf("cluster: sim merge: layer %d delivered twice", lr.Index)
			}
			seen[lr.Index] = true
			out[lr.Index] = lr
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("cluster: sim merge: layer %d missing from every shard", i)
		}
	}
	return out, nil
}
