package core

import (
	"context"

	"drmap/internal/cnn"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/tiling"
)

// LayerSpec bundles the inputs of a trace-driven layer simulation.
type LayerSpec struct {
	Layer    cnn.Layer
	Tiling   tiling.Tiling
	Schedule tiling.Schedule
	Batch    int
}

// SimulateLayer prices one (layer, tiling, schedule) combination by
// running its tile streams through the cycle-accurate controller and
// the energy model instead of the analytical category counts: it is a
// one-spec SimulateNetwork on the serial engine. Each distinct tile
// stream is simulated once from a cold controller and scaled by its
// load count, mirroring the analytical model's per-tile independence
// assumption.
//
// It is the validation path of the tool flow (Fig. 8): comparing its
// output against Evaluator.Price quantifies the approximation error of
// the paper's Eq. 2-3 pricing.
func SimulateLayer(cfg dram.Config, pol mapping.Policy, spec LayerSpec, bytesPerElement int) (LayerEDP, error) {
	res, err := SimulateNetwork(context.TODO(), cfg, pol, []LayerSpec{spec}, SimOptions{BytesPerElement: bytesPerElement})
	if err != nil {
		return LayerEDP{}, err
	}
	return res[0].Cost, nil
}
