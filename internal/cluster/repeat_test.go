package cluster

import (
	"context"
	"reflect"
	"testing"

	"drmap/internal/service"
)

// TestRepeatJobSkipsDispatch: behind a Service whose Runner is the
// coordinator, an identical repeat of a sharded request is answered
// from the service's result cache - no shard is dispatched again - and
// the response is the first one's, for both sharded job kinds.
func TestRepeatJobSkipsDispatch(t *testing.T) {
	cases := []struct {
		kind string
		// run issues the request and returns the response with its
		// Cached flag split out.
		run func(ctx context.Context, svc *service.Service) (resp any, cached bool, err error)
	}{
		{"dse", func(ctx context.Context, svc *service.Service) (any, bool, error) {
			r, err := svc.DSE(ctx, service.DSERequest{Arch: "salp2", Network: "lenet5"})
			if err != nil {
				return nil, false, err
			}
			cached := r.Cached
			r.Cached = false
			return r, cached, nil
		}},
		{"simulate", func(ctx context.Context, svc *service.Service) (any, bool, error) {
			r, err := svc.Simulate(ctx, service.SimulateRequest{Arch: "salp2", Network: "lenet5", Engine: "parallel"})
			if err != nil {
				return nil, false, err
			}
			cached := r.Cached
			r.Cached = false
			return r, cached, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			tw := newTestWorker(t, "w1", nil)
			defer tw.server.Close()
			c := NewCoordinator(CoordinatorOptions{})
			tw.register(c)
			svc := service.New(service.Options{Workers: 2, CacheEntries: 8, Runner: c})

			first, cached, err := tc.run(context.Background(), svc)
			if err != nil {
				t.Fatalf("%s: %v", tc.kind, err)
			}
			if cached {
				t.Error("first request reported as cached")
			}
			served := tw.worker.ShardsServed()
			if served == 0 {
				t.Fatal("no shards dispatched on the first request")
			}

			second, cached, err := tc.run(context.Background(), svc)
			if err != nil {
				t.Fatalf("%s (repeat): %v", tc.kind, err)
			}
			if !cached {
				t.Error("repeat request not served from the result cache")
			}
			if again := tw.worker.ShardsServed(); again != served {
				t.Errorf("repeat request dispatched shards: %d -> %d", served, again)
			}
			if !reflect.DeepEqual(first, second) {
				t.Error("repeat response diverged from the first")
			}
		})
	}
}

// TestCoordinatorRedispatchesRepeat: the coordinator itself keeps no
// results, so running the same resolved job on it twice dispatches
// every span twice, and both runs match the single-process result.
func TestCoordinatorRedispatchesRepeat(t *testing.T) {
	for _, kc := range kindCases(t, "ddr3") {
		t.Run(kc.kind, func(t *testing.T) {
			tw := newTestWorker(t, "w1", nil)
			defer tw.server.Close()
			c := NewCoordinator(CoordinatorOptions{})
			tw.register(c)

			first, err := kc.run(context.Background(), c)
			if err != nil {
				t.Fatalf("%s: %v", kc.kind, err)
			}
			served := tw.worker.ShardsServed()
			if served == 0 {
				t.Fatal("no shards dispatched on the first run")
			}
			second, err := kc.run(context.Background(), c)
			if err != nil {
				t.Fatalf("%s (repeat): %v", kc.kind, err)
			}
			if again := tw.worker.ShardsServed(); again != 2*served {
				t.Errorf("repeat run should re-dispatch: served %d then %d", served, again)
			}
			if !reflect.DeepEqual(first, second) {
				t.Error("reruns diverged")
			}
			if !reflect.DeepEqual(first, kc.want(t)) {
				t.Errorf("distributed %s diverged from the single-process run", kc.kind)
			}
		})
	}
}
