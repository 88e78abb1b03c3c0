package cluster

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"drmap/internal/obs"
)

// TestShardCacheSkipsDuplicateDispatch: re-running an identical
// resolved job re-dispatches nothing - every span is answered from the
// coordinator's shard result cache - and the merged result is
// bit-for-bit the first run's (and the single-process run's), for
// both sharded job kinds.
func TestShardCacheSkipsDuplicateDispatch(t *testing.T) {
	for _, kc := range kindCases(t, "salp2") {
		t.Run(kc.kind, func(t *testing.T) {
			tw := newTestWorker(t, "w1", nil)
			defer tw.server.Close()
			c := NewCoordinator(CoordinatorOptions{})
			c.Membership().Heartbeat(WorkerInfo{ID: "w1", URL: tw.server.URL})

			first, err := kc.run(context.Background(), c)
			if err != nil {
				t.Fatalf("%s: %v", kc.kind, err)
			}
			served := tw.worker.ShardsServed()
			if served == 0 {
				t.Fatal("no shards dispatched on the first run")
			}
			if ss := c.ShardCacheStats(); ss.Misses != served || ss.Entries != int(served) {
				t.Errorf("first run: cache stats %+v, want %d misses/entries", ss, served)
			}

			second, err := kc.run(context.Background(), c)
			if err != nil {
				t.Fatalf("%s (repeat): %v", kc.kind, err)
			}
			if again := tw.worker.ShardsServed(); again != served {
				t.Errorf("duplicate job dispatched shards: %d -> %d", served, again)
			}
			if ss := c.ShardCacheStats(); ss.Hits != served {
				t.Errorf("duplicate job: cache hits = %d, want %d", ss.Hits, served)
			}
			if !reflect.DeepEqual(first, second) {
				t.Error("cached rerun diverged from the first run")
			}
			if !reflect.DeepEqual(first, kc.want(t)) {
				t.Errorf("distributed %s diverged from the single-process run", kc.kind)
			}
		})
	}

	// The shard-cache gauges ride along on the coordinator metrics.
	reg := obs.NewRegistry()
	NewCoordinator(CoordinatorOptions{Registry: reg})
	page, err := obs.ParseExposition(reg.Expose())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"drmap_cluster_shard_cache_hits_total",
		"drmap_cluster_shard_cache_misses_total",
		"drmap_cluster_shard_cache_coalesced_total",
		"drmap_cluster_shard_cache_evictions_total",
		"drmap_cluster_shard_cache_entries",
	} {
		if !page.Has(want) {
			t.Errorf("coordinator metrics missing %s", want)
		}
	}
}

// TestShardCacheDisabled: a negative bound turns the cache off - every
// run of either kind dispatches - without touching result equivalence.
func TestShardCacheDisabled(t *testing.T) {
	for _, kc := range kindCases(t, "ddr3") {
		t.Run(kc.kind, func(t *testing.T) {
			tw := newTestWorker(t, "w1", nil)
			defer tw.server.Close()
			c := NewCoordinator(CoordinatorOptions{ShardCacheEntries: -1})
			c.Membership().Heartbeat(WorkerInfo{ID: "w1", URL: tw.server.URL})

			first, err := kc.run(context.Background(), c)
			if err != nil {
				t.Fatalf("%s: %v", kc.kind, err)
			}
			served := tw.worker.ShardsServed()
			second, err := kc.run(context.Background(), c)
			if err != nil {
				t.Fatalf("%s (repeat): %v", kc.kind, err)
			}
			if again := tw.worker.ShardsServed(); again != 2*served {
				t.Errorf("disabled cache should re-dispatch: served %d then %d", served, again)
			}
			if ss := c.ShardCacheStats(); ss.Hits != 0 || ss.Misses != 0 || ss.Entries != 0 {
				t.Errorf("disabled cache reports stats %+v", ss)
			}
			if !reflect.DeepEqual(first, second) {
				t.Error("reruns diverged")
			}
		})
	}

	// Disabled or not, the gauges stay present (zero-valued) so
	// dashboards do not lose series.
	reg := obs.NewRegistry()
	NewCoordinator(CoordinatorOptions{ShardCacheEntries: -1, Registry: reg})
	if !strings.Contains(reg.Expose(), "drmap_cluster_shard_cache_hits_total 0") {
		t.Error("disabled cache dropped the shard-cache gauges")
	}
}
