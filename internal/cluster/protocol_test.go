package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestShardBodiesCappedBothWays: a shard body past MaxShardBytes is
// refused on either side of the exchange. A worker answers an oversized
// request 413 instead of decoding a truncated prefix into a 400, and a
// coordinator reading a stub worker's reply that streams past the cap
// treats it as a failed attempt: the stub is marked dead, its shards
// retry on the healthy worker, and either kind's result stays
// bit-for-bit the single-process run's.
func TestShardBodiesCappedBothWays(t *testing.T) {
	healthy := newTestWorker(t, "healthy", nil)
	oversized := `{"shard":0,"pad":"` + strings.Repeat("x", MaxShardBytes) + `"}`
	resp, err := http.Post(healthy.server.URL+PathShard, "application/json", strings.NewReader(oversized))
	if err != nil {
		t.Fatalf("POST oversized shard: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized shard request: status %d, want 413", resp.StatusCode)
	}

	// The stub opens a well-formed response and never closes its first
	// string before the cap; it stops once the coordinator hangs up.
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		rw.Header().Set("Content-Type", "application/json")
		chunk := strings.Repeat("a", 1<<15)
		if _, err := io.WriteString(rw, `{"worker_id":"`); err != nil {
			return
		}
		for written := 0; written <= 2*MaxShardBytes; written += len(chunk) {
			if _, err := io.WriteString(rw, chunk); err != nil {
				return
			}
		}
		io.WriteString(rw, `"}`)
	}))
	defer stub.Close()

	for _, kc := range kindCases(t, "ddr3") {
		t.Run(kc.kind, func(t *testing.T) {
			coord := NewCoordinator(CoordinatorOptions{})
			healthy.register(coord)
			coord.Membership().Heartbeat(WorkerInfo{ID: "stub", URL: stub.URL, Capacity: 2})
			got, err := kc.run(context.Background(), coord)
			if err != nil {
				t.Fatalf("%s with an over-cap worker: %v", kc.kind, err)
			}
			if !reflect.DeepEqual(got, kc.want(t)) {
				t.Errorf("distributed %s diverged from the single-process run", kc.kind)
			}
			if coord.retries.Value() == 0 {
				t.Error("no shard retried after the over-cap reply")
			}
			if live := coord.Membership().Live(); len(live) != 1 || live[0].ID != "healthy" {
				t.Errorf("live workers %v, want only the healthy one", live)
			}
		})
	}
}
