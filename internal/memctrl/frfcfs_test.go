package memctrl

import (
	"fmt"
	"math/rand"
	"testing"

	"drmap/internal/dram"
	"drmap/internal/trace"
)

// referenceSchedule is the quadratic FR-FCFS scheduler the streaming
// picker replaced, kept as the oracle for its service order: it holds
// every unserviced index in one pending list and removes each pick by
// copying the tail. It returns the service order as indices into reqs
// and how many times the starvation cap forced the oldest request
// ahead of a windowed row hit.
func referenceSchedule(c *Controller, reqs []trace.Request) (order []int, forced int) {
	type slot struct{ bank, sa int }
	open := make(map[slot]int)
	pending := make([]int, 0, len(reqs))
	for i := range reqs {
		pending = append(pending, i)
	}
	hit := func(idx int) bool {
		r := reqs[idx]
		row, ok := open[slot{bank: c.bankIndex(r.Addr), sa: c.stateSubarray(r.Addr)}]
		return ok && row == r.Addr.Row
	}
	headStarved := 0
	for len(pending) > 0 {
		window := len(pending)
		if window > frfcfsWindow {
			window = frfcfsWindow
		}
		pick := 0
		if headStarved < frfcfsStarvationCap {
			for w := 0; w < window; w++ {
				if hit(pending[w]) {
					pick = w
					break
				}
			}
		} else if !hit(pending[0]) {
			for w := 1; w < window; w++ {
				if hit(pending[w]) {
					forced++
					break
				}
			}
		}
		if pick == 0 {
			headStarved = 0
		} else {
			headStarved++
		}
		idx := pending[pick]
		r := reqs[idx]
		open[slot{bank: c.bankIndex(r.Addr), sa: c.stateSubarray(r.Addr)}] = r.Addr.Row
		order = append(order, idx)
		pending = append(pending[:pick], pending[pick+1:]...)
	}
	return order, forced
}

// checkFRFCFSOrder runs reqs through an FR-FCFS controller with the
// serviced log on and asserts the serviced sequence is the reference
// order and a permutation of reqs. It returns the reference's forced
// count.
func checkFRFCFSOrder(t *testing.T, name string, cfg dram.Config, reqs []trace.Request) int {
	t.Helper()
	c, err := New(cfg, Options{Scheduler: FRFCFS})
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	order, forced := referenceSchedule(c, reqs)
	res, err := c.Run(reqs)
	if err != nil {
		t.Fatalf("%s: Run: %v", name, err)
	}
	if len(res.Serviced) != len(reqs) {
		t.Fatalf("%s: serviced %d of %d requests", name, len(res.Serviced), len(reqs))
	}
	left := make(map[trace.Request]int, len(reqs))
	for _, r := range reqs {
		left[r]++
	}
	for i, s := range res.Serviced {
		if want := reqs[order[i]]; s.Request != want {
			t.Fatalf("%s: service position %d is %v, reference picks request %d (%v)",
				name, i, s.Request, order[i], want)
		}
		if left[s.Request]--; left[s.Request] < 0 {
			t.Fatalf("%s: request %v serviced more often than it was queued", name, s.Request)
		}
	}
	return forced
}

// decodeFRFCFSStream turns fuzz bytes into a short request stream
// inside g. Each 3-byte record emits a run of 1-16 requests to one row
// on consecutive columns: byte 0 holds the op (bit 0), the run length
// (bits 1-4) and the bank (bits 5-7); byte 1 the subarray (bits 3-7)
// and one of eight rows in it (bits 0-2); byte 2 the channel
// (bits 6-7), rank (bits 4-5) and first column (bits 0-3). Few rows and
// long same-row runs make windowed hits - and starvation-cap trips -
// common. The stream is capped at 512 requests.
func decodeFRFCFSStream(data []byte, g dram.Geometry) []trace.Request {
	const maxReqs = 512
	subs := g.Subarrays
	if subs <= 0 {
		subs = 1
	}
	rps := g.RowsPerSubarray()
	var reqs []trace.Request
	for ; len(data) >= 3 && len(reqs) < maxReqs; data = data[3:] {
		b0, b1, b2 := int(data[0]), int(data[1]), int(data[2])
		op := trace.Read
		if b0&1 == 1 {
			op = trace.Write
		}
		addr := dram.Address{
			Channel: (b2 >> 6) % g.Channels,
			Rank:    (b2 >> 4 & 3) % g.Ranks,
			Bank:    (b0 >> 5) % g.Banks,
			Row:     ((b1>>3)%subs)*rps + (b1&7)%rps,
		}
		for k := 0; k < 1+(b0>>1&15) && len(reqs) < maxReqs; k++ {
			addr.Column = (b2&15 + k) % g.Columns
			reqs = append(reqs, trace.Request{Op: op, Addr: addr})
		}
	}
	return reqs
}

// FuzzFRFCFSOrder checks the streaming FR-FCFS picker against the
// reference scheduler on fuzz-decoded streams over every registered
// backend's geometry. The committed corpus under testdata/fuzz holds
// streams that trip the starvation cap.
func FuzzFRFCFSOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, b := range dram.Backends() {
			checkFRFCFSOrder(t, b.ID, b.Config, decodeFRFCFSStream(data, b.Config.Geometry))
		}
	})
}

// TestFRFCFSMatchesReference pins the streaming picker to the reference
// order over every registered backend: on seeded streams longer than
// the window - uniform random traffic and hot-row traffic (eight rows
// per subarray) - and on the corpus's starvation stream, a cold
// request queued ahead of long row-hit runs, which must trip the cap.
func TestFRFCFSMatchesReference(t *testing.T) {
	starvation := []byte{2, 0, 0, 0, 1, 0, 30, 0, 2, 30, 0, 2, 30, 0, 8}
	for _, b := range dram.Backends() {
		g := b.Config.Geometry
		for _, seed := range []int64{1, 7, 1020} {
			checkFRFCFSOrder(t, fmt.Sprintf("%s/uniform/%d", b.ID, seed), b.Config, randomRequests(seed, 600, g))
			data := make([]byte, 600)
			rand.New(rand.NewSource(seed)).Read(data)
			checkFRFCFSOrder(t, fmt.Sprintf("%s/hot/%d", b.ID, seed), b.Config, decodeFRFCFSStream(data, g))
		}
		if checkFRFCFSOrder(t, b.ID+"/starvation", b.Config, decodeFRFCFSStream(starvation, g)) == 0 {
			t.Errorf("%s: starvation stream never tripped the cap", b.ID)
		}
	}
}
