package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drmap/client"
)

// outcome is one executed op as the load generator saw it.
type outcome struct {
	index   int
	sim     bool
	lat     time.Duration       // send until body read (v1) or terminal state event (v2)
	first   time.Duration       // until the first result-bearing event (v1: the body)
	timings *client.JobTimings  // the daemon's timings event (v2 only)
	lookups int                 // result lookups: one per DSE, batch item or simulate (v2: set by verify)
	hits    int                 // lookups the server answered from its result cache
	misses  float64             // cluster workers' plan-cache misses during the op
	v1      *client.DSEResponse // kept only when asked, see execOp
	result  json.RawMessage     // v2 result event payload
	err     error
	started time.Time
}

// Category is an op's cache outcome as the server reported it.
type Category int

const (
	CatResultHit Category = iota // every result lookup hit the result cache
	CatReprice                   // a lookup missed, and the server counted no column
	CatCold                      // the server counted at least one column
	CatSimFresh                  // simulate answered by a fresh simulation
	CatSimRepeat                 // simulate answered from the result cache
	numCategories
	// CatUnknown is a v1 miss: a v1 response carries no timings, so it
	// does not tell a reprice from a cold count.
	CatUnknown Category = -1
)

var categoryNames = [numCategories]string{"result_hit", "plan_reprice", "cold_count", "sim_fresh", "sim_repeat"}

// category classifies a successful op from what the server reported:
// the results' cached flags, the job's count_seconds (a standalone
// daemon counts in-process) and, on a cluster, the workers' plan-cache
// misses (the workers count, so the coordinator's count_seconds is 0).
func (o outcome) category() Category {
	switch {
	case o.sim && o.hits == o.lookups:
		return CatSimRepeat
	case o.sim:
		return CatSimFresh
	case o.hits == o.lookups:
		return CatResultHit
	case o.timings == nil:
		return CatUnknown
	case o.timings.CountSeconds > 0 || o.misses > 0:
		return CatCold
	}
	return CatReprice
}

// countHits reads the cached flags of a v2 result: the result's own
// (DSE, simulate) or each batch item's.
func countHits(result json.RawMessage) (hits, lookups int, err error) {
	var r struct {
		Cached  *bool `json:"cached"`
		Results []struct {
			Result *struct {
				Cached bool `json:"cached"`
			} `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal(result, &r); err != nil {
		return 0, 0, err
	}
	if r.Cached != nil {
		lookups++
		if *r.Cached {
			hits++
		}
	}
	for _, item := range r.Results {
		lookups++
		if item.Result != nil && item.Result.Cached {
			hits++
		}
	}
	return hits, lookups, nil
}

// keepV1Results bounds how many v1 responses a run keeps for the
// reference check: dse-hot completes tens of thousands of ops.
const keepV1Results = 64

// execOp runs one op against the daemon through the SDK. keepV1 keeps a
// v1 response for the reference check; v2 results are always kept.
func execOp(ctx context.Context, api *client.Client, op Op, keepV1 bool) outcome {
	start := time.Now()
	o := outcome{started: start, sim: op.Sim != nil}
	if op.V1 {
		resp, err := api.DSE(ctx, *op.DSE)
		o.lat = time.Since(start)
		o.first = o.lat
		if err != nil {
			o.err = err
			return o
		}
		o.lookups = 1
		if resp.Cached {
			o.hits = 1
		}
		if keepV1 {
			o.v1 = resp
		}
		return o
	}
	job, err := api.SubmitJob(ctx, op.JobRequest())
	if err != nil {
		o.err = err
		return o
	}
	stream, err := api.Events(ctx, job.ID, 0)
	if err != nil {
		o.err = err
		return o
	}
	defer stream.Close()
	var failure string
	for {
		ev, err := stream.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("job %s: stream ended before a terminal state", job.ID)
			}
			o.err = err
			return o
		}
		switch ev.Type {
		case client.EventLayer, client.EventItem, client.EventSimLayer:
			if o.first == 0 {
				o.first = time.Since(start)
			}
		case client.EventResult:
			o.result = ev.Result
		case client.EventError:
			failure = ev.Error
		case client.EventTimings:
			o.timings = ev.Timings
		case client.EventState:
			switch string(ev.State) {
			case client.JobSucceeded:
				o.lat = time.Since(start)
				if o.first == 0 {
					// A cached result commits without per-layer events.
					o.first = o.lat
				}
				switch {
				case o.result == nil:
					o.err = fmt.Errorf("job %s succeeded without a result event", job.ID)
				case o.timings == nil:
					o.err = fmt.Errorf("job %s succeeded without a timings event", job.ID)
				}
				return o
			case client.JobFailed, client.JobCanceled:
				o.err = fmt.Errorf("job %s %s: %s", job.ID, ev.State, failure)
				return o
			}
		}
	}
}

// window is one closed-loop measurement.
type window struct {
	outcomes []outcome
	elapsed  time.Duration
}

// runClosedLoop runs w.Clients closed loops that take op indices from
// next and hand each op to do, starting ops until d has passed and
// letting the ops in flight finish. Whatever do runs after the op (the
// traced run's in-process decomposition) holds its client too.
func runClosedLoop(ctx context.Context, w *Workload, next *atomic.Int64, d time.Duration, do func(i int, op Op) outcome) window {
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				o := do(i, w.Op(i))
				o.index = i
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return window{outcomes: out, elapsed: time.Since(start)}
}

// ok returns the ops that succeeded.
func (w window) ok() []outcome {
	var out []outcome
	for _, o := range w.outcomes {
		if o.err == nil {
			out = append(out, o)
		}
	}
	return out
}

func (w window) rps() float64 { return float64(len(w.ok())) / w.elapsed.Seconds() }

// percentile interpolates the p-quantile (0..1) of xs linearly.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
