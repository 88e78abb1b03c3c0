package service

import (
	"context"
	"fmt"
)

// MaxBatchJobs caps one batch request; larger sweeps should page.
const MaxBatchJobs = 256

// BatchRequest fans many DSE jobs - (backend, network, objective,
// batch) combinations - through one request. Jobs share the service's
// characterization and result caches (and the cluster, when one is
// attached), so a batch over many networks on one backend characterizes
// that backend once.
type BatchRequest struct {
	Jobs []DSERequest `json:"jobs"`
}

// BatchItem is one job's outcome, in request order. Exactly one of
// Result/Error is meaningful: a failed job carries its error message
// and a nil result, and does not fail its siblings.
type BatchItem struct {
	Index  int          `json:"index"`
	Result *DSEResponse `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// BatchResponse carries the per-job outcomes plus a cache snapshot
// taken after the batch, so clients can observe sharing (hits climbing
// as identical/overlapping jobs coalesce).
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	// Completed counts jobs that produced a result.
	Completed int `json:"completed"`
	// Failed counts jobs that returned an error.
	Failed int `json:"failed"`
	// Cache is the service's cache counters after the batch.
	Cache CacheStats `json:"cache"`
}

// Validate rejects batches that cannot run as a whole; per-item inputs
// are validated by each item's own DSE path.
func (r BatchRequest) Validate() error {
	if len(r.Jobs) == 0 {
		return fmt.Errorf("batch: no jobs (give jobs: [{arch, network, ...}, ...])")
	}
	if len(r.Jobs) > MaxBatchJobs {
		return fmt.Errorf("batch: %d jobs exceeds the limit of %d", len(r.Jobs), MaxBatchJobs)
	}
	return nil
}

// batchProgress receives per-item completions as a batch makes them -
// the hook the v2 job API streams item events through. Implementations
// must be safe for concurrent use.
type batchProgress interface {
	// StartItems announces the batch size.
	StartItems(total int)
	// ItemDone delivers one finished item (result or error) the moment
	// it commits.
	ItemDone(item BatchItem)
}

type batchProgressKey struct{}

// withBatchProgress attaches a batch item sink to ctx; Batch reports
// through it when present.
func withBatchProgress(ctx context.Context, p batchProgress) context.Context {
	return context.WithValue(ctx, batchProgressKey{}, p)
}

// batchProgressFrom returns the context's batch sink, or nil.
func batchProgressFrom(ctx context.Context) batchProgress {
	p, _ := ctx.Value(batchProgressKey{}).(batchProgress)
	return p
}

// Batch evaluates every job concurrently over the worker pool. Each job
// runs through the same path as POST /api/v1/dse - validation, the
// content-addressed cache, single-flight dedup, the cluster runner when
// configured - so identical jobs inside one batch evaluate once, and a
// batch repeated later is all cache hits. Per-job failures are reported
// per item - including a deadline expiring mid-batch: the jobs that
// finished keep their results, the rest carry the context error, and
// since each started job's evaluation completes detached and is cached,
// a retry of the same batch picks up where this one stopped. Only an
// empty or oversized batch fails the request as a whole.
func (s *Service) Batch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return s.batch(ctx, req)
}

// batch runs a validated batch.
func (s *Service) batch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	items := make([]BatchItem, len(req.Jobs))
	for i := range items {
		items[i].Index = i
	}
	sink := batchProgressFrom(ctx)
	if sink != nil {
		sink.StartItems(len(req.Jobs))
	}
	err := runPool(ctx, len(req.Jobs), s.workers, func(i int) {
		resp, err := s.DSE(ctx, req.Jobs[i])
		if err != nil {
			items[i].Error = err.Error()
		} else {
			items[i].Result = resp
		}
		if sink != nil {
			sink.ItemDone(items[i])
		}
	})
	if err != nil {
		// Deadline hit mid-batch: deliver what finished instead of
		// discarding it; unstarted jobs report the context error.
		for i := range items {
			if items[i].Result == nil && items[i].Error == "" {
				items[i].Error = err.Error()
			}
		}
	}
	out := &BatchResponse{Results: items, Cache: s.CacheStats()}
	for i := range items {
		if items[i].Error != "" {
			out.Failed++
		} else {
			out.Completed++
		}
	}
	return out, nil
}
