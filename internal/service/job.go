package service

import (
	"container/heap"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/obs"
	"drmap/internal/report"
)

// JobKind names a workload the v2 job API can run asynchronously.
type JobKind string

// The job kinds. Each resolves its payload with the parse of the
// corresponding synchronous entry point and runs it through the same
// caches, cluster runner and counters (see jobKinds).
const (
	JobDSE          JobKind = "dse"
	JobBatch        JobKind = "batch"
	JobCharacterize JobKind = "characterize"
	JobSweep        JobKind = "sweep"
	JobSimulate     JobKind = "simulate"
)

// JobState is a job's lifecycle state. The machine is linear:
// pending -> running -> succeeded | failed | canceled.
type JobState string

// The job states.
const (
	JobPending   JobState = "pending"
	JobRunning   JobState = "running"
	JobSucceeded JobState = "succeeded"
	JobFailed    JobState = "failed"
	JobCanceled  JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobSucceeded || s == JobFailed || s == JobCanceled
}

// JobRequest is the POST /api/v2/jobs body: a kind plus exactly the
// matching payload. The payloads are the v1 request shapes, so any v1
// request converts to a job by wrapping it.
type JobRequest struct {
	Kind         string               `json:"kind"`
	DSE          *DSERequest          `json:"dse,omitempty"`
	Batch        *BatchRequest        `json:"batch,omitempty"`
	Characterize *CharacterizeRequest `json:"characterize,omitempty"`
	Sweep        *SweepRequest        `json:"sweep,omitempty"`
	Simulate     *SimulateRequest     `json:"simulate,omitempty"`
}

// JobProgress counts a job's completed work. Columns count (layer,
// schedule) grid columns across every fresh evaluation the job ran
// (cached results contribute none - the job then completes with the
// result alone); items count batch entries.
type JobProgress struct {
	ColumnsDone  int `json:"columns_done"`
	ColumnsTotal int `json:"columns_total"`
	LayersDone   int `json:"layers_done,omitempty"`
	ItemsDone    int `json:"items_done,omitempty"`
	ItemsTotal   int `json:"items_total,omitempty"`
}

// JobTimings breaks a job's wall-clock down: where the time between
// submit and finish actually went. Queue wait and run duration cover
// every job; the phase fields accumulate the executor's recorded
// phases - count vs price for the evaluation itself (core/phase.go),
// shard dispatch/merge when a cluster coordinator ran the job. Cached
// results report near-zero phase time: nothing was evaluated.
type JobTimings struct {
	QueueSeconds         float64 `json:"queue_seconds"`
	RunSeconds           float64 `json:"run_seconds,omitempty"`
	CountSeconds         float64 `json:"count_seconds,omitempty"`
	PriceSeconds         float64 `json:"price_seconds,omitempty"`
	ShardDispatchSeconds float64 `json:"shard_dispatch_seconds,omitempty"`
	ShardMergeSeconds    float64 `json:"shard_merge_seconds,omitempty"`
}

// JobView is a job as the API reports it. Result is set only on
// GET /api/v2/jobs/{id} once the job holds one (a succeeded job always
// does; a canceled batch keeps the items that finished before the
// cancel); the list endpoint omits it.
type JobView struct {
	ID         string      `json:"id"`
	Kind       JobKind     `json:"kind"`
	State      JobState    `json:"state"`
	CreatedAt  time.Time   `json:"created_at"`
	StartedAt  time.Time   `json:"started_at,omitzero"`
	FinishedAt time.Time   `json:"finished_at,omitzero"`
	Progress   JobProgress `json:"progress"`
	// TraceID correlates the job with the submitting request, the
	// coordinator's shard dispatches and the workers' logs/metrics.
	TraceID string `json:"trace_id"`
	// Trace summarizes the job's recorded span tree (span count,
	// duration, error flag) while the trace store still retains it;
	// the full tree is GET /api/v1/traces/{trace_id}.
	Trace *obs.TraceSummary `json:"trace,omitempty"`
	// Timings is the job's timing breakdown, present once it started
	// (run/phase fields fill in as the job progresses and finishes).
	Timings *JobTimings `json:"timings,omitempty"`
	// Events is how many event sequence numbers the job has issued;
	// pass it as ?from= to GET /jobs/{id}/events to receive only events
	// newer than this view (from=0 replays the whole log).
	Events int             `json:"events"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Job event types, in the order a consumer can expect them: a state
// event per transition, progress/layer/item events while running, then
// result and/or error, a timings event with the finished job's timing
// breakdown and trace ID, and finally the terminal state event that
// ends the stream.
const (
	EventState    = "state"
	EventProgress = "progress"
	EventLayer    = "layer"
	EventSimLayer = "sim_layer"
	EventItem     = "item"
	EventResult   = "result"
	EventError    = "error"
	EventTimings  = "timings"
)

// JobEvent is one entry of a job's event log, streamed by
// GET /api/v2/jobs/{id}/events as NDJSON (or SSE) and replayable from
// any sequence number. Consecutive progress events coalesce in the log
// (each carries the full snapshot, so dropping intermediates loses
// nothing); sequence numbers stay strictly increasing but may skip.
type JobEvent struct {
	Seq   int      `json:"seq"`
	Type  string   `json:"type"`
	State JobState `json:"state,omitempty"`

	// Progress snapshot (type "progress"). done/total/items_done/
	// items_total serialize even at zero - non-Go consumers rely on
	// the documented fields being present, and 0 is a legitimate value
	// (the first snapshot after an announcement has done=0).
	Done       int `json:"done"`
	Total      int `json:"total"`
	ItemsDone  int `json:"items_done"`
	ItemsTotal int `json:"items_total"`

	// Index locates a layer (type "layer"/"sim_layer") or batch item
	// (type "item"); always serialized - index 0 is the first
	// layer/item.
	Index    int                  `json:"index"`
	Layer    *report.DSELayerJSON `json:"layer,omitempty"`
	SimLayer *SimulateLayerJSON   `json:"sim_layer,omitempty"`
	Item     *BatchItem           `json:"item,omitempty"`

	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`

	// Timing breakdown and trace ID (type "timings", the event before
	// the terminal state event).
	TraceID string      `json:"trace_id,omitempty"`
	Timings *JobTimings `json:"timings,omitempty"`
}

// Job store errors the HTTP layer maps onto statuses.
var (
	// ErrJobNotFound marks an unknown (or TTL-evicted) job ID -> 404.
	ErrJobNotFound = errors.New("service: job not found")
	// ErrJobFinished marks a cancel of an already-terminal job -> 409.
	ErrJobFinished = errors.New("service: job already finished")
	// ErrJobStoreFull marks a submit rejected because every stored job
	// is still active -> 503 (retry later).
	ErrJobStoreFull = errors.New("service: job store full")
)

// JobManagerOptions tune a JobManager.
type JobManagerOptions struct {
	// MaxJobs bounds the store; <= 0 means DefaultMaxJobs. Terminal
	// jobs evict (oldest first) to admit new ones; a store of only
	// active jobs rejects submits with ErrJobStoreFull.
	MaxJobs int
	// TTL is how long a terminal job (and its result and event log)
	// stays retrievable; <= 0 means DefaultJobTTL.
	TTL time.Duration
	// MaxEvents caps one job's event log; <= 0 means DefaultMaxEvents.
	// Progress events coalesce, so the cap only bites on degenerate
	// workloads; past it, non-terminal events are dropped.
	MaxEvents int
	// Now is the eviction clock; nil means time.Now (injectable so TTL
	// behavior is testable without sleeping).
	Now func() time.Time
}

// Job store defaults.
const (
	DefaultMaxJobs   = 1024
	DefaultJobTTL    = 15 * time.Minute
	DefaultMaxEvents = 4096
)

// JobManager owns the v2 job lifecycle: it resolves and admits jobs,
// runs each resolved input on the owning Service on a detached
// goroutine (so results survive client disconnects), threads
// progress sinks into the evaluation context, records a replayable
// event log per job, and evicts terminal jobs by TTL and store bound.
// The v1 endpoints are thin synchronous wrappers over it (the Sync
// methods); their jobs are ephemeral - listed while running, dropped
// from the store the moment the waiting handler reads the outcome. It
// is safe for concurrent use.
type JobManager struct {
	svc       *Service
	maxJobs   int
	ttl       time.Duration
	maxEvents int
	now       func() time.Time

	// Job lifecycle instruments on the service registry: store gauges
	// following every state transition, admission and eviction counts,
	// and queue-wait / run-duration histograms labeled by kind.
	states       *obs.GaugeVec
	active       *obs.Gauge
	stored       *obs.Gauge
	submitted    *obs.Counter
	evicted      *obs.Counter
	queueSeconds *obs.HistogramVec
	runSeconds   *obs.HistogramVec

	mu   sync.Mutex
	jobs map[string]*job
	// order lists the stored jobs by submission, for the listing.
	order *list.List
	// finished lists the terminal jobs by finish time, earliest first:
	// the TTL sweep pops its front while that job is past the TTL.
	finished *list.List
	// terminal holds the terminal non-ephemeral jobs by submission: its
	// root is the job a full store evicts. With the two, a submit
	// touches only the jobs it evicts.
	terminal jobHeap
	// persistent counts the non-ephemeral (v2-submitted) entries: the
	// only ones the MaxJobs retention bound is about. Ephemeral v1
	// sync jobs pass through the store but neither consume capacity
	// nor get rejected by it - the two surfaces cannot starve each
	// other.
	persistent int
	nextID     int64
}

// NewJobManager builds a JobManager around a Service.
func NewJobManager(s *Service, opt JobManagerOptions) *JobManager {
	if opt.MaxJobs <= 0 {
		opt.MaxJobs = DefaultMaxJobs
	}
	if opt.TTL <= 0 {
		opt.TTL = DefaultJobTTL
	}
	if opt.MaxEvents <= 0 {
		opt.MaxEvents = DefaultMaxEvents
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	r := s.Registry()
	m := &JobManager{
		svc:       s,
		maxJobs:   opt.MaxJobs,
		ttl:       opt.TTL,
		maxEvents: opt.MaxEvents,
		now:       opt.Now,
		jobs:      make(map[string]*job),
		order:     list.New(),
		finished:  list.New(),
		states: r.Gauge("drmap_jobs_state",
			"Jobs resident in the store by lifecycle state.", "state"),
		active: r.Gauge("drmap_jobs_active", "Stored jobs not yet terminal.").With(),
		stored: r.Gauge("drmap_jobs_stored",
			"Jobs resident in the store (active plus retained terminal).").With(),
		submitted: r.Counter("drmap_jobs_submitted_total",
			"Jobs admitted by the job store (v2 submits and v1 sync wrappers).").With(),
		evicted: r.Counter("drmap_jobs_evicted_total",
			"Jobs evicted from the job store (TTL or capacity).").With(),
		queueSeconds: r.Histogram("drmap_job_queue_seconds",
			"Wall-clock between a job's submission and its executor starting, by kind.",
			nil, "kind"),
		runSeconds: r.Histogram("drmap_job_run_seconds",
			"Wall-clock between a job's executor starting and finishing, by kind.",
			nil, "kind"),
	}
	// Pre-touch every state's child so all five series always render
	// (a scrape before the first submit still shows the full vocabulary).
	for _, st := range []JobState{JobPending, JobRunning, JobSucceeded, JobFailed, JobCanceled} {
		m.states.With(string(st))
	}
	return m
}

// track moves one job into (delta 1) or out of (delta -1) state on the
// store gauges.
func (m *JobManager) track(state JobState, delta float64) {
	m.states.With(string(state)).Add(delta)
	if !state.Terminal() {
		m.active.Add(delta)
	}
}

// job is the store-side state of one submitted job.
type job struct {
	id   string
	kind JobKind
	jobRun
	created time.Time
	trace   string // trace ID: the submitting request's, or fresh
	// parentSpan is the submitting request's span ID; the job's
	// queue/run spans link under it so a v2 trace stays one tree even
	// though the request span ends before the detached job runs.
	parentSpan string
	cancel     context.CancelFunc
	done       chan struct{}
	// ephemeral marks a v1 synchronous wrapper's job: visible while
	// running (so /api/v2/jobs shows v1 load), but its result is never
	// marshaled into the event log and the job leaves the store the
	// moment the waiting handler has read the outcome - sustained v1
	// traffic must not pin response payloads for the job TTL.
	ephemeral bool
	// The job's places in the manager's eviction index, guarded by the
	// manager's mu: its submission number, its elements in order and
	// (once terminal) finished, and its index in terminal (-1 if not
	// there).
	seq        int64
	orderEl    *list.Element
	finishedEl *list.Element
	heapIdx    int

	mu              sync.Mutex
	state           JobState
	started         time.Time
	finished        time.Time
	cancelRequested bool
	result          any
	rawResult       json.RawMessage
	err             error
	progress        JobProgress
	phases          map[string]time.Duration // accumulated executor phase time
	events          []JobEvent
	nextSeq         int
	maxEvents       int
	changed         chan struct{} // closed and replaced on every append
}

// timingsLocked assembles the job's timing breakdown; callers hold
// j.mu. Nil until the job has started (there is nothing to break down).
func (j *job) timingsLocked() *JobTimings {
	if j.started.IsZero() {
		return nil
	}
	t := &JobTimings{QueueSeconds: j.started.Sub(j.created).Seconds()}
	if !j.finished.IsZero() {
		t.RunSeconds = j.finished.Sub(j.started).Seconds()
	}
	t.CountSeconds = j.phases[core.PhaseCount].Seconds()
	t.PriceSeconds = j.phases[core.PhasePrice].Seconds()
	t.ShardDispatchSeconds = j.phases[core.PhaseShardDispatch].Seconds()
	t.ShardMergeSeconds = j.phases[core.PhaseShardMerge].Seconds()
	return t
}

// notifyLocked wakes event-stream readers; callers hold j.mu.
func (j *job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// appendLocked commits one event; callers hold j.mu. Consecutive
// progress events coalesce: the newer snapshot replaces the older one
// under a fresh sequence number.
func (j *job) appendLocked(e JobEvent) {
	e.Seq = j.nextSeq
	j.nextSeq++
	if n := len(j.events); n > 0 && e.Type == EventProgress && j.events[n-1].Type == EventProgress {
		j.events[n-1] = e
	} else if len(j.events) >= j.maxEvents && e.Type != EventResult && e.Type != EventError && e.Type != EventState && e.Type != EventTimings {
		// Shed load without losing the terminal events a reconnecting
		// client needs.
	} else {
		j.events = append(j.events, e)
	}
	j.notifyLocked()
}

// setState transitions the job and logs the state event.
func (j *job) setState(s JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = s
	j.appendLocked(JobEvent{Type: EventState, State: s})
}

// eventsSince returns the committed events with Seq >= from, the
// channel that closes on the next append, and whether the job is
// terminal (after which no more events can appear). One lock acquires
// all three, so a reader that drains the returned events and sees
// terminal has seen the whole log.
func (j *job) eventsSince(from int) ([]JobEvent, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []JobEvent
	for _, e := range j.events {
		if e.Seq >= from {
			out = append(out, e)
		}
	}
	return out, j.changed, j.state.Terminal()
}

// view snapshots the job. withResult attaches the (already-encoded)
// result payload.
func (j *job) view(withResult bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:         j.id,
		Kind:       j.kind,
		State:      j.state,
		CreatedAt:  j.created,
		StartedAt:  j.started,
		FinishedAt: j.finished,
		Progress:   j.progress,
		TraceID:    j.trace,
		Timings:    j.timingsLocked(),
		Events:     j.nextSeq,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if withResult {
		v.Result = j.rawResult
	}
	return v
}

// jobSink adapts a job into the executor-side progress interfaces: it
// implements core.Progress for column/layer events and the batch item
// hook. A batch job aggregates the column counts of all its items but
// suppresses layer events (they cannot be attributed to an item).
type jobSink struct{ j *job }

// A canceled job's evaluation completes detached (so it can be cached)
// and keeps reporting; once the job is terminal those reports must not
// reach the log - the terminal state event is documented to end every
// stream, and a replay must never see events past it. Each sink method
// therefore drops its update when the job is already terminal (checked
// under the same lock finish() transitions under).

func (s *jobSink) StartColumns(total int) {
	j := s.j
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.progress.ColumnsTotal += total
	s.progressLocked()
}

func (s *jobSink) ColumnsDone(delta int) {
	j := s.j
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.progress.ColumnsDone += delta
	s.progressLocked()
}

func (s *jobSink) LayerDone(index, layers int, lr core.LayerResult) {
	j := s.j
	if !j.layers {
		return
	}
	enc := report.DSELayerToJSON(lr, j.timing)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.progress.LayersDone++
	j.appendLocked(JobEvent{Type: EventLayer, Index: index, Layer: &enc})
}

// simLayerDone logs one finished simulated layer - the simulate
// counterpart of LayerDone, fed through the core.SimLayerSink hook.
// It may fire from an engine goroutine (parallel driver) or a cluster
// merge; the job lock serializes it.
func (s *jobSink) simLayerDone(lr core.SimLayerResult, total int) {
	j := s.j
	enc := simLayerToJSON(lr, j.timing)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.progress.LayersDone++
	j.appendLocked(JobEvent{Type: EventSimLayer, Index: lr.Index, SimLayer: &enc})
}

func (s *jobSink) StartItems(total int) {
	j := s.j
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.progress.ItemsTotal = total
	s.progressLocked()
}

func (s *jobSink) ItemDone(item BatchItem) {
	j := s.j
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.progress.ItemsDone++
	it := item
	j.appendLocked(JobEvent{Type: EventItem, Index: item.Index, Item: &it})
}

// RecordPhase accumulates executor phase time (count/price per column,
// shard dispatch/merge per cluster run) into the job's breakdown -
// jobSink implements core.PhaseRecorder alongside core.Progress.
func (s *jobSink) RecordPhase(phase string, d time.Duration) {
	j := s.j
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	if j.phases == nil {
		j.phases = make(map[string]time.Duration)
	}
	j.phases[phase] += d
}

// progressLocked logs a coalescing progress snapshot; callers hold j.mu.
func (s *jobSink) progressLocked() {
	p := s.j.progress
	s.j.appendLocked(JobEvent{
		Type: EventProgress,
		Done: p.ColumnsDone, Total: p.ColumnsTotal,
		ItemsDone: p.ItemsDone, ItemsTotal: p.ItemsTotal,
	})
}

// Submit validates and admits one asynchronous job, returning its view
// immediately. The job runs detached from the request context - only
// Cancel (DELETE /api/v2/jobs/{id}) stops it, so a submitting client
// may disconnect and collect the result later - but inherits ctx's
// trace ID (generating one when absent), so the job's shards, logs and
// events stay correlatable with the request that submitted it.
func (m *JobManager) Submit(ctx context.Context, req JobRequest) (JobView, error) {
	j, jctx, err := m.submit(context.Background(), obs.TraceFrom(ctx), obs.SpanIDFrom(ctx), req, false)
	if err != nil {
		return JobView{}, err
	}
	go m.run(jctx, j)
	return j.view(false), nil
}

// submit resolves req and admits the job, returning it with the
// context its executor must run under: one derived from parent
// (context.Background for detached v2 jobs; the request context for v1
// sync wrappers, so a v1 client's deadline or disconnect cancels its
// job exactly as it canceled the pre-job handlers). The caller runs it
// (m.run). trace is the submitting request's trace ID; empty or
// invalid generates a fresh one. parentSpan is the submitting
// request's span ID ("" when the request was untraced). ephemeral
// marks a sync wrapper's job (see the job field).
func (m *JobManager) submit(parent context.Context, trace, parentSpan string, req JobRequest, ephemeral bool) (*job, context.Context, error) {
	run, err := m.resolve(req)
	if err != nil {
		return nil, nil, err
	}
	now := m.now()

	m.mu.Lock()
	// The capacity machinery guards v2 retention, not execution:
	// ephemeral (v1 sync) jobs self-drop as soon as they are answered
	// and are already bounded by in-flight HTTP requests, so they
	// neither make room (evicting a terminal v2 job before its TTL)
	// nor count against the bound, nor get rejected by it - v1 traffic
	// always ran before the job manager existed.
	m.evictLocked(now, !ephemeral)
	if !ephemeral && m.persistent >= m.maxJobs {
		m.mu.Unlock()
		return nil, nil, fmt.Errorf("%w (%d active jobs); retry later", ErrJobStoreFull, m.maxJobs)
	}
	m.nextID++
	id := "job-" + strconv.FormatInt(m.nextID, 10)
	if !obs.ValidTraceID(trace) {
		trace = obs.NewTraceID()
	}
	ctx, cancel := context.WithCancel(parent)
	j := &job{
		id: id, kind: JobKind(req.Kind), jobRun: run, created: now,
		trace: trace, parentSpan: parentSpan,
		cancel: cancel, done: make(chan struct{}), ephemeral: ephemeral,
		seq: m.nextID, heapIdx: -1,
		state: JobPending, maxEvents: m.maxEvents,
		changed: make(chan struct{}),
	}
	m.jobs[id] = j
	j.orderEl = m.order.PushBack(j)
	if !ephemeral {
		m.persistent++
	}
	m.mu.Unlock()
	m.submitted.Inc()
	m.stored.Add(1)
	m.track(JobPending, 1)
	return j, ctx, nil
}

// run executes one job's resolved input with the job's progress sink,
// phase recorder and trace ID attached to the context.
func (m *JobManager) run(ctx context.Context, j *job) {
	defer j.cancel() // release the context's resources whatever happens
	j.mu.Lock()
	j.started = m.now()
	queued := j.started.Sub(j.created)
	j.mu.Unlock()
	j.setState(JobRunning)
	m.track(JobPending, -1)
	m.track(JobRunning, 1)
	m.queueSeconds.With(string(j.kind)).Observe(queued.Seconds())

	sink := &jobSink{j: j}
	ctx = core.WithProgress(ctx, sink)
	ctx = core.WithPhases(ctx, sink)
	ctx = obs.WithTrace(ctx, j.trace)

	// Tracing: the queue wait becomes a retroactive span, and the whole
	// execution runs under a "job.run" span. Both link beneath the
	// submitting request's span (a boundary parent: it may already have
	// ended for detached v2 jobs), making job.run this process's root
	// span for the job and carrying the kind the trace store samples by.
	var runSpan *obs.ActiveSpan
	if st := m.svc.Spans(); st != nil {
		ctx = obs.WithSpanSink(ctx, st)
		ctx = obs.WithSpanProcess(ctx, st.Process())
		if j.parentSpan != "" {
			ctx = obs.WithSpanParent(ctx, j.parentSpan)
		}
		obs.RecordSpan(ctx, "job.queue", j.created, j.started,
			obs.Str("job", j.id), obs.Str("kind", string(j.kind)))
		ctx, runSpan = obs.StartSpan(ctx, "job.run",
			obs.Str("job", j.id), obs.Str("kind", string(j.kind)))
	}

	result, err := j.exec(ctx, sink)
	if err != nil {
		runSpan.Fail(err)
	}
	runSpan.End()
	m.finish(j, result, err)
}

// finish commits a job's outcome: the result and/or error events, the
// timings event carrying the trace ID and timing breakdown, then the
// terminal state event that ends every event stream.
func (m *JobManager) finish(j *job, result any, err error) {
	var raw json.RawMessage
	// An ephemeral (v1 sync) job's result goes straight to its waiting
	// handler; marshaling it into the event log would double both the
	// encode work and the retained bytes for nothing.
	if result != nil && !j.ephemeral {
		b, mErr := json.Marshal(result)
		if mErr != nil && err == nil {
			result, err = nil, &internalError{err: fmt.Errorf("service: encode job result: %w", mErr)}
		} else {
			raw = b
		}
	}

	// The job turns terminal and joins the eviction index in one step
	// under m.mu, so a submit that sees it terminal can also evict it.
	m.mu.Lock()
	j.mu.Lock()
	j.finished = m.now()
	j.result, j.rawResult = result, raw
	j.err = err
	state := JobSucceeded
	switch {
	case err == nil && j.cancelRequested:
		// A canceled batch returns its partial results with a nil
		// error; the job is canceled but keeps the finished items.
		state = JobCanceled
	case err == nil:
	case errors.Is(err, context.Canceled):
		state = JobCanceled
	default:
		state = JobFailed
	}
	if raw != nil {
		j.appendLocked(JobEvent{Type: EventResult, Result: raw})
	}
	if err != nil {
		j.appendLocked(JobEvent{Type: EventError, Error: err.Error()})
	}
	if t := j.timingsLocked(); t != nil {
		j.appendLocked(JobEvent{Type: EventTimings, TraceID: j.trace, Timings: t})
	}
	j.state = state
	j.appendLocked(JobEvent{Type: EventState, State: state})
	ran := j.finished.Sub(j.started)
	j.mu.Unlock()
	if j.orderEl != nil {
		j.finishedEl = m.finished.PushBack(j)
		if !j.ephemeral {
			heap.Push(&m.terminal, j)
		}
	}
	m.mu.Unlock()
	m.track(JobRunning, -1)
	m.track(state, 1)
	m.runSeconds.With(string(j.kind)).Observe(ran.Seconds())
	close(j.done)
}

// evictLocked drops terminal jobs past the TTL, then - when makeRoom
// is set and the store is still full - the earliest-submitted terminal
// non-ephemeral jobs; callers hold m.mu. Ephemeral submits pass
// makeRoom=false: they take no retention, so they must not cost a v2
// job its TTL window. Jobs join finished in finish-time order, so the
// TTL sweep stops at the first job still inside the TTL.
func (m *JobManager) evictLocked(now time.Time, makeRoom bool) {
	for el := m.finished.Front(); el != nil; el = m.finished.Front() {
		j := el.Value.(*job)
		if now.Sub(j.finished) <= m.ttl {
			break
		}
		m.removeLocked(j)
		m.evicted.Inc()
	}
	for makeRoom && m.persistent >= m.maxJobs && len(m.terminal) > 0 {
		m.removeLocked(m.terminal[0])
		m.evicted.Inc()
	}
}

// removeLocked removes one store entry, unlinks it from the eviction
// index and keeps the persistent count and store gauges in step;
// callers hold m.mu.
func (m *JobManager) removeLocked(j *job) {
	delete(m.jobs, j.id)
	if !j.ephemeral {
		m.persistent--
	}
	m.order.Remove(j.orderEl)
	j.orderEl = nil
	if j.finishedEl != nil {
		m.finished.Remove(j.finishedEl)
		j.finishedEl = nil
	}
	if j.heapIdx >= 0 {
		heap.Remove(&m.terminal, j.heapIdx)
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	m.track(state, -1)
	m.stored.Add(-1)
}

// jobHeap is a min-heap of jobs by submission number that keeps each
// job's heapIdx current.
type jobHeap []*job

func (h jobHeap) Len() int           { return len(h) }
func (h jobHeap) Less(a, b int) bool { return h[a].seq < h[b].seq }
func (h jobHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].heapIdx, h[b].heapIdx = a, b
}

func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}

func (h *jobHeap) Pop() any {
	old := *h
	j := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	j.heapIdx = -1
	return j
}

// lookup returns the stored job.
func (m *JobManager) lookup(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Get returns a job's view, result included once terminal.
func (m *JobManager) Get(id string) (JobView, bool) {
	j, ok := m.lookup(id)
	if !ok {
		return JobView{}, false
	}
	v := j.view(true)
	m.attachTrace(&v)
	return v, true
}

// attachTrace links the trace store's summary of the job's trace into
// its view, when the store still retains it.
func (m *JobManager) attachTrace(v *JobView) {
	if st := m.svc.Spans(); st != nil {
		if sum, ok := st.Summary(v.TraceID); ok {
			v.Trace = &sum
		}
	}
}

// JobFilter narrows GET /api/v2/jobs.
type JobFilter struct {
	// Kind and State, when non-empty, must match exactly.
	Kind  string
	State string
	// Limit caps the listing; <= 0 means all stored jobs.
	Limit int
}

// List returns matching jobs, newest first, without result payloads.
func (m *JobManager) List(f JobFilter) []JobView {
	m.mu.Lock()
	jobs := make([]*job, 0, m.order.Len())
	for el := m.order.Back(); el != nil; el = el.Prev() { // newest first
		jobs = append(jobs, el.Value.(*job))
	}
	m.mu.Unlock()

	out := []JobView{}
	for _, j := range jobs {
		v := j.view(false)
		if f.Kind != "" && string(v.Kind) != f.Kind {
			continue
		}
		if f.State != "" && string(v.State) != f.State {
			continue
		}
		m.attachTrace(&v)
		out = append(out, v)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Cancel requests a job's cancellation via its context. The in-flight
// evaluation is detached (the service caches whatever it finishes, so
// a resubmit of the same request becomes a cache hit), but the job
// itself transitions to canceled as soon as its executor observes the
// cancel - a batch keeps the items that already completed. Canceling a
// terminal job returns ErrJobFinished.
func (m *JobManager) Cancel(id string) (JobView, error) {
	j, ok := m.lookup(id)
	if !ok {
		return JobView{}, fmt.Errorf("%w: %s", ErrJobNotFound, id)
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return JobView{}, fmt.Errorf("%w: %s is %s", ErrJobFinished, id, j.state)
	}
	j.cancelRequested = true
	j.mu.Unlock()
	j.cancel()
	return j.view(false), nil
}

// Wait blocks until the job is terminal or ctx expires, then returns
// the final view.
func (m *JobManager) Wait(ctx context.Context, id string) (JobView, error) {
	j, ok := m.lookup(id)
	if !ok {
		return JobView{}, fmt.Errorf("%w: %s", ErrJobNotFound, id)
	}
	select {
	case <-j.done:
		return j.view(true), nil
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
}

// runSync is the v1 bridge: admit a job linked to the caller's context
// and run it on the caller's goroutine. Because the job's context is
// derived from ctx, a deadline or disconnect propagates into the
// executor exactly as it did when the v1 handlers called the Service
// directly - cancellation makes the executor return promptly, which
// also preserves v1 Batch's partial-results-on-deadline contract. The
// job is stored while it runs, so the job listing still shows it.
func runSync[T any](ctx context.Context, m *JobManager, req JobRequest) (*T, error) {
	j, jctx, err := m.submit(ctx, obs.TraceFrom(ctx), obs.SpanIDFrom(ctx), req, true)
	if err != nil {
		return nil, err
	}
	// The outcome is read off the job struct directly; the store entry
	// has served its purpose (in-flight observability) and is dropped,
	// even when exec panics, so v1 traffic never accumulates jobs or
	// result payloads against the TTL.
	defer m.drop(j.id)
	m.run(jctx, j)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return nil, j.err
	}
	return j.result.(*T), nil
}

// drop removes a job from the store immediately (ephemeral sync jobs).
func (m *JobManager) drop(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return
	}
	m.removeLocked(j)
}

// SyncDSE is POST /api/v1/dse as a submit-and-wait over the job store.
func (m *JobManager) SyncDSE(ctx context.Context, req DSERequest) (*DSEResponse, error) {
	return runSync[DSEResponse](ctx, m, JobRequest{Kind: string(JobDSE), DSE: &req})
}

// SyncBatch is POST /api/v1/batch as a submit-and-wait over the job
// store.
func (m *JobManager) SyncBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	return runSync[BatchResponse](ctx, m, JobRequest{Kind: string(JobBatch), Batch: &req})
}

// SyncCharacterize is POST /api/v1/characterize as a submit-and-wait
// over the job store.
func (m *JobManager) SyncCharacterize(ctx context.Context, req CharacterizeRequest) (*CharacterizeResponse, error) {
	return runSync[CharacterizeResponse](ctx, m, JobRequest{Kind: string(JobCharacterize), Characterize: &req})
}

// SyncSweep is POST /api/v1/sweep as a submit-and-wait over the job
// store.
func (m *JobManager) SyncSweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	return runSync[SweepResponse](ctx, m, JobRequest{Kind: string(JobSweep), Sweep: &req})
}

// SyncSimulate is POST /api/v1/simulate as a submit-and-wait over the
// job store.
func (m *JobManager) SyncSimulate(ctx context.Context, req SimulateRequest) (*SimulateResponse, error) {
	return runSync[SimulateResponse](ctx, m, JobRequest{Kind: string(JobSimulate), Simulate: &req})
}

// jobRun is a resolved job: what the executor runs and how its events
// are priced.
type jobRun struct {
	// timing is the backend's clock that layer events are priced in
	// (dse and simulate jobs).
	timing dram.Timing
	// layers emits per-layer DSE events (dse jobs; a batch's layer
	// picks cannot be attributed to an item).
	layers bool
	// exec evaluates the resolved input under the job's context.
	exec func(ctx context.Context, sink *jobSink) (any, error)
}

// jobKind is one row of the job table: whether a request carries the
// kind's payload, and how that payload resolves - once, through the
// same parse the kind's Service entry point uses, so a bad submit fails
// with the entry point's own error text.
type jobKind struct {
	has     func(JobRequest) bool
	resolve func(s *Service, req JobRequest) (jobRun, error)
}

// result hides a failed run's typed-nil response from the any the
// executor records.
func result[T any](v *T, err error) (any, error) {
	if v == nil {
		return nil, err
	}
	return v, err
}

// jobKinds is the job table.
var jobKinds = map[JobKind]jobKind{
	JobDSE: {
		has: func(r JobRequest) bool { return r.DSE != nil },
		resolve: func(s *Service, r JobRequest) (jobRun, error) {
			job, err := parseDSE(*r.DSE)
			if err != nil {
				return jobRun{}, err
			}
			return jobRun{timing: job.Backend.Config.Timing, layers: true,
				exec: func(ctx context.Context, _ *jobSink) (any, error) { return result(s.dse(ctx, job)) }}, nil
		},
	},
	JobBatch: {
		has: func(r JobRequest) bool { return r.Batch != nil },
		resolve: func(s *Service, r JobRequest) (jobRun, error) {
			// Item-level inputs resolve inside the run: a bad item fails
			// alone (the batch contract), not the whole submit.
			req := *r.Batch
			if err := req.Validate(); err != nil {
				return jobRun{}, err
			}
			return jobRun{exec: func(ctx context.Context, sink *jobSink) (any, error) {
				return result(s.batch(withBatchProgress(ctx, sink), req))
			}}, nil
		},
	},
	JobCharacterize: {
		has: func(r JobRequest) bool { return r.Characterize != nil },
		resolve: func(s *Service, r JobRequest) (jobRun, error) {
			backends, err := parseCharacterize(*r.Characterize)
			if err != nil {
				return jobRun{}, err
			}
			return jobRun{exec: func(ctx context.Context, _ *jobSink) (any, error) {
				return result(s.characterize(ctx, backends))
			}}, nil
		},
	},
	JobSweep: {
		has: func(r JobRequest) bool { return r.Sweep != nil },
		resolve: func(s *Service, r JobRequest) (jobRun, error) {
			in, err := parseSweep(*r.Sweep)
			if err != nil {
				return jobRun{}, err
			}
			return jobRun{exec: func(ctx context.Context, _ *jobSink) (any, error) { return result(s.sweep(ctx, in)) }}, nil
		},
	},
	JobSimulate: {
		has: func(r JobRequest) bool { return r.Simulate != nil },
		resolve: func(s *Service, r JobRequest) (jobRun, error) {
			in, err := parseSimulate(*r.Simulate)
			if err != nil {
				return jobRun{}, err
			}
			return jobRun{timing: in.backend.Config.Timing, exec: func(ctx context.Context, sink *jobSink) (any, error) {
				return result(s.simulate(core.WithSimLayers(ctx, sink.simLayerDone), in))
			}}, nil
		},
	},
}

// resolve checks the request carries exactly its kind's payload and
// resolves that payload through the job table, so a bad submit fails
// with a 400 instead of a failed job.
func (m *JobManager) resolve(req JobRequest) (jobRun, error) {
	payloads := 0
	for _, k := range jobKinds {
		if k.has(req) {
			payloads++
		}
	}
	if payloads > 1 {
		return jobRun{}, fmt.Errorf("give exactly the one payload matching kind %q", req.Kind)
	}
	k, ok := jobKinds[JobKind(req.Kind)]
	if !ok {
		return jobRun{}, fmt.Errorf("unknown job kind %q (want dse, batch, characterize, sweep or simulate)", req.Kind)
	}
	if !k.has(req) {
		return jobRun{}, fmt.Errorf("kind %q needs a %q payload", req.Kind, req.Kind)
	}
	return k.resolve(m.svc, req)
}
