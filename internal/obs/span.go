// Span primitives for the in-process distributed tracer: a
// dependency-free span model (name, wall-clock start/end, parent link,
// typed attributes), context plumbing that rides the same contexts the
// trace IDs already ride, and the small composition pieces
// (SpanBuffer, TeeSpans, ForwardSpans) that let a worker record spans
// locally, ship them inside its shard response, and have the
// coordinator splice them into one cross-process tree.
//
// Everything is optional at every seam: a context without a SpanSink
// makes StartSpan/RecordSpan no-ops (nil *ActiveSpan methods are safe
// to call), so instrumented code paths cost two context lookups when
// tracing is off.
package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"
)

// SpanHeader carries the caller's span ID on cross-process hops
// (coordinator dispatch → worker shard request), so the worker's spans
// parent to the coordinator's dispatch span and the assembled tree is
// one connected graph.
const SpanHeader = "X-Drmap-Span-Id"

// NewSpanID returns a fresh 8-byte random span ID in lowercase hex,
// drawn like NewTraceID's.
func NewSpanID() string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], rand.Uint64())
	return hex.EncodeToString(b[:])
}

// ValidSpanID reports whether id is safe to adopt from the wire; span
// IDs share the trace-ID alphabet and bounds.
func ValidSpanID(id string) bool { return ValidTraceID(id) }

// Attr is one typed span attribute. Value always holds the canonical
// text rendering; Kind preserves the source type so exporters (the
// Chrome trace converter, the dashboard) can format numerics natively.
type Attr struct {
	Key   string `json:"key"`
	Kind  string `json:"kind"` // "string", "int", "float", "bool"
	Value string `json:"value"`
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Kind: "string", Value: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr {
	return Attr{Key: key, Kind: "int", Value: strconv.Itoa(value)}
}

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr {
	return Attr{Key: key, Kind: "bool", Value: strconv.FormatBool(value)}
}

// Span is one finished operation in a trace. Spans are recorded only
// when complete (End is always set), JSON round-trip exactly, and are
// self-describing enough to cross processes: a worker returns its
// spans inside the shard response and the coordinator records them
// verbatim.
//
// Root marks a span that completes its process-local view of the
// trace: the HTTP request span on a synchronous request, the job.run
// span on a detached v2 job. The SpanStore uses root completion to
// classify the trace (route/job-kind) for tail sampling.
type Span struct {
	TraceID  string    `json:"trace_id"`
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Process  string    `json:"process,omitempty"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	Attrs    []Attr    `json:"attrs,omitempty"`
	Error    string    `json:"error,omitempty"`
	Root     bool      `json:"root,omitempty"`
}

// Duration is the span's wall-clock extent.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Attr returns the value of the named attribute and whether it exists.
func (s Span) Attr(key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// sizeBytes estimates the span's resident footprint for the span
// store's byte budget. An estimate is fine: the budget bounds memory
// order-of-magnitude, not exactly.
func (s Span) sizeBytes() int64 {
	n := 112 + len(s.TraceID) + len(s.SpanID) + len(s.ParentID) +
		len(s.Name) + len(s.Process) + len(s.Error)
	for _, a := range s.Attrs {
		n += 48 + len(a.Key) + len(a.Kind) + len(a.Value)
	}
	return int64(n)
}

// SpanSink receives finished spans. The SpanStore is the usual sink;
// SpanBuffer collects spans for cross-process return, and TeeSpans
// fans one stream to both.
type SpanSink interface {
	RecordSpan(Span)
}

type (
	spanSinkKey    struct{}
	spanParentKey  struct{}
	spanProcessKey struct{}
)

// spanParent tracks the current parent span. boundary marks a parent
// recorded by another process (or another span store): the next span
// started under it still links to that parent ID but is a Root span
// locally, because no local span will ever close above it.
type spanParent struct {
	id       string
	boundary bool
}

// WithSpanSink attaches a span sink to ctx; spans started or recorded
// under ctx are delivered to it.
func WithSpanSink(ctx context.Context, sink SpanSink) context.Context {
	if sink == nil {
		return ctx
	}
	return context.WithValue(ctx, spanSinkKey{}, sink)
}

// SpanSinkFrom returns the context's span sink, or nil.
func SpanSinkFrom(ctx context.Context) SpanSink {
	sink, _ := ctx.Value(spanSinkKey{}).(SpanSink)
	return sink
}

// WithSpanParent adopts a parent span recorded elsewhere (a remote
// caller's dispatch span passed via SpanHeader, or a request span that
// ended before a detached job ran). Spans started under the returned
// context link to id but are local roots.
func WithSpanParent(ctx context.Context, id string) context.Context {
	if !ValidSpanID(id) {
		return ctx
	}
	return context.WithValue(ctx, spanParentKey{}, spanParent{id: id, boundary: true})
}

// SpanIDFrom returns the current span's ID - the ID new child spans
// would parent to - or "" when no span is open. Cross-process callers
// put it in SpanHeader; the job manager captures it at submit time.
func SpanIDFrom(ctx context.Context) string {
	p, _ := ctx.Value(spanParentKey{}).(spanParent)
	return p.id
}

// WithSpanProcess names the process recording spans under ctx (e.g.
// "drmap-serve", "worker/w1"); StartSpan and RecordSpan stamp it on
// every span so the assembled tree shows which process ran what.
func WithSpanProcess(ctx context.Context, name string) context.Context {
	if name == "" {
		return ctx
	}
	return context.WithValue(ctx, spanProcessKey{}, name)
}

// SpanProcessFrom returns the context's process name, or "".
func SpanProcessFrom(ctx context.Context) string {
	name, _ := ctx.Value(spanProcessKey{}).(string)
	return name
}

// ActiveSpan is an in-flight span returned by StartSpan. All methods
// are safe on a nil receiver, so call sites never branch on whether
// tracing is enabled.
type ActiveSpan struct {
	mu   sync.Mutex
	sink SpanSink
	span Span
	done bool
}

// ID returns the span's ID ("" on a nil/no-op span).
func (a *ActiveSpan) ID() string {
	if a == nil {
		return ""
	}
	return a.span.SpanID
}

// SetAttr appends attributes to the span.
func (a *ActiveSpan) SetAttr(attrs ...Attr) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.span.Attrs = append(a.span.Attrs, attrs...)
	a.mu.Unlock()
}

// Fail marks the span failed with err's message.
func (a *ActiveSpan) Fail(err error) {
	if a == nil || err == nil {
		return
	}
	a.mu.Lock()
	a.span.Error = err.Error()
	a.mu.Unlock()
}

// End completes the span and delivers it to the sink. Extra calls are
// no-ops, so deferred Ends compose with explicit early Ends.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return
	}
	a.done = true
	a.span.End = time.Now()
	span := a.span
	sink := a.sink
	a.mu.Unlock()
	sink.RecordSpan(span)
}

// StartSpan opens a span under ctx's current parent and returns a
// context in which the new span is the parent. Without a sink or a
// trace ID on ctx it returns (ctx, nil) - and the nil handle's
// methods are all no-ops.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *ActiveSpan) {
	sink := SpanSinkFrom(ctx)
	trace := TraceFrom(ctx)
	if sink == nil || trace == "" {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanParentKey{}).(spanParent)
	a := &ActiveSpan{
		sink: sink,
		span: Span{
			TraceID:  trace,
			SpanID:   NewSpanID(),
			ParentID: parent.id,
			Name:     name,
			Process:  SpanProcessFrom(ctx),
			Start:    time.Now(),
			Attrs:    attrs,
			Root:     parent.id == "" || parent.boundary,
		},
	}
	ctx = context.WithValue(ctx, spanParentKey{}, spanParent{id: a.span.SpanID})
	return ctx, a
}

// RecordSpan records an already-finished interval (a retroactive span:
// queue wait, a merge that was timed anyway) as a child of ctx's
// current span. Without a sink or trace ID it is a no-op.
func RecordSpan(ctx context.Context, name string, start, end time.Time, attrs ...Attr) {
	sink := SpanSinkFrom(ctx)
	trace := TraceFrom(ctx)
	if sink == nil || trace == "" {
		return
	}
	parent, _ := ctx.Value(spanParentKey{}).(spanParent)
	sink.RecordSpan(Span{
		TraceID:  trace,
		SpanID:   NewSpanID(),
		ParentID: parent.id,
		Name:     name,
		Process:  SpanProcessFrom(ctx),
		Start:    start,
		End:      end,
		Attrs:    attrs,
	})
}

// ForwardSpans records spans produced by another process (a worker's
// shard response) into ctx's sink. Forwarded spans keep their IDs and
// parents - that is what stitches the cross-process tree together -
// but lose Root: only this process's own root spans may complete the
// trace, and a missing trace ID is filled from ctx.
func ForwardSpans(ctx context.Context, spans []Span) {
	sink := SpanSinkFrom(ctx)
	if sink == nil || len(spans) == 0 {
		return
	}
	trace := TraceFrom(ctx)
	for _, s := range spans {
		if s.SpanID == "" {
			continue
		}
		if s.TraceID == "" {
			s.TraceID = trace
		}
		s.Root = false
		sink.RecordSpan(s)
	}
}

// SpanBuffer is a bounded in-memory SpanSink: workers collect the
// spans of one shard evaluation here and return them in the shard
// response. Overflow drops the newest spans and counts them.
type SpanBuffer struct {
	mu      sync.Mutex
	max     int
	spans   []Span
	dropped int
}

// NewSpanBuffer returns a buffer keeping at most max spans (max <= 0
// means DefaultSpanBufferCap).
func NewSpanBuffer(max int) *SpanBuffer {
	if max <= 0 {
		max = DefaultSpanBufferCap
	}
	return &SpanBuffer{max: max}
}

// DefaultSpanBufferCap bounds a shard response's span payload.
const DefaultSpanBufferCap = 256

// RecordSpan implements SpanSink.
func (b *SpanBuffer) RecordSpan(s Span) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.spans) >= b.max {
		b.dropped++
		return
	}
	b.spans = append(b.spans, s)
}

// Spans returns the buffered spans (the internal slice; callers own
// the buffer lifecycle and stop recording before reading).
func (b *SpanBuffer) Spans() []Span {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spans
}

// Dropped returns how many spans overflowed the buffer.
func (b *SpanBuffer) Dropped() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// teeSink fans RecordSpan to several sinks.
type teeSink struct{ sinks []SpanSink }

func (t teeSink) RecordSpan(s Span) {
	for _, sink := range t.sinks {
		sink.RecordSpan(s)
	}
}

// TeeSpans composes sinks: every recorded span goes to all of them.
// Nil sinks are skipped; zero live sinks yields nil (tracing off), one
// yields that sink unwrapped.
func TeeSpans(sinks ...SpanSink) SpanSink {
	live := make([]SpanSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return teeSink{sinks: live}
}
