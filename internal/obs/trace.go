package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
)

// TraceHeader carries a request's trace ID between processes: client →
// serve, serve → coordinator dispatch → worker. Handlers echo it on
// responses so callers learn server-generated IDs.
const TraceHeader = "X-Drmap-Trace-Id"

// NewTraceID returns a fresh 16-byte random trace ID in lowercase hex.
// IDs correlate spans, logs and events; they are not credentials
// (/api/v1/traces lists them), so they come from math/rand/v2's
// per-thread generator rather than a system call per ID.
func NewTraceID() string {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], rand.Uint64())
	binary.LittleEndian.PutUint64(b[8:], rand.Uint64())
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether id is safe to propagate as-is: 8 to 32
// lowercase hex digits. Inbound IDs that are not short hex tokens are
// replaced rather than propagated, since trace IDs end up in logs,
// metrics labels, and exposition output.
func ValidTraceID(id string) bool {
	if len(id) < 8 || len(id) > 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

type traceKey struct{}

// WithTrace attaches a trace ID to ctx.
func WithTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceFrom returns the context's trace ID, or "" when none is set.
func TraceFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// EnsureTrace returns ctx carrying a trace ID and that ID: an existing
// context ID is kept, a valid candidate (e.g. an inbound header) is
// adopted, and otherwise a fresh ID is generated.
func EnsureTrace(ctx context.Context, candidate string) (context.Context, string) {
	if id := TraceFrom(ctx); id != "" {
		return ctx, id
	}
	if ValidTraceID(candidate) {
		return WithTrace(ctx, candidate), candidate
	}
	id := NewTraceID()
	return WithTrace(ctx, id), id
}
