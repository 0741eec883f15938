package telemetry

// Request-scoped trace context: a trace ID minted at HTTP ingress and
// propagated — via the X-HF-Trace header across fleet hops, via a
// context.Context through the job queue and runner, and via derived
// Sessions (Session.WithTrace) into every span the SCF/Fock/DDI/MPI
// layers record — so one client request can be stitched into a single
// waterfall no matter how many replicas and layers it crossed.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// TraceHeader is the HTTP header carrying a trace ID between fleet
// replicas (forwarded submits, peer cache fetches) and from clients that
// want to supply their own correlation ID.
const TraceHeader = "X-HF-Trace"

// maxTraceIDLen bounds an externally supplied trace ID.
const maxTraceIDLen = 64

// TraceContext travels with one request through the job pipeline.
type TraceContext struct {
	TraceID string // hex trace ID ("" = untraced)
	Tid     int    // lane hint for spans recorded under this trace (worker index)
}

// traceSeq backs the collision-resistant fallback when crypto/rand is
// unavailable (it never is in practice, but minting must not fail).
var traceSeq atomic.Uint64

// NewTraceID mints a 16-hex-digit random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%015x", traceSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// SanitizeTraceID validates an externally supplied trace ID (header
// value): hex digits and dashes, bounded length. Anything else returns
// "" so the caller mints a fresh ID instead of propagating garbage into
// metric names and trace files.
func SanitizeTraceID(id string) string {
	if id == "" || len(id) > maxTraceIDLen {
		return ""
	}
	for _, c := range id {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c >= 'A' && c <= 'F', c == '-':
		default:
			return ""
		}
	}
	return id
}

// traceCtxKey is the context key for a TraceContext.
type traceCtxKey struct{}

// ContextWithTrace attaches tc to ctx.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext extracts the TraceContext from ctx (zero value and
// false when absent).
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	if ctx == nil {
		return TraceContext{}, false
	}
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}
