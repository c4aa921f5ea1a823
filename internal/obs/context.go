package obs

import "context"

type traceKey struct{}
type parentKey struct{}

// WithTrace returns a context carrying the trace; spans started under it
// record into the trace. A nil trace detaches recording.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// Start begins a span named name under the trace (and parent span) carried
// by ctx, returning a derived context for child spans and the span handle.
// When ctx carries no trace it returns ctx unchanged and a nil span — the
// whole call allocates nothing, which keeps permanently instrumented hot
// paths free for callers that never attach a recorder.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	if tr == nil {
		return ctx, nil
	}
	parent := int32(-1)
	if p, ok := ctx.Value(parentKey{}).(int32); ok {
		parent = p
	}
	idx := tr.start(name, parent)
	return context.WithValue(ctx, parentKey{}, idx), &Span{tr: tr, idx: idx}
}
