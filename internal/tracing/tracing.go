// Package tracing is the Jaeger-like distributed-tracing substrate of the
// microservice testbeds (§5.1.2): spans, traces, a probabilistic head
// sampler, and a store that collects the sampled traces and exports them as
// JSON. The microsim emulator emits traces into a Store, and
// `murphygen -kind traces` writes them out.
package tracing

import (
	"fmt"

	"murphy/internal/stats"
)

// SpanID identifies a span within one trace.
type SpanID int

// Span is one operation execution inside a trace.
type Span struct {
	ID SpanID
	// Parent is the caller's span ID, or -1 for the root span.
	Parent SpanID
	// Service is the service that executed the operation.
	Service string
	// StartUS and DurationUS are microseconds relative to the trace start.
	StartUS, DurationUS int64
	// Error marks a failed span.
	Error bool
}

// Trace is one end-to-end request: a tree of spans.
type Trace struct {
	// TraceID is unique within a store.
	TraceID int64
	// Slice is the 10-second collection interval the trace belongs to.
	Slice int
	// Spans holds the tree; Spans[0] is the root.
	Spans []Span
}

// Validate checks structural integrity: a single root, parents appearing
// before children, children contained within their parent's interval.
func (t *Trace) Validate() error {
	if len(t.Spans) == 0 {
		return fmt.Errorf("tracing: empty trace %d", t.TraceID)
	}
	if t.Spans[0].Parent != -1 {
		return fmt.Errorf("tracing: trace %d: first span is not a root", t.TraceID)
	}
	byID := make(map[SpanID]*Span, len(t.Spans))
	for i := range t.Spans {
		s := &t.Spans[i]
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("tracing: trace %d: duplicate span %d", t.TraceID, s.ID)
		}
		byID[s.ID] = s
		if i == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("tracing: trace %d: span %d has unseen parent %d", t.TraceID, s.ID, s.Parent)
		}
		if s.StartUS < p.StartUS || s.StartUS+s.DurationUS > p.StartUS+p.DurationUS {
			return fmt.Errorf("tracing: trace %d: span %d escapes its parent's interval", t.TraceID, s.ID)
		}
	}
	return nil
}

// Sampler decides which traces are kept. Jaeger-style probabilistic
// head sampling with a deterministic hash of the trace ID.
type Sampler struct {
	// Rate is the fraction of traces kept, in [0, 1].
	Rate float64
}

// Keep reports whether the trace with the given ID is sampled.
func (s Sampler) Keep(traceID int64) bool {
	if s.Rate >= 1 {
		return true
	}
	if s.Rate <= 0 {
		return false
	}
	// SplitMix64 finalizer as a uniform hash.
	z := stats.SplitMix64(uint64(traceID))
	return float64(z%1e6)/1e6 < s.Rate
}

// Store collects sampled traces.
type Store struct {
	sampler Sampler
	traces  []*Trace
	nextID  int64
	dropped int
}

// NewStore returns a store with the given sampling rate.
func NewStore(samplingRate float64) *Store {
	return &Store{sampler: Sampler{Rate: samplingRate}}
}

// Collect offers a trace to the store, assigning its trace ID; it returns
// whether the trace was sampled in.
func (st *Store) Collect(t *Trace) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	t.TraceID = st.nextID
	st.nextID++
	if !st.sampler.Keep(t.TraceID) {
		st.dropped++
		return false, nil
	}
	st.traces = append(st.traces, t)
	return true, nil
}

// Len returns the number of sampled traces; Dropped the number discarded.
func (st *Store) Len() int     { return len(st.traces) }
func (st *Store) Dropped() int { return st.dropped }

// Traces returns all sampled traces (shared; read-only).
func (st *Store) Traces() []*Trace { return st.traces }
