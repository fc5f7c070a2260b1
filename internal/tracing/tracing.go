// Package tracing is the Jaeger-like distributed-tracing substrate of the
// microservice testbeds (§5.1.2): spans, traces, a probabilistic sampler, a
// trace store with time-bucketed latency aggregation, and the call-graph
// extractor that derives the causal DAG a scheme like Sage consumes. The
// microsim emulator emits traces through a Collector; everything downstream
// works only with the collected store, as a real deployment would with a
// Jaeger backend.
package tracing

import (
	"fmt"
	"sort"

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

// RootService returns the entry service of the trace.
func (t *Trace) RootService() string {
	if len(t.Spans) == 0 {
		return ""
	}
	return t.Spans[0].Service
}

// Duration returns the root span's duration in microseconds.
func (t *Trace) Duration() int64 {
	if len(t.Spans) == 0 {
		return 0
	}
	return t.Spans[0].DurationUS
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

// Store collects sampled traces and serves aggregations.
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

// ServiceLatency returns per-slice mean latency (ms) of a service's spans,
// aggregated over the 10-second intervals — the Jaeger-derived service
// latency series of §5.1.2. Slices with no spans report NaN.
func (st *Store) ServiceLatency(service string, slices int) []float64 {
	sum := make([]float64, slices)
	cnt := make([]int, slices)
	for _, t := range st.traces {
		if t.Slice < 0 || t.Slice >= slices {
			continue
		}
		for _, s := range t.Spans {
			if s.Service != service {
				continue
			}
			sum[t.Slice] += float64(s.DurationUS) / 1000
			cnt[t.Slice]++
		}
	}
	out := make([]float64, slices)
	for i := range out {
		if cnt[i] == 0 {
			out[i] = nan()
		} else {
			out[i] = sum[i] / float64(cnt[i])
		}
	}
	return out
}

// LatencyPercentile returns the p-quantile of a service's span durations
// (ms) across the whole store, or NaN when the service has no spans.
func (st *Store) LatencyPercentile(service string, p float64) float64 {
	var ds []float64
	for _, t := range st.traces {
		for _, s := range t.Spans {
			if s.Service == service {
				ds = append(ds, float64(s.DurationUS)/1000)
			}
		}
	}
	if len(ds) == 0 {
		return nan()
	}
	return stats.Quantile(ds, p)
}

// CallEdge is one observed caller→callee pair with its call count.
type CallEdge struct {
	Caller, Callee string
	Count          int
}

// CallGraph extracts the service call graph from the sampled traces: the
// causal DAG Sage-style tools consume. Edges are sorted for determinism.
func (st *Store) CallGraph() []CallEdge {
	counts := map[[2]string]int{}
	for _, t := range st.traces {
		byID := make(map[SpanID]string, len(t.Spans))
		for _, s := range t.Spans {
			byID[s.ID] = s.Service
		}
		for _, s := range t.Spans {
			if s.Parent == -1 {
				continue
			}
			caller := byID[s.Parent]
			if caller == s.Service {
				continue // internal span, not an RPC
			}
			counts[[2]string{caller, s.Service}]++
		}
	}
	out := make([]CallEdge, 0, len(counts))
	for k, c := range counts {
		out = append(out, CallEdge{Caller: k[0], Callee: k[1], Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Caller != out[j].Caller {
			return out[i].Caller < out[j].Caller
		}
		return out[i].Callee < out[j].Callee
	})
	return out
}

// ErrorRate returns the fraction of a service's spans that failed, or 0
// when it has none.
func (st *Store) ErrorRate(service string) float64 {
	total, errs := 0, 0
	for _, t := range st.traces {
		for _, s := range t.Spans {
			if s.Service == service {
				total++
				if s.Error {
					errs++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(errs) / float64(total)
}

func nan() float64 { var z float64; return z / z }
