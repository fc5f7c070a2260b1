package resilience

import (
	"context"
	"errors"
	"sync"

	"murphy/internal/telemetry"
)

// SourceStats counts what the resilient wrapper absorbed, for operator
// visibility (reports and the CLI surface these).
type SourceStats struct {
	// Reads is the number of window reads requested.
	Reads int
	// Retried is the number of reads that needed at least one retry and
	// ultimately succeeded.
	Retried int
	// Failed is the number of reads that failed even after retries (or
	// were rejected by an open breaker); the core degrades these to
	// missing data.
	Failed int
	// Rejected is the number of reads that ended rejected by an open
	// breaker.
	Rejected int
}

// Source wraps a telemetry source with a retry policy and an optional
// circuit breaker: transient read faults are absorbed by backoff-retries;
// persistent failure opens the breaker so a sick source gets a cooldown
// instead of retry pressure.
type Source struct {
	inner   telemetry.Source
	retry   Policy
	breaker *Breaker

	// hook, when set, observes every completed read: retried is true for
	// reads that needed at least one retry and succeeded, failed for reads
	// that ultimately failed.
	hook func(retried, failed bool)

	mu    sync.Mutex
	stats SourceStats
}

// SetHook installs a per-read outcome observer. The hook runs inline with
// ReadRawWindow and must be fast and safe for concurrent use; set it before
// the source is shared between goroutines.
func (s *Source) SetHook(fn func(retried, failed bool)) { s.hook = fn }

// NewSource builds a resilient view over inner. breaker may be nil (retry
// only).
func NewSource(inner telemetry.Source, retry Policy, breaker *Breaker) *Source {
	return &Source{inner: inner, retry: retry, breaker: breaker}
}

// Stats returns a snapshot of the absorbed-fault counters.
func (s *Source) Stats() SourceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Source) bump(f func(*SourceStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Len implements telemetry.Source.
func (s *Source) Len() int { return s.inner.Len() }

// Entities implements telemetry.Source.
func (s *Source) Entities() []telemetry.EntityID { return s.inner.Entities() }

// MetricNames implements telemetry.Source.
func (s *Source) MetricNames(id telemetry.EntityID) []string { return s.inner.MetricNames(id) }

// ReadRawWindow implements telemetry.Source: the inner read runs under the
// breaker (when configured) and the retry policy.
func (s *Source) ReadRawWindow(ctx context.Context, id telemetry.EntityID, metric string, lo, hi int) ([]float64, error) {
	s.bump(func(st *SourceStats) { st.Reads++ })
	attempts := 0
	op := func(ctx context.Context) ([]float64, error) {
		attempts++
		if s.breaker != nil {
			if err := s.breaker.Allow(); err != nil {
				return nil, err
			}
		}
		w, err := s.inner.ReadRawWindow(ctx, id, metric, lo, hi)
		if s.breaker != nil {
			s.breaker.Record(err)
		}
		return w, err
	}
	// ErrOpen is not transient, so an open breaker ends the retries at once.
	w, err := Do(ctx, s.retry, op)
	if err != nil {
		s.bump(func(st *SourceStats) {
			st.Failed++
			if errors.Is(err, ErrOpen) {
				st.Rejected++
			}
		})
		if s.hook != nil {
			s.hook(false, true)
		}
		return nil, err
	}
	if attempts > 1 {
		s.bump(func(st *SourceStats) { st.Retried++ })
	}
	if s.hook != nil {
		s.hook(attempts > 1, false)
	}
	return w, nil
}
