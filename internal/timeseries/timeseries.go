// Package timeseries provides the aligned metric time series used throughout
// the Murphy reproduction. The enterprise monitoring platform the paper
// builds on collects every metric on a common grid of time slices (minutes in
// production, 10 s in the DeathStarBench emulation), so a Series here is a
// dense slice of values on that shared grid, with NaN marking missing points.
package timeseries

import "math"

// Missing is the sentinel for an absent observation.
var Missing = math.NaN()

// IsMissing reports whether v is the missing-value sentinel.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Series is a metric time series on the global slice grid. Index i is the
// observation for time slice i; the grid's wall-clock meaning (start time and
// interval) is owned by the telemetry database, not by the series itself.
type Series struct {
	vals []float64
}

// New returns an empty series.
func New() *Series { return &Series{} }

// FromValues builds a series that takes ownership of vals.
func FromValues(vals []float64) *Series { return &Series{vals: vals} }

// Len returns the number of time slices in the series.
func (s *Series) Len() int { return len(s.vals) }

// At returns the value at slice t, or Missing when t is out of range.
func (s *Series) At(t int) float64 {
	if t < 0 || t >= len(s.vals) {
		return Missing
	}
	return s.vals[t]
}

// Set assigns the value at slice t, growing the series with Missing values
// if t is beyond the current end.
func (s *Series) Set(t int, v float64) {
	if t < 0 {
		return
	}
	for len(s.vals) <= t {
		s.vals = append(s.vals, Missing)
	}
	s.vals[t] = v
}

// Values returns the underlying storage. Callers must treat it as read-only.
func (s *Series) Values() []float64 { return s.vals }

// Clone returns a deep copy.
func (s *Series) Clone() *Series {
	v := make([]float64, len(s.vals))
	copy(v, s.vals)
	return &Series{vals: v}
}

// Window returns a copy of the half-open range [lo, hi), clipped to the
// series bounds. Out-of-range requests yield an empty slice.
func (s *Series) Window(lo, hi int) []float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.vals) {
		hi = len(s.vals)
	}
	if lo >= hi {
		return nil
	}
	out := make([]float64, hi-lo)
	copy(out, s.vals[lo:hi])
	return out
}
