// Incremental (sliding-window) statistics for the amortized training path:
// shifted running moments with an exact recenter correction, a sorted window
// for O(1) medians and O(n) MADs, and a MASE-based drift tracker. These are
// the per-series sufficient statistics the incremental trainer slides instead
// of recomputing Center/Median/MAD from scratch on every diagnosis.
package stats

import (
	"math"
	"sort"
)

// WindowMoments maintains the first two moments of a sliding window in
// shifted form: relative to an anchor Shift it keeps S1 = Σ(x−Shift) and
// S2 = Σ(x−Shift)². Keeping the sums shifted (instead of raw Σx, Σx²) is what
// makes the derived centered sum of squares
//
//	CSS = S2 − S1²/N
//
// numerically safe when the mean dwarfs the spread (a rescaled utilization
// series at mean 10⁶ and σ 1 loses ~12 digits in raw form, none in shifted
// form as long as Shift tracks the mean). Recenter applies the exact
// correction that re-anchors Shift at the current mean:
//
//	Shift' = Shift + S1/N,  S2' = S2 − S1²/N,  S1' = 0,
//
// which is algebraically identity-preserving — the same correction
// stats.Center performs in one shot when it subtracts the mean — so the
// moments never drift away from their Center-semantics meaning, no matter how
// far the window slides from its anchor.
type WindowMoments struct {
	// Shift is the anchor the sums are taken relative to.
	Shift float64
	// N is the number of points currently in the window.
	N int
	// S1 is Σ(x−Shift) over the window.
	S1 float64
	// S2 is Σ(x−Shift)² over the window.
	S2 float64
}

// Anchor resets the moments over xs with the anchor at the exact mean of xs
// (so S1 starts near zero and CSS at full precision).
func (m *WindowMoments) Anchor(xs []float64) {
	m.Shift = Mean(xs)
	m.N = len(xs)
	m.S1, m.S2 = 0, 0
	for _, x := range xs {
		d := x - m.Shift
		m.S1 += d
		m.S2 += d * d
	}
}

// Push adds one point entering the window.
func (m *WindowMoments) Push(x float64) {
	d := x - m.Shift
	m.N++
	m.S1 += d
	m.S2 += d * d
}

// Pop removes one point leaving the window. The caller must pass the exact
// value that was pushed (or anchored), so the sums stay telescoping.
func (m *WindowMoments) Pop(x float64) {
	d := x - m.Shift
	m.N--
	m.S1 -= d
	m.S2 -= d * d
}

// Mean returns the window mean, Shift + S1/N.
func (m *WindowMoments) Mean() float64 {
	if m.N == 0 {
		return 0
	}
	return m.Shift + m.S1/float64(m.N)
}

// CenteredSumSq returns Σ(x−mean)² = S2 − S1²/N, clamped at zero (the exact
// value is non-negative; rounding can push the difference a hair below).
func (m *WindowMoments) CenteredSumSq() float64 {
	if m.N == 0 {
		return 0
	}
	css := m.S2 - m.S1*m.S1/float64(m.N)
	if css < 0 {
		return 0
	}
	return css
}

// Std returns the unbiased sample standard deviation, matching
// stats.MeanStd's n−1 denominator. Fewer than two points yield 0.
func (m *WindowMoments) Std() float64 {
	if m.N < 2 {
		return 0
	}
	return math.Sqrt(m.CenteredSumSq() / float64(m.N-1))
}

// Recenter re-anchors Shift at the current mean using the exact correction
// and returns the applied delta d = S1/N (zero when the window is empty).
// Callers holding cross-term statistics taken against the old anchor must
// apply the matching closed-form correction with the pre-recenter S1 values.
func (m *WindowMoments) Recenter() float64 {
	if m.N == 0 {
		return 0
	}
	d := m.S1 / float64(m.N)
	m.S2 -= m.S1 * m.S1 / float64(m.N)
	if m.S2 < 0 {
		m.S2 = 0
	}
	m.S1 = 0
	m.Shift += d
	return d
}

// SortedWindow keeps an ascending copy of a sliding window so the robust
// per-factor statistics stay cheap as the window slides: Median is O(1),
// MAD is O(n) (a two-pointer walk instead of the sort-twice full
// computation), and each slide costs one binary-search insert plus one
// delete (an O(n) memmove each). Both Median and MAD are bit-identical to
// stats.Median / stats.MAD on the same multiset.
type SortedWindow struct {
	vals []float64
}

// NewSortedWindow builds the sorted view of xs (copied).
func NewSortedWindow(xs []float64) *SortedWindow {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &SortedWindow{vals: s}
}

// Insert adds x, keeping the ascending order.
func (w *SortedWindow) Insert(x float64) {
	i := sort.SearchFloat64s(w.vals, x)
	w.vals = append(w.vals, 0)
	copy(w.vals[i+1:], w.vals[i:])
	w.vals[i] = x
}

// Remove deletes one occurrence of x. The caller must only remove values
// previously inserted (it panics otherwise — a telescoping-invariant bug).
func (w *SortedWindow) Remove(x float64) {
	i := sort.SearchFloat64s(w.vals, x)
	if i >= len(w.vals) || w.vals[i] != x {
		panic("stats: SortedWindow.Remove of absent value")
	}
	w.vals = append(w.vals[:i], w.vals[i+1:]...)
}

// Median returns the nearest-rank sample median, bit-identical to
// stats.Median on the same values. Empty input yields NaN.
func (w *SortedWindow) Median() float64 {
	n := len(w.vals)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(0.5*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return w.vals[i]
}

// MAD returns the median absolute deviation around the median, bit-identical
// to stats.MAD on the same values, in one O(n) two-pointer walk: in the
// sorted order the deviations |x−med| form two monotone runs on either side
// of the median, so the k-th smallest deviation is found by merging outward
// from the median position. (m−x for x ≤ m equals math.Abs(x−m) exactly —
// IEEE subtraction is correctly rounded and negation exact — so the selected
// value matches the full computation bit for bit.)
func (w *SortedWindow) MAD() float64 {
	n := len(w.vals)
	if n == 0 {
		return math.NaN()
	}
	med := w.Median()
	k := int(math.Ceil(0.5*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	pm := int(math.Ceil(0.5*float64(n))) - 1
	l, r := pm, pm+1
	dev := 0.0
	for taken := 0; taken <= k; taken++ {
		dl, dr := math.Inf(1), math.Inf(1)
		if l >= 0 {
			dl = med - w.vals[l]
		}
		if r < n {
			dr = w.vals[r] - med
		}
		if dl <= dr {
			dev = dl
			l--
		} else {
			dev = dr
			r++
		}
	}
	return dev
}

// DriftTracker accumulates one-step-ahead (prediction, actual) pairs of a
// trained factor as the window slides, and scores the model's staleness as
// the MASE of those predictions against the lag-1 naive forecast error of
// the current window. A score near 1 means the stale model still predicts as
// well as a naive forecaster; a large score means the relationship between
// the target and its neighbors has changed since the model was fitted — the
// incremental trainer's cue to fall back to a full refit.
type DriftTracker struct {
	preds, actuals []float64
	head, n        int
}

// NewDriftTracker returns a tracker remembering the last cap pairs
// (cap <= 0 uses 32).
func NewDriftTracker(capacity int) *DriftTracker {
	if capacity <= 0 {
		capacity = 32
	}
	return &DriftTracker{
		preds:   make([]float64, capacity),
		actuals: make([]float64, capacity),
	}
}

// Push records one one-step-ahead prediction and the realized value.
func (d *DriftTracker) Push(pred, actual float64) {
	d.preds[d.head] = pred
	d.actuals[d.head] = actual
	d.head = (d.head + 1) % len(d.preds)
	if d.n < len(d.preds) {
		d.n++
	}
}

// Reset forgets all recorded pairs (called after a refit: the new model's
// staleness starts from scratch).
func (d *DriftTracker) Reset() { d.head, d.n = 0, 0 }

// Pairs returns copies of the recorded predictions and actuals, oldest
// first. Used for snapshot/restore of the factor store.
func (d *DriftTracker) Pairs() (preds, actuals []float64) {
	preds = make([]float64, 0, d.n)
	actuals = make([]float64, 0, d.n)
	start := d.head - d.n
	if start < 0 {
		start += len(d.preds)
	}
	for i := 0; i < d.n; i++ {
		j := (start + i) % len(d.preds)
		preds = append(preds, d.preds[j])
		actuals = append(actuals, d.actuals[j])
	}
	return preds, actuals
}

// Score returns the MASE of the recorded predictions against the naive
// forecast error of train (the current target window). It returns 0 while
// fewer than minPairs pairs are recorded (not enough evidence to trip a
// retrain) and on degenerate inputs.
func (d *DriftTracker) Score(train []float64, minPairs int) float64 {
	if minPairs < 1 {
		minPairs = 1
	}
	if d.n < minPairs {
		return 0
	}
	preds, actuals := d.Pairs()
	s, err := MASE(preds, actuals, train)
	if err != nil || math.IsNaN(s) {
		return 0
	}
	return s
}
