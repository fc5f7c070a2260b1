package stats

import "math"

// RunningMoments accumulates count, mean, and centered sum of squares of a
// sample one observation at a time (Welford's algorithm), so mean and
// unbiased variance are available at any point without storing the sample.
type RunningMoments struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the moments.
func (r *RunningMoments) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// AddAll folds a batch of observations into the moments.
func (r *RunningMoments) AddAll(xs []float64) {
	for _, x := range xs {
		r.Add(x)
	}
}

// Count returns the number of observations seen.
func (r *RunningMoments) Count() int { return r.n }

// Mean returns the running mean (0 before any observation).
func (r *RunningMoments) Mean() float64 { return r.mean }

// Variance returns the running unbiased sample variance (n-1 denominator),
// or 0 with fewer than two observations.
func (r *RunningMoments) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StreamingWelch is an incremental two-sample Welch t-test: observations are
// fed one (or a batch) at a time into either sample and the test can be
// evaluated after any prefix. It computes the same statistic as WelchTTest
// over the observations seen so far, which is what lets the inference fast
// path cut a 5000-sample Monte-Carlo budget short once the verdict for a
// candidate is already decided.
type StreamingWelch struct {
	A, B RunningMoments
}

// Test evaluates Welch's t-test on the observations accumulated so far,
// under the same semantics (including the degenerate constant-sample case)
// as the batch WelchTTest.
func (s *StreamingWelch) Test(alt Alternative) (TTestResult, error) {
	na, nb := float64(s.A.n), float64(s.B.n)
	if na < 2 || nb < 2 {
		return TTestResult{}, ErrInsufficientData
	}
	ma, mb := s.A.mean, s.B.mean
	va, vb := s.A.Variance()/na, s.B.Variance()/nb
	se := math.Sqrt(va + vb)
	if se == 0 {
		r := TTestResult{T: 0, DF: na + nb - 2, P: 1}
		switch {
		case ma == mb:
			r.P = 1
		case alt == Less && ma < mb, alt == Greater && ma > mb, alt == TwoSided:
			r.P = 0
			r.T = math.Inf(1)
			if ma < mb {
				r.T = math.Inf(-1)
			}
		}
		return r, nil
	}
	t := (ma - mb) / se
	df := (va + vb) * (va + vb) / (va*va/(na-1) + vb*vb/(nb-1))
	var p float64
	switch alt {
	case Less:
		p = StudentTCDF(t, df)
	case Greater:
		p = 1 - StudentTCDF(t, df)
	default:
		p = 2 * StudentTCDF(-math.Abs(t), df)
	}
	return TTestResult{T: t, DF: df, P: p}, nil
}

// Decisive reports whether the significance verdict at level alpha is
// already decided with zMargin standard deviations to spare: the verdict is
// decided when the Welch t statistic sits more than zMargin away from the
// critical value at alpha (on the "significant" side: decided significant;
// on the other: decided not significant). The t statistic's sampling
// standard deviation is ~1, so zMargin = Φ⁻¹(c) keeps the probability that
// further observations walk the statistic back across the critical value
// below ~1-c. A statistic within the band is still in play and needs more
// samples; zMargin <= 0 treats any verdict as decided (plain sequential
// testing, maximal early stopping).
func (s *StreamingWelch) Decisive(alt Alternative, alpha, zMargin float64) (significant, decided bool) {
	res, err := s.Test(alt)
	if err != nil {
		return false, false
	}
	if zMargin < 0 {
		zMargin = 0
	}
	// Orient so that a larger statistic is always more significant.
	stat, tail := res.T, alpha
	switch alt {
	case Less:
		stat = -res.T
	case TwoSided:
		stat = math.Abs(res.T)
		tail = alpha / 2
	}
	if math.IsInf(stat, 0) {
		return stat > 0, true // degenerate zero-variance samples
	}
	crit := StudentTUpperQuantile(tail, res.DF)
	switch {
	case stat >= crit+zMargin:
		return true, true
	case stat <= crit-zMargin:
		return false, true
	}
	return res.P <= alpha, false
}

// StudentTUpperQuantile returns the t with upper-tail probability q under a
// Student's t distribution with df degrees of freedom (i.e. the critical
// value t* with 1 - CDF(t*) = q), by bisection on StudentTCDF.
func StudentTUpperQuantile(q, df float64) float64 {
	if q <= 0 {
		return math.Inf(1)
	}
	if q >= 1 {
		return math.Inf(-1)
	}
	target := 1 - q
	lo, hi := -2.0, 2.0
	for StudentTCDF(lo, df) > target && lo > -1e12 {
		lo *= 2
	}
	for StudentTCDF(hi, df) < target && hi < 1e12 {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-12*(1+math.Abs(lo)+math.Abs(hi)); i++ {
		mid := lo + (hi-lo)/2
		if StudentTCDF(mid, df) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}
