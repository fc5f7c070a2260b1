package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestStreamingWelchFloat32Rounding is the property test behind the float32
// kernel's statistical contract: feeding the *same* data through the
// streaming Welch test once at float64 and once rounded through float32 must
// move the t statistic by no more than first-order rounding analysis allows.
//
// Rounding x to float32 perturbs it by at most eps·|x| (eps = 2^-24), so with
// M = max|x|: the mean difference moves by at most 2·eps·M, and the standard
// error moves relatively by O(eps·M/sd). To first order
//
//	|Δt| ≤ eps·M·(2/se + 4·|t|/sd_min)
//
// and the test asserts that bound with an 8x safety factor for the
// higher-order and accumulation terms, across scales spanning unit data,
// large offsets (catastrophic-cancellation territory), and tiny variances.
func TestStreamingWelchFloat32Rounding(t *testing.T) {
	const eps = 1.0 / (1 << 24)
	rng := rand.New(rand.NewSource(7))
	type scale struct {
		offset, sd, shift float64
	}
	scales := []scale{
		{0, 1, 0.5},        // unit data
		{1000, 1, 0.8},     // large common offset, small signal
		{0, 1e-3, 5e-4},    // tiny variance
		{-50, 20, 3},       // wide spread
		{1e6, 300, 100},    // large magnitudes
		{0.1, 0.01, 0.004}, // small everything
	}
	for _, sc := range scales {
		for trial := 0; trial < 20; trial++ {
			n := 64 + rng.Intn(512)
			var w64, w32 StreamingWelch
			maxAbs, minSD := 0.0, math.Inf(1)
			for i := 0; i < n; i++ {
				a := sc.offset + sc.shift + rng.NormFloat64()*sc.sd
				b := sc.offset + rng.NormFloat64()*sc.sd
				w64.A.Add(a)
				w64.B.Add(b)
				w32.A.Add(float64(float32(a)))
				w32.B.Add(float64(float32(b)))
				if v := math.Abs(a); v > maxAbs {
					maxAbs = v
				}
				if v := math.Abs(b); v > maxAbs {
					maxAbs = v
				}
			}
			if sd := math.Sqrt(w64.A.Variance()); sd < minSD {
				minSD = sd
			}
			if sd := math.Sqrt(w64.B.Variance()); sd < minSD {
				minSD = sd
			}
			r64, err := w64.Test(TwoSided)
			if err != nil {
				t.Fatal(err)
			}
			r32, err := w32.Test(TwoSided)
			if err != nil {
				t.Fatal(err)
			}
			na, nb := float64(w64.A.Count()), float64(w64.B.Count())
			se := math.Sqrt(w64.A.Variance()/na + w64.B.Variance()/nb)
			if se == 0 || minSD == 0 {
				continue // degenerate; the zero-variance branch is pinned elsewhere
			}
			bound := 8 * eps * maxAbs * (2/se + 4*math.Abs(r64.T)/minSD)
			if d := math.Abs(r32.T - r64.T); d > bound {
				t.Errorf("scale %+v trial %d: |t32-t64| = %.3g exceeds rounding bound %.3g (t64=%.4g, n=%d)",
					sc, trial, d, bound, r64.T, n)
			}
		}
	}
}

// TestNoiseTableMoments pins the construction guarantees of the empirical
// noise table: the antithetic mirroring makes the mean (and every odd moment)
// exactly zero, and the rescaling step sets the variance to 1 up to float32
// rounding of the entries.
func TestNoiseTableMoments(t *testing.T) {
	var sum, sum2 float64
	for _, v := range normTab32 {
		sum += float64(v)
		sum2 += float64(v) * float64(v)
	}
	if sum != 0 {
		t.Errorf("table mean = %g, want exactly 0 (antithetic pairs)", sum/normTabSize)
	}
	if v := sum2 / normTabSize; math.Abs(v-1) > 1e-6 {
		t.Errorf("table variance = %v, want 1 within float32 rounding", v)
	}
	// Mirrored layout: entry 2i+1 is the exact negation of entry 2i.
	for i := 0; i < normTabSize; i += 2 {
		if normTab32[i] != -normTab32[i+1] {
			t.Fatalf("entries %d,%d not antithetic: %v, %v", i, i+1, normTab32[i], normTab32[i+1])
		}
	}
}

// TestAddNoise32 pins the bulk noise primitive: deterministic under the same
// seed, different across calls (the state advances), scaling linear in the
// scale argument, and sample moments consistent with N(0, scale²).
func TestAddNoise32(t *testing.T) {
	const n = 1 << 16
	a := make([]float32, n)
	b := make([]float32, n)
	NewNormSource(42).AddNoise32(a, 1)
	NewNormSource(42).AddNoise32(b, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// The state advances: a second call on the same source continues the
	// stream rather than repeating it.
	src := NewNormSource(42)
	c := make([]float32, n)
	d := make([]float32, n)
	src.AddNoise32(c, 1)
	src.AddNoise32(d, 1)
	same := 0
	for i := range c {
		if c[i] == d[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("second AddNoise32 call repeated the first call's draws")
	}
	// Adds (not overwrites), scaled by the scale argument.
	e := make([]float32, 4)
	for i := range e {
		e[i] = 10
	}
	NewNormSource(7).AddNoise32(e, 2)
	f := make([]float32, 4)
	NewNormSource(7).AddNoise32(f, 1)
	for i := range e {
		want := 10 + 2*f[i]
		if math.Abs(float64(e[i]-want)) > 1e-5 {
			t.Errorf("element %d: got %v, want base+2·draw = %v", i, e[i], want)
		}
	}
	// Sample moments over 64k draws: mean within ~5/sqrt(n), variance within
	// a few percent of 1.
	var sum, sum2 float64
	for _, v := range a {
		sum += float64(v)
		sum2 += float64(v) * float64(v)
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 5/math.Sqrt(n) {
		t.Errorf("sample mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("sample variance = %v, want ~1", variance)
	}
}
