package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestStreamingWelchAgreesWithBatch is the property test backing the
// inference fast path: over 1000 random sample pairs — varied sizes, scales,
// offsets, and a slice of exactly-equal-mean pairs — the streaming test must
// reach the same verdict as the batch WelchTTest at every alpha of interest,
// with T, DF, and P matching to tight tolerance.
func TestStreamingWelchAgreesWithBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alts := []Alternative{TwoSided, Less, Greater}
	for trial := 0; trial < 1000; trial++ {
		na := 2 + rng.Intn(200)
		nb := 2 + rng.Intn(200)
		scaleA := math.Exp(rng.NormFloat64() * 2)
		scaleB := math.Exp(rng.NormFloat64() * 2)
		offset := rng.NormFloat64() * 3
		if trial%5 == 0 {
			offset = 0 // exercise the near-null regime explicitly
		}
		a := make([]float64, na)
		b := make([]float64, nb)
		for i := range a {
			a[i] = rng.NormFloat64() * scaleA
		}
		for i := range b {
			b[i] = offset + rng.NormFloat64()*scaleB
		}
		var st StreamingWelch
		// Interleave Add and AddAll so both entry points are exercised.
		for i, x := range a {
			if i%2 == 0 {
				st.A.Add(x)
			} else {
				st.A.AddAll([]float64{x})
			}
		}
		st.B.AddAll(b)
		alt := alts[trial%len(alts)]
		want, err := WelchTTest(a, b, alt)
		if err != nil {
			t.Fatalf("trial %d: batch: %v", trial, err)
		}
		got, err := st.Test(alt)
		if err != nil {
			t.Fatalf("trial %d: streaming: %v", trial, err)
		}
		if math.Abs(got.P-want.P) > 1e-9 {
			t.Fatalf("trial %d: p mismatch: streaming %.15g batch %.15g", trial, got.P, want.P)
		}
		if math.Abs(got.T-want.T) > 1e-9*(1+math.Abs(want.T)) {
			t.Fatalf("trial %d: t mismatch: streaming %.15g batch %.15g", trial, got.T, want.T)
		}
		if math.Abs(got.DF-want.DF) > 1e-9*(1+want.DF) {
			t.Fatalf("trial %d: df mismatch: streaming %.15g batch %.15g", trial, got.DF, want.DF)
		}
		for _, alpha := range []float64{0.01, 0.05, 0.1} {
			if (got.P <= alpha) != (want.P <= alpha) {
				t.Fatalf("trial %d: verdict at alpha=%g differs: streaming p=%g batch p=%g", trial, alpha, got.P, want.P)
			}
		}
	}
}

// TestStreamingWelchKnownFixture pins the hand-computed Welch fixture
// a={1..5}, b={2,4,..,10}: mean diff -3, t = -3/sqrt(2.5/5+10/5),
// df = 2.5^2/(0.5^2/4 + 2^2/4) per the Welch-Satterthwaite formula.
func TestStreamingWelchKnownFixture(t *testing.T) {
	var st StreamingWelch
	st.A.AddAll([]float64{1, 2, 3, 4, 5})
	st.B.AddAll([]float64{2, 4, 6, 8, 10})
	res, err := st.Test(TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	const wantT = -1.8973665961010278 // -3/sqrt(0.5+2)
	const wantDF = 5.882352941176471  // 6.25/(0.0625+1)
	if math.Abs(res.T-wantT) > 1e-12 {
		t.Errorf("t = %.15g, want %.15g", res.T, wantT)
	}
	if math.Abs(res.DF-wantDF) > 1e-12 {
		t.Errorf("df = %.15g, want %.15g", res.DF, wantDF)
	}
	// p from the regularized incomplete beta at these values is ~0.1073;
	// pin loosely against an independent evaluation of the t CDF.
	wantP := 2 * StudentTCDF(wantT, wantDF)
	if math.Abs(res.P-wantP) > 1e-12 {
		t.Errorf("p = %.15g, want %.15g", res.P, wantP)
	}
	if res.P < 0.10 || res.P > 0.12 {
		t.Errorf("p = %g outside the known [0.10, 0.12] bracket", res.P)
	}
	if d := st.A.Mean() - st.B.Mean(); math.Abs(d-(-3)) > 1e-12 {
		t.Errorf("mean diff = %g, want -3", d)
	}
}

// TestRunningMomentsMatchesBatch checks Welford's accumulator against the
// batch mean/variance on random data, including catastrophic-cancellation
// bait (large common offset).
func TestRunningMomentsMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(500)
		offset := 0.0
		if trial%3 == 0 {
			offset = 1e9
		}
		xs := make([]float64, n)
		var r RunningMoments
		for i := range xs {
			xs[i] = offset + rng.NormFloat64()
			r.Add(xs[i])
		}
		if r.Count() != n {
			t.Fatalf("count = %d, want %d", r.Count(), n)
		}
		if m := Mean(xs); math.Abs(r.Mean()-m) > 1e-6*(1+math.Abs(m)) {
			t.Fatalf("trial %d: mean %.15g vs %.15g", trial, r.Mean(), m)
		}
		if v := Variance(xs); math.Abs(r.Variance()-v) > 1e-6*(1+v) {
			t.Fatalf("trial %d: variance %.15g vs %.15g", trial, r.Variance(), v)
		}
	}
}

// TestStudentTUpperQuantileKnownValues pins the inverse t CDF against
// standard table critical values and the closed-form df=1 (Cauchy) and df=2
// distributions.
func TestStudentTUpperQuantileKnownValues(t *testing.T) {
	cases := []struct {
		q, df, want, tol float64
	}{
		{0.025, 10, 2.2281388519649385, 1e-8},
		{0.05, 5, 2.015048372669157, 1e-8},
		{0.025, 30, 2.0422724563012373, 1e-8},
		// df=1 is Cauchy: upper-q quantile = tan(pi*(0.5-q)).
		{0.05, 1, math.Tan(math.Pi * 0.45), 1e-8},
		{0.25, 1, 1, 1e-8},
		// df=2 closed form: CDF(t) = 1/2 + t/(2*sqrt(2+t^2)); q=0.025 -> t
		// solves that, known value 4.302652729911275.
		{0.025, 2, 4.302652729911275, 1e-8},
		// Symmetry: upper 0.975 quantile is the negative of the 0.025 one.
		{0.975, 10, -2.2281388519649385, 1e-8},
		{0.5, 7, 0, 1e-6},
	}
	for _, c := range cases {
		got := StudentTUpperQuantile(c.q, c.df)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("StudentTUpperQuantile(%g, df=%g) = %.12g, want %.12g", c.q, c.df, got, c.want)
		}
	}
	// Round trip: 1 - CDF(quantile(q)) == q across a grid (to the CDF's own
	// numerical accuracy, ~1e-8).
	for _, df := range []float64{1, 2, 5, 30, 500} {
		for _, q := range []float64{0.001, 0.01, 0.05, 0.2, 0.5, 0.8, 0.99} {
			tq := StudentTUpperQuantile(q, df)
			if p := 1 - StudentTCDF(tq, df); math.Abs(p-q) > 1e-7 {
				t.Errorf("round trip df=%g q=%g: got %g", df, q, p)
			}
		}
	}
	if !math.IsInf(StudentTUpperQuantile(0, 5), 1) || !math.IsInf(StudentTUpperQuantile(1, 5), -1) {
		t.Error("degenerate tail probabilities should map to infinities")
	}
}

// TestDecisive covers the three regimes of the sequential stopping helper:
// clearly separated samples decide significant, identical samples stay
// undecided at small n (their t hovers inside the band), and a decisively
// wrong-direction shift decides not-significant for a one-sided test.
func TestDecisive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sep, same, neg := StreamingWelch{}, StreamingWelch{}, StreamingWelch{}
	for i := 0; i < 400; i++ {
		x := rng.NormFloat64()
		sep.A.Add(x)
		sep.B.Add(10 + rng.NormFloat64())
		same.A.Add(rng.NormFloat64())
		same.B.Add(rng.NormFloat64())
		neg.A.Add(x)
		neg.B.Add(-10 + rng.NormFloat64())
	}
	z := NormalQuantile(0.999)
	if sig, dec := sep.Decisive(TwoSided, 0.05, z); !sig || !dec {
		t.Errorf("separated samples: sig=%v decided=%v, want both true", sig, dec)
	}
	// B is far *below* A, so the "B greater" one-sided test (alt=Less tests
	// mean(A) < mean(B)) is decisively not significant.
	if sig, dec := neg.Decisive(Less, 0.05, z); sig || !dec {
		t.Errorf("wrong-direction shift: sig=%v decided=%v, want decided rejection", sig, dec)
	}
	if _, dec := same.Decisive(TwoSided, 0.05, z); dec {
		t.Error("identical distributions at n=400 should stay inside the undecided band")
	}
	// Insufficient data never decides.
	var empty StreamingWelch
	if sig, dec := empty.Decisive(TwoSided, 0.05, z); sig || dec {
		t.Error("empty samples must be undecided")
	}
	// Degenerate zero-variance samples with distinct means decide instantly.
	var cst StreamingWelch
	cst.A.AddAll([]float64{1, 1, 1})
	cst.B.AddAll([]float64{2, 2, 2})
	if sig, dec := cst.Decisive(TwoSided, 0.05, z); !sig || !dec {
		t.Errorf("constant distinct samples: sig=%v decided=%v, want both true", sig, dec)
	}
}

// TestDecisiveAgreesWithFullRun simulates the sequential protocol: feed
// random pairs batch by batch, stop at the first decision, and check the
// stopped verdict against the full-sample batch verdict. Effects are either
// null or strong (the regimes the inference fast path sees); the decided
// verdict must agree with the full run in every trial at this margin.
func TestDecisiveAgreesWithFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	z := NormalQuantile(0.999)
	const total, batch, minN = 4000, 256, 512
	for trial := 0; trial < 60; trial++ {
		shift := 0.0
		if trial%2 == 0 {
			shift = 1.5
		}
		a := make([]float64, total)
		b := make([]float64, total)
		for i := range a {
			a[i] = shift + rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		var st StreamingWelch
		stopSig, stopped := false, false
		for n := 0; n < total && !stopped; n += batch {
			end := n + batch
			if end > total {
				end = total
			}
			st.A.AddAll(a[n:end])
			st.B.AddAll(b[n:end])
			if end < minN {
				continue
			}
			if sig, dec := st.Decisive(Greater, 0.05, z); dec {
				stopSig, stopped = sig, true
			}
		}
		fullRes, err := WelchTTest(a, b, Greater) // alt Greater: mean(a) > mean(b)
		if err != nil {
			t.Fatal(err)
		}
		if stopped {
			if stopSig != (fullRes.P <= 0.05) {
				t.Fatalf("trial %d (shift=%g): stopped verdict %v disagrees with full-run p=%g", trial, shift, stopSig, fullRes.P)
			}
		}
	}
}
