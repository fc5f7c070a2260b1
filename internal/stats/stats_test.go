package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	almost(t, Mean(xs), 5, 1e-12, "mean")
	almost(t, Variance(xs), 32.0/7.0, 1e-12, "variance")
	almost(t, StdDev(xs), math.Sqrt(32.0/7.0), 1e-12, "stddev")
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice mean/variance should be 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("single-element variance should be 0")
	}
}

func TestMeanStdMatchesSeparate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		m, s := MeanStd(xs)
		almost(t, m, Mean(xs), 1e-9, "MeanStd mean")
		almost(t, s, StdDev(xs), 1e-9, "MeanStd std")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Max(xs) != 7 {
		t.Fatalf("max wrong: %v", Max(xs))
	}
	if !math.IsInf(Max(nil), -1) {
		t.Fatal("empty max should be -Inf")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, r, 1, 1e-12, "perfect positive correlation")
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	almost(t, r, -1, 1e-12, "perfect negative correlation")
}

func TestPearsonConstantSeries(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Fatalf("constant series should give r=0, got %v err %v", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Fatal("n<2 should error")
	}
}

func TestAbsPearsonSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = r.NormFloat64(), r.NormFloat64()
		}
		a, b := AbsPearson(xs, ys), AbsPearson(ys, xs)
		return math.Abs(a-b) < 1e-12 && a >= 0 && a <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// Reference values from standard t tables.
	almost(t, StudentTCDF(0, 10), 0.5, 1e-12, "t=0")
	almost(t, StudentTCDF(1.812, 10), 0.95, 1e-3, "t_{0.95,10}")
	almost(t, StudentTCDF(2.228, 10), 0.975, 1e-3, "t_{0.975,10}")
	almost(t, StudentTCDF(-2.228, 10), 0.025, 1e-3, "lower tail symmetry")
	// Large df converges to the normal distribution.
	almost(t, StudentTCDF(1.96, 1e6), NormalCDF(1.96), 1e-4, "df->inf")
	if StudentTCDF(math.Inf(1), 5) != 1 || StudentTCDF(math.Inf(-1), 5) != 0 {
		t.Fatal("infinite t should saturate CDF")
	}
}

func TestStudentTCDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		if math.IsNaN(lo) || math.IsInf(lo, 0) {
			return true
		}
		return StudentTCDF(lo, 7) <= StudentTCDF(hi, 7)+1e-12
	}
	cfg := &quick.Config{Values: nil, MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWelchTTestSeparatesMeans(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64() + 1.0
	}
	res, err := WelchTTest(a, b, Less)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Fatalf("clearly separated means should have tiny p, got %v", res.P)
	}
	res, _ = WelchTTest(a, b, Greater)
	if res.P < 0.999 {
		t.Fatalf("wrong-direction alternative should have p~1, got %v", res.P)
	}
}

func TestWelchTTestIdenticalSamples(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := make([]float64, 200)
	for i := range a {
		a[i] = r.NormFloat64()
	}
	res, err := WelchTTest(a, a, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.99 {
		t.Fatalf("identical samples should not reject, p=%v", res.P)
	}
}

func TestWelchTTestDegenerate(t *testing.T) {
	res, err := WelchTTest([]float64{1, 1, 1}, []float64{2, 2, 2}, Less)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 {
		t.Fatalf("constant a<b under Less should be p=0, got %v", res.P)
	}
	res, _ = WelchTTest([]float64{2, 2}, []float64{2, 2}, TwoSided)
	if res.P != 1 {
		t.Fatalf("equal constants should be p=1, got %v", res.P)
	}
	if _, err := WelchTTest([]float64{1}, []float64{1, 2}, Less); err == nil {
		t.Fatal("n<2 should error")
	}
}

func TestNormalCDFQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.99, 0.999} {
		x := NormalQuantile(p)
		almost(t, NormalCDF(x), p, 1e-9, "round trip")
	}
	almost(t, NormalQuantile(0.975), 1.959964, 1e-5, "z_{0.975}")
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("quantile boundary values should be infinite")
	}
}

func TestRegIncBetaBoundaries(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Fatal("boundary values wrong")
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.37, 0.9} {
		almost(t, RegIncBeta(1, 1, x), x, 1e-10, "uniform case")
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	almost(t, RegIncBeta(2.5, 4, 0.3), 1-RegIncBeta(4, 2.5, 0.7), 1e-10, "symmetry")
}

func TestMASE(t *testing.T) {
	train := []float64{1, 2, 3, 4, 5} // naive MAE = 1
	pred := []float64{6, 7}
	actual := []float64{6.5, 6.5}
	m, err := MASE(pred, actual, train)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, m, 0.5, 1e-12, "MASE")
	if _, err := MASE([]float64{1}, []float64{1, 2}, train); err == nil {
		t.Fatal("length mismatch should error")
	}
	m, err = MASE([]float64{5}, []float64{5}, []float64{2, 2, 2})
	if err != nil || m != 0 {
		t.Fatalf("flat train, zero error should give 0: %v %v", m, err)
	}
	m, _ = MASE([]float64{5}, []float64{6}, []float64{2, 2, 2})
	if !math.IsInf(m, 1) {
		t.Fatalf("flat train with error should be +Inf, got %v", m)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3, 10})
	almost(t, e.Quantile(0.5), 2, 1e-12, "median")
	almost(t, e.Quantile(1), 10, 1e-12, "max quantile")
	almost(t, e.Quantile(0), 1, 1e-12, "min quantile")
	if !math.IsNaN(NewECDF(nil).Quantile(0.5)) {
		t.Fatal("empty ECDF quantile should be NaN")
	}
}

func TestZScore(t *testing.T) {
	hist := []float64{10, 10, 10, 10, 14, 6} // mean 10, std 2.53...
	z := ZScore(10, hist)
	almost(t, z, 0, 1e-12, "at mean")
	if ZScore(20, hist) <= 0 {
		t.Fatal("above mean should be positive")
	}
	if !math.IsInf(ZScore(5, []float64{3, 3, 3}), 1) {
		t.Fatal("zero-variance history, off-mean value should be +Inf")
	}
	if ZScore(3, []float64{3, 3, 3}) != 0 {
		t.Fatal("zero-variance history at mean should be 0")
	}
}

func TestQuantileHelper(t *testing.T) {
	xs := []float64{5, 1, 3}
	almost(t, Quantile(xs, 0.5), 3, 1e-12, "median helper")
	// Input must not be mutated.
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestMedianMAD(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	almost(t, Median(xs), 3, 1e-12, "median")
	almost(t, MAD(xs), 1, 1e-12, "MAD") // deviations 2,1,0,1,97 -> median 1
	if !math.IsNaN(Median(nil)) || !math.IsNaN(MAD(nil)) {
		t.Fatal("empty median/MAD should be NaN")
	}
}
