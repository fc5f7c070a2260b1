package regress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// makeLinear generates feature columns x0, x1 and y = 2*x0 - 3*x1 + 5 + noise.
func makeLinear(n int, noise float64, seed int64) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x0, x1 := r.NormFloat64()*3, r.NormFloat64()*2
		cols[0][i], cols[1][i] = x0, x1
		y[i] = 2*x0 - 3*x1 + 5 + r.NormFloat64()*noise
	}
	return cols, y
}

func testRecoversLinear(t *testing.T, p Predictor, tol float64) {
	t.Helper()
	x, y := makeLinear(400, 0.05, 11)
	if err := p.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	probe := [][]float64{{1, 1}, {0, 0}, {-2, 3}, {4, -1}}
	for _, q := range probe {
		want := 2*q[0] - 3*q[1] + 5
		got := p.Predict(q)
		if math.Abs(got-want) > tol {
			t.Fatalf("%T predict(%v) = %v, want %v (tol %v)", p, q, got, want, tol)
		}
	}
	if p.ResidualStd() < 0 || p.ResidualStd() > 2*tol+1 {
		t.Fatalf("%T residual std = %v, want nonnegative and < %v", p, p.ResidualStd(), 2*tol+1)
	}
}

func TestRidgeRecoversLinear(t *testing.T) { testRecoversLinear(t, NewRidge(0.1), 0.1) }
func TestOLSRecoversLinear(t *testing.T)   { testRecoversLinear(t, OLSTrainer()(), 0.05) }
func TestMLPApproximatesLinear(t *testing.T) {
	testRecoversLinear(t, NewMLP(8, 1), 1.5)
}
func TestSVRApproximatesLinear(t *testing.T) {
	testRecoversLinear(t, NewSVR(1), 2.0)
}
func TestGMMApproximatesLinear(t *testing.T) {
	// GMM conditional means are piecewise-constant-ish; allow loose tolerance.
	testRecoversLinear(t, NewGMM(6, 1), 4.0)
}

func TestRidgeInterceptOnly(t *testing.T) {
	r := NewRidge(0.1)
	y := []float64{3, 5, 7}
	if err := r.Fit(nil, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Predict(nil)-5) > 1e-9 {
		t.Fatalf("intercept-only prediction = %v", r.Predict(nil))
	}
	if r.ResidualStd() <= 0 {
		t.Fatal("residual std of varying target should be positive")
	}
}

func TestRidgeConstantFeature(t *testing.T) {
	// A constant feature must not blow up the standardization.
	x := [][]float64{{1, 2, 3, 4}, {5, 5, 5, 5}}
	y := []float64{2, 4, 6, 8}
	r := NewRidge(0.01)
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Predict([]float64{2.5, 5})-5) > 0.3 {
		t.Fatalf("prediction with constant feature = %v", r.Predict([]float64{2.5, 5}))
	}
}

func TestRidgeShrinks(t *testing.T) {
	x, y := makeLinear(50, 0.5, 3)
	small := NewRidge(0.001)
	large := NewRidge(1000)
	if err := small.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := large.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	cs, _, _, _, _ := small.LinearTerms()
	cl, _, _, _, _ := large.LinearTerms()
	ns, nl := 0.0, 0.0
	for i := range cs {
		ns += math.Abs(cs[i])
		nl += math.Abs(cl[i])
	}
	if nl >= ns {
		t.Fatalf("large lambda should shrink coefficients: %v vs %v", nl, ns)
	}
}

func TestFitErrors(t *testing.T) {
	models := []Predictor{NewRidge(0.1), NewGMM(2, 1), NewMLP(4, 1), NewSVR(1)}
	for _, m := range models {
		if err := m.Fit(nil, nil); err == nil {
			t.Fatalf("%T: empty fit should error", m)
		}
		if err := m.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
			t.Fatalf("%T: length mismatch should error", m)
		}
		if err := m.Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
			t.Fatalf("%T: ragged columns should error", m)
		}
	}
}

func TestUntrainedPredictIsZero(t *testing.T) {
	models := []Predictor{NewRidge(0.1), NewGMM(2, 1), NewMLP(4, 1), NewSVR(1)}
	for _, m := range models {
		if m.Predict([]float64{1, 2}) != 0 {
			t.Fatalf("%T: untrained predict should be 0", m)
		}
		if m.ResidualStd() != 0 {
			t.Fatalf("%T: untrained residual std should be 0", m)
		}
	}
}

func TestPredictShortFeatureVector(t *testing.T) {
	// Degraded data (Table 2) can hand a shorter feature vector; models must
	// not panic and should use the overlap.
	x, y := makeLinear(100, 0.1, 5)
	models := []Predictor{NewRidge(0.1), NewGMM(3, 1), NewMLP(4, 1), NewSVR(1)}
	for _, m := range models {
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		got := m.Predict([]float64{1}) // only one of two features
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("%T: short-vector predict = %v", m, got)
		}
	}
}

func TestGMMSeparatesClusters(t *testing.T) {
	// Two clusters with different target levels: GMM should track them while
	// a straight line through both would be off at the extremes.
	r := rand.New(rand.NewSource(2))
	var x, y []float64
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			x = append(x, r.NormFloat64()*0.2-3)
			y = append(y, 10+r.NormFloat64()*0.1)
		} else {
			x = append(x, r.NormFloat64()*0.2+3)
			y = append(y, -10+r.NormFloat64()*0.1)
		}
	}
	g := NewGMM(2, 1)
	if err := g.Fit([][]float64{x}, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Predict([]float64{-3})-10) > 1 {
		t.Fatalf("cluster 1 prediction = %v", g.Predict([]float64{-3}))
	}
	if math.Abs(g.Predict([]float64{3})+10) > 1 {
		t.Fatalf("cluster 2 prediction = %v", g.Predict([]float64{3}))
	}
}

func TestTrainersProduceFreshModels(t *testing.T) {
	for _, tr := range []Trainer{RidgeTrainer(0.1), OLSTrainer(), GMMTrainer(2, 1), MLPTrainer(4, 1), SVRTrainer(1)} {
		a, b := tr(), tr()
		if a == b {
			t.Fatal("Trainer must return distinct instances")
		}
		x, y := makeLinear(30, 0.1, 9)
		if err := a.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		// b stays untrained.
		if b.Predict([]float64{1, 1}) != 0 {
			t.Fatal("second instance should be untrained")
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	x, y := makeLinear(100, 0.3, 4)
	a, b := NewMLP(6, 42), NewMLP(6, 42)
	if err := a.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]float64{{0, 0}, {1, -1}} {
		if a.Predict(q) != b.Predict(q) {
			t.Fatal("same seed should give identical MLPs")
		}
	}
}

// Property: ridge predictions are finite for any finite inputs.
func TestRidgePredictFiniteProperty(t *testing.T) {
	x, y := makeLinear(60, 0.2, 8)
	r := NewRidge(0.5)
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		// Clamp to a physically plausible metric range; raw float64 extremes
		// overflow any linear model by construction.
		a = math.Mod(a, 1e6)
		b = math.Mod(b, 1e6)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		p := r.Predict([]float64{a, b})
		return !math.IsNaN(p) && !math.IsInf(p, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResidualStdReflectsNoise(t *testing.T) {
	quietX, quietY := makeLinear(300, 0.1, 6)
	noisyX, noisyY := makeLinear(300, 2.0, 6)
	q, n := NewRidge(0.1), NewRidge(0.1)
	if err := q.Fit(quietX, quietY); err != nil {
		t.Fatal(err)
	}
	if err := n.Fit(noisyX, noisyY); err != nil {
		t.Fatal(err)
	}
	if q.ResidualStd() >= n.ResidualStd() {
		t.Fatalf("noisier data should have larger residual std: %v vs %v", q.ResidualStd(), n.ResidualStd())
	}
}
