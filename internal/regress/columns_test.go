package regress

import (
	"math"
	"math/rand"
	"testing"
)

// fitPair trains one Ridge via row-major Fit and one via FitColumns on the
// same data and returns both.
func fitPair(t *testing.T, lambda float64, cols [][]float64, y []float64) (*Ridge, *Ridge) {
	t.Helper()
	n := len(y)
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, len(cols))
		for j := range cols {
			row[j] = cols[j][i]
		}
		rows[i] = row
	}
	byRows := NewRidge(lambda)
	if err := byRows.Fit(rows, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	byCols := NewRidge(lambda)
	if err := byCols.FitColumns(cols, y); err != nil {
		t.Fatalf("FitColumns: %v", err)
	}
	return byRows, byCols
}

// assertSameRidge requires the two fits to be bit-identical: coefficients,
// residual std, and predictions on probe vectors.
func assertSameRidge(t *testing.T, label string, a, b *Ridge, probes [][]float64) {
	t.Helper()
	ca, _, _, _, _ := a.LinearTerms()
	cb, _, _, _, _ := b.LinearTerms()
	if len(ca) != len(cb) {
		t.Fatalf("%s: %d coefficients vs %d", label, len(ca), len(cb))
	}
	for j := range ca {
		if math.Float64bits(ca[j]) != math.Float64bits(cb[j]) {
			t.Fatalf("%s: coef[%d] %v != %v", label, j, cb[j], ca[j])
		}
	}
	if math.Float64bits(a.ResidualStd()) != math.Float64bits(b.ResidualStd()) {
		t.Fatalf("%s: resid %v != %v", label, b.ResidualStd(), a.ResidualStd())
	}
	for _, p := range probes {
		if math.Float64bits(a.Predict(p)) != math.Float64bits(b.Predict(p)) {
			t.Fatalf("%s: Predict(%v) %v != %v", label, p, b.Predict(p), a.Predict(p))
		}
	}
}

// TestFitColumnsBitIdentical is the equivalence the parallel trainer depends
// on: fitting from telemetry columns must reproduce the row-major fit exactly,
// across sizes, penalties and feature counts.
func TestFitColumnsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 10, 255, 256, 257, 400} {
		for _, p := range []int{1, 3, 10} {
			for _, lambda := range []float64{0, 1, 1e-8} {
				cols := make([][]float64, p)
				for j := range cols {
					cols[j] = make([]float64, n)
					for i := range cols[j] {
						cols[j][i] = rng.NormFloat64() * float64(1+j)
					}
				}
				y := make([]float64, n)
				for i := range y {
					y[i] = rng.NormFloat64()
					for j := range cols {
						y[i] += 0.5 * cols[j][i]
					}
				}
				probes := [][]float64{make([]float64, p), cols0Row(cols, 0)}
				a, b := fitPair(t, lambda, cols, y)
				assertSameRidge(t, "random", a, b, probes)
			}
		}
	}
}

// cols0Row assembles row i of a column-major design matrix.
func cols0Row(cols [][]float64, i int) []float64 {
	row := make([]float64, len(cols))
	for j := range cols {
		row[j] = cols[j][i]
	}
	return row
}

// TestFitColumnsZeroVariance pins the degenerate paths: a constant feature
// (std forced to 1) and a zero-feature fit (intercept-only model).
func TestFitColumnsZeroVariance(t *testing.T) {
	y := []float64{1, 2, 3, 4, 5, 6}
	constant := []float64{7, 7, 7, 7, 7, 7}
	varying := []float64{1, 2, 1, 2, 1, 2}
	a, b := fitPair(t, 1, [][]float64{constant, varying}, y)
	assertSameRidge(t, "constant-col", a, b, [][]float64{{7, 1}, {0, 0}})

	// Empty feature set: both paths fall back to the intercept-only model.
	byRows := NewRidge(1)
	if err := byRows.Fit([][]float64{{}, {}, {}}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	byCols := NewRidge(1)
	if err := byCols.FitColumns(nil, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	assertSameRidge(t, "intercept-only", byRows, byCols, [][]float64{nil, {5}})
}

// TestFitColumnsErrors pins the validation: empty targets and ragged columns
// are rejected.
func TestFitColumnsErrors(t *testing.T) {
	r := NewRidge(1)
	if err := r.FitColumns(nil, nil); err == nil {
		t.Error("empty target accepted")
	}
	if err := r.FitColumns([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged columns accepted")
	}
}
