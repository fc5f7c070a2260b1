package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randomCols builds p feature columns of n rows plus the row-major design
// matrix holding the same values.
func randomCols(rng *rand.Rand, n, p int) ([][]float64, *Dense) {
	cols := make([][]float64, p)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	x := NewDense(n, p)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			v := rng.NormFloat64() * float64(1+j)
			cols[j][i] = v
			x.Set(i, j, v)
		}
	}
	return cols, x
}

// gramRows is the row sweep the column kernels are held to: X'X accumulated
// row by row, each output element over rows in ascending order.
func gramRows(x *Dense) *Dense {
	out := NewDense(x.cols, x.cols)
	for r := 0; r < x.rows; r++ {
		row := x.data[r*x.cols : (r+1)*x.cols]
		for i, vi := range row {
			if vi == 0 {
				continue
			}
			oi := out.data[i*out.cols : (i+1)*out.cols]
			for j, vj := range row {
				oi[j] += vi * vj
			}
		}
	}
	return out
}

// xtyRows is X'y for the row-major x, each element summed over rows in
// ascending order.
func xtyRows(x *Dense, y []float64) []float64 {
	out := make([]float64, x.cols)
	for j := range out {
		for i := 0; i < x.rows; i++ {
			out[j] += x.At(i, j) * y[i]
		}
	}
	return out
}

// TestGramColsBitIdentical checks GramCols against the row sweep at row
// counts spanning the blocking boundary (gramBlockRows = 256). Bit identity is
// required: blocking must not reorder any sum, so the ridge fits the goldens
// pin keep their bits.
func TestGramColsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 5, 255, 256, 257, 600} {
		for _, p := range []int{1, 3, 10} {
			cols, x := randomCols(rng, n, p)
			want := gramRows(x)
			got := GramCols(cols)
			for i := 0; i < p; i++ {
				for j := 0; j < p; j++ {
					if math.Float64bits(want.At(i, j)) != math.Float64bits(got.At(i, j)) {
						t.Fatalf("n=%d p=%d: Gram[%d,%d] cols=%v rows=%v", n, p, i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
}

// TestMulVecColsBitIdentical checks MulVecCols against the row-major X'y
// across the same row counts.
func TestMulVecColsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 5, 255, 256, 257, 600} {
		cols, x := randomCols(rng, n, 4)
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		want := xtyRows(x, y)
		got := MulVecCols(cols, y)
		if len(got) != len(want) {
			t.Fatalf("n=%d: length %d != %d", n, len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
				t.Fatalf("n=%d: X'y[%d] cols=%v rows=%v", n, j, got[j], want[j])
			}
		}
	}
}

// TestGramColsPanicsOnBadInput pins the contract violations: no columns, and
// ragged columns.
func TestGramColsPanicsOnBadInput(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	assertPanics("empty", func() { GramCols(nil) })
	assertPanics("ragged", func() { GramCols([][]float64{{1, 2}, {1}}) })
	assertPanics("mulvec-ragged", func() { MulVecCols([][]float64{{1, 2}}, []float64{1}) })
}
