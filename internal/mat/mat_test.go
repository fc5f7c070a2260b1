package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fromRows builds a matrix from a slice of equal-length rows.
func fromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("mat: empty input")
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("mat: ragged row %d: len %d != %d", i, len(row), c)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// mul returns the matrix product m*n: the reference TestGramMatchesTTimesX
// checks Gram against.
func mul(m, n *Dense) (*Dense, error) {
	if m.cols != n.rows {
		return nil, fmt.Errorf("mat: dimension mismatch %dx%d * %dx%d", m.rows, m.cols, n.rows, n.cols)
	}
	out := NewDense(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			nk := n.data[k*n.cols : (k+1)*n.cols]
			for j, nkj := range nk {
				oi[j] += mik * nkj
			}
		}
	}
	return out, nil
}

func TestFromRowsAndAccessors(t *testing.T) {
	m, err := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	r, c := m.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("dims %dx%d", r, c)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatal("Set failed")
	}
}

func TestNewDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dims")
		}
	}()
	NewDense(0, 3)
}

func TestTranspose(t *testing.T) {
	m, _ := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	r, c := tr.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("transpose dims %dx%d", r, c)
	}
	if tr.At(2, 0) != 3 || tr.At(0, 1) != 4 {
		t.Fatal("transpose values wrong")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y, err := a.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MulVec = %v", y)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestGramMatchesTTimesX(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := NewDense(7, 4)
	for i := 0; i < 7; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, r.NormFloat64())
		}
	}
	g := Gram(x)
	ref, err := mul(x.T(), x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(g.At(i, j)-ref.At(i, j)) > 1e-10 {
				t.Fatalf("Gram[%d][%d] = %v, want %v", i, j, g.At(i, j), ref.At(i, j))
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	// SPD matrix from A = B'B + I.
	a, _ := fromRows([][]float64{{4, 2, 0.6}, {2, 3, 0.4}, {0.6, 0.4, 2}})
	b := []float64{1, 2, 3}
	x, err := CholeskySolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := a.MulVec(x)
	for i := range b {
		if math.Abs(got[i]-b[i]) > 1e-9 {
			t.Fatalf("residual at %d: %v vs %v", i, got[i], b[i])
		}
	}
}

func TestCholeskySolveRejectsNonSPD(t *testing.T) {
	a, _ := fromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := CholeskySolve(a, []float64{1, 1}); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	if _, err := CholeskySolve(NewDense(2, 3), []float64{1, 1}); err == nil {
		t.Fatal("non-square should error")
	}
	if _, err := CholeskySolve(NewDense(2, 2).AddDiag(1), []float64{1}); err == nil {
		t.Fatal("rhs mismatch should error")
	}
}

func TestSolveGeneral(t *testing.T) {
	// Requires pivoting: zero on the leading diagonal.
	a, _ := fromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 7 || x[1] != 3 {
		t.Fatalf("Solve = %v", x)
	}
	sing, _ := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(sing, []float64{1, 1}); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a, _ := fromRows([][]float64{{2, 1}, {1, 3}})
	b := []float64{1, 2}
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 2 || a.At(1, 0) != 1 || b[0] != 1 {
		t.Fatal("Solve mutated inputs")
	}
}

// Property: for random SPD systems, CholeskySolve and Solve agree.
func TestSolversAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		x := NewDense(n+3, n)
		for i := 0; i < n+3; i++ {
			for j := 0; j < n; j++ {
				x.Set(i, j, r.NormFloat64())
			}
		}
		a := Gram(x).AddDiag(0.5)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x1, err1 := CholeskySolve(a, b)
		x2, err2 := Solve(a, b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAddDiag(t *testing.T) {
	m := NewDense(2, 2)
	m.AddDiag(3)
	if m.At(0, 0) != 3 || m.At(1, 1) != 3 || m.At(0, 1) != 0 {
		t.Fatal("AddDiag wrong")
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("dot product wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestClone(t *testing.T) {
	m, _ := fromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone must be deep")
	}
}
