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

func TestCholeskySolve(t *testing.T) {
	// SPD matrix from A = B'B + I.
	a, _ := fromRows([][]float64{{4, 2, 0.6}, {2, 3, 0.4}, {0.6, 0.4, 2}})
	b := []float64{1, 2, 3}
	x, err := CholeskySolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		got := 0.0
		for j := range x {
			got += a.At(i, j) * x[j]
		}
		if math.Abs(got-b[i]) > 1e-9 {
			t.Fatalf("residual at %d: %v vs %v", i, got, b[i])
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
		a := gramRows(x).AddDiag(0.5)
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
