// Package mat implements the small dense linear-algebra kernel Murphy's
// regression models need: matrices, products, and symmetric positive-definite
// solves (Cholesky with a pivoted Gaussian-elimination fallback). It is not a
// general-purpose BLAS; it is sized for regression problems with at most a
// few dozen features, which is what the top-B=10 feature selection of §4.2
// produces.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a solve encounters a (numerically) singular
// system.
var ErrSingular = errors.New("mat: singular matrix")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed r-by-c matrix. It panics if r or c is not
// positive, since a zero-sized matrix is always a programming error here.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// Dims returns the (rows, cols) of the matrix.
func (m *Dense) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	n := NewDense(m.rows, m.cols)
	copy(n.data, m.data)
	return n
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// MulVec returns the matrix-vector product m*x.
func (m *Dense) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, fmt.Errorf("mat: dimension mismatch %dx%d * vec %d", m.rows, m.cols, len(x))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// AddDiag adds v to every diagonal element in place and returns m. It is the
// ridge-regularization step (X'X + lambda*I).
func (m *Dense) AddDiag(v float64) *Dense {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	for i := 0; i < n; i++ {
		m.data[i*m.cols+i] += v
	}
	return m
}

// Gram returns X'X for the design matrix x: a cols-by-cols symmetric matrix.
func Gram(x *Dense) *Dense {
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

// gramBlockRows is the row-tile size of the blocked Gram kernels: big enough
// to amortize the loop overhead, small enough that a tile of a dozen feature
// columns stays in L1/L2 while every (i, j) pair sweeps it.
const gramBlockRows = 256

// GramCols returns X'X for a design matrix given as feature columns (each
// column one feature, all of equal length). It is the column-major twin of
// Gram, bit-identical to Gram on the row-major equivalent: for every output
// element the products are accumulated over rows in ascending order, exactly
// as Gram's row sweep does. Rows are processed in blocks so all pairwise
// accumulations of a tile reuse cached column data, and symmetry is exploited
// by computing only j >= i and mirroring.
func GramCols(cols [][]float64) *Dense {
	k := len(cols)
	if k == 0 {
		panic("mat: GramCols needs at least one column")
	}
	n := len(cols[0])
	for i, c := range cols {
		if len(c) != n {
			panic(fmt.Sprintf("mat: GramCols ragged column %d: len %d != %d", i, len(c), n))
		}
	}
	out := NewDense(k, k)
	for lo := 0; lo < n; lo += gramBlockRows {
		hi := lo + gramBlockRows
		if hi > n {
			hi = n
		}
		for i := 0; i < k; i++ {
			ci := cols[i][lo:hi]
			oi := out.data[i*k:]
			for j := i; j < k; j++ {
				cj := cols[j][lo:hi]
				s := oi[j]
				for r, v := range ci {
					s += v * cj[r]
				}
				oi[j] = s
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			out.data[j*k+i] = out.data[i*k+j]
		}
	}
	return out
}

// MulVecCols returns X'y for a design matrix given as feature columns: one
// dot product per column, accumulated over rows in ascending order, so it is
// bit-identical to x.T().MulVec(y) on the row-major equivalent.
func MulVecCols(cols [][]float64, y []float64) []float64 {
	out := make([]float64, len(cols))
	for i, c := range cols {
		if len(c) != len(y) {
			panic(fmt.Sprintf("mat: MulVecCols column %d length %d != rhs %d", i, len(c), len(y)))
		}
		out[i] = Dot(c, y)
	}
	return out
}

// CholeskySolve solves A*x = b for symmetric positive-definite A. It returns
// ErrSingular when the factorization fails (A not positive definite).
// A and b are not modified.
func CholeskySolve(a *Dense, b []float64) ([]float64, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: Cholesky needs square matrix, got %dx%d", a.rows, a.cols)
	}
	if a.rows != len(b) {
		return nil, fmt.Errorf("mat: rhs length %d != %d", len(b), a.rows)
	}
	n := a.rows
	// Factor A = L L'.
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, ErrSingular
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	// Forward substitution L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * y[k]
		}
		y[i] = s / l[i*n+i]
	}
	// Back substitution L' x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	return x, nil
}

// Solve solves A*x = b by Gaussian elimination with partial pivoting. It is
// the fallback for systems that are not positive definite. A and b are not
// modified.
func Solve(a *Dense, b []float64) ([]float64, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: Solve needs square matrix, got %dx%d", a.rows, a.cols)
	}
	if a.rows != len(b) {
		return nil, fmt.Errorf("mat: rhs length %d != %d", len(b), a.rows)
	}
	n := a.rows
	aug := a.Clone()
	rhs := make([]float64, n)
	copy(rhs, b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		best := math.Abs(aug.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aug.At(r, col)); v > best {
				best, p = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if p != col {
			for j := 0; j < n; j++ {
				aug.data[col*n+j], aug.data[p*n+j] = aug.data[p*n+j], aug.data[col*n+j]
			}
			rhs[col], rhs[p] = rhs[p], rhs[col]
		}
		pivot := aug.At(col, col)
		for r := col + 1; r < n; r++ {
			f := aug.At(r, col) / pivot
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				aug.data[r*n+j] -= f * aug.data[col*n+j]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= aug.At(i, j) * x[j]
		}
		x[i] = s / aug.At(i, i)
	}
	return x, nil
}

// Dot returns the inner product of a and b. It panics on length mismatch,
// which is always a programming error.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: dot length mismatch %d != %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
