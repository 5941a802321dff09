package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot, i.e. the matrix is not (numerically) symmetric
// positive definite. Conductance matrices from well-formed RC networks are
// always SPD, so this error usually indicates a malformed thermal
// configuration (e.g. a node with no path to the ambient).
var ErrNotSPD = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of A = L·Lᵀ for a small
// dense matrix; SolveLeastSquares uses it on the normal equations. The
// strict lower triangle is packed row-major and the diagonal is stored
// once. The thermal solves go through EnvelopeCholesky instead.
type Cholesky struct {
	n    int
	lp   []float64 // packed strict lower triangle of L, row i at i(i-1)/2, length i
	diag []float64
}

// NewCholesky factors the symmetric positive-definite matrix a.
// Only the lower triangle of a is read.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: Cholesky of %dx%d", ErrDimension, a.Rows, a.Cols)
	}
	n := a.Rows
	lp := make([]float64, n*(n-1)/2)
	diag := make([]float64, n)
	off := func(i int) int { return i * (i - 1) / 2 }
	for i := 0; i < n; i++ {
		li := lp[off(i) : off(i)+i]
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			lj := lp[off(j) : off(j)+j]
			for k := range lj {
				s -= li[k] * lj[k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotSPD, i, s)
				}
				diag[i] = math.Sqrt(s)
			} else {
				li[j] = s / diag[j]
			}
		}
	}
	return &Cholesky{n: n, lp: lp, diag: diag}, nil
}

// Size returns the dimension of the factored matrix.
func (c *Cholesky) Size() int { return c.n }

// Solve returns x with A·x = b. The factorization is not modified, so Solve
// is safe for concurrent use from multiple goroutines.
func (c *Cholesky) Solve(b Vector) (Vector, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("%w: Cholesky solve n=%d rhs=%d", ErrDimension, c.n, len(b))
	}
	x := b.Clone()
	c.SolveInPlace(x)
	return x, nil
}

// SolveInPlace overwrites b with the solution of A·x = b. The caller must
// guarantee len(b) == Size().
func (c *Cholesky) SolveInPlace(b Vector) {
	n, lp, diag := c.n, c.lp, c.diag
	// Forward substitution: L·y = b.
	off := 0
	for i := 0; i < n; i++ {
		b[i] = (b[i] - dot4(lp[off:off+i], b[:i])) / diag[i]
		off += i
	}
	// Backward substitution: Lᵀ·x = y, one column of Lᵀ (row of L) at a
	// time.
	for i := n - 1; i >= 0; i-- {
		off -= i
		b[i] /= diag[i]
		for k, v := range lp[off : off+i] {
			b[k] -= v * b[i]
		}
	}
}
