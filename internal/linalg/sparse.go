package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// CSR is a compressed-sparse-row matrix. Thermal conductance matrices are
// extremely sparse (≈7 nonzeros per row: self, 4 lateral neighbours, up
// and down), so sparse solves on CSR scale to chips far beyond what a
// dense Cholesky handles comfortably. Column indices are ascending within
// each row.
type CSR struct {
	N      int
	RowPtr []int // len N+1
	Col    []int
	Val    []float64
}

// CSRBuilder accumulates coordinate-format entries and assembles them
// into a CSR matrix. Duplicate (i, j) entries are summed in insertion
// order, which makes the assembly deterministic (and, for the thermal
// conductance matrices, bit-identical to the historical dense
// accumulation). This is the primary assembly path: producers build
// directly into sparse form and never materialize an n×n dense matrix.
type CSRBuilder struct {
	n    int
	rows [][]csrEntry
}

type csrEntry struct {
	col int
	val float64
}

// NewCSRBuilder returns a builder for an n×n matrix.
func NewCSRBuilder(n int) *CSRBuilder {
	return &CSRBuilder{n: n, rows: make([][]csrEntry, n)}
}

// Add accumulates v into entry (i, j). It panics on out-of-range indices,
// mirroring dense Matrix indexing.
func (b *CSRBuilder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("linalg: CSRBuilder.Add(%d, %d) on %d×%d", i, j, b.n, b.n))
	}
	b.rows[i] = append(b.rows[i], csrEntry{col: j, val: v})
}

// Build assembles the accumulated entries into a CSR matrix with
// ascending column order per row. The builder can be reused afterwards,
// but entries already added remain.
func (b *CSRBuilder) Build() *CSR {
	c := &CSR{N: b.n, RowPtr: make([]int, b.n+1)}
	var nnz int
	for _, row := range b.rows {
		nnz += len(row) // upper bound before merging
	}
	c.Col = make([]int, 0, nnz)
	c.Val = make([]float64, 0, nnz)
	for i, row := range b.rows {
		// Stable sort keeps duplicates in insertion order so their sum
		// is reproducible.
		sort.SliceStable(row, func(a, b int) bool { return row[a].col < row[b].col })
		for k := 0; k < len(row); {
			col, sum := row[k].col, row[k].val
			for k++; k < len(row) && row[k].col == col; k++ {
				sum += row[k].val
			}
			c.Col = append(c.Col, col)
			c.Val = append(c.Val, sum)
		}
		c.RowPtr[i+1] = len(c.Col)
	}
	return c
}

// NewCSRFromDense converts a square dense matrix, dropping entries with
// |v| <= dropTol. It is retained as a test helper for comparing the
// sparse and dense code paths; production assembly uses CSRBuilder and
// never materializes the dense form.
func NewCSRFromDense(m *Matrix, dropTol float64) (*CSR, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("%w: CSR of %dx%d", ErrDimension, m.Rows, m.Cols)
	}
	c := &CSR{N: m.Rows, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			if math.Abs(v) > dropTol {
				c.Col = append(c.Col, j)
				c.Val = append(c.Val, v)
			}
		}
		c.RowPtr[i+1] = len(c.Col)
	}
	return c, nil
}

// NNZ returns the number of stored nonzeros.
func (c *CSR) NNZ() int { return len(c.Val) }

// Dense materializes the matrix in dense form. Intended for the small-n
// direct-solver path and for tests; it is the only place the n×n form is
// ever allocated.
func (c *CSR) Dense() *Matrix {
	m := NewMatrix(c.N, c.N)
	for i := 0; i < c.N; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			m.Set(i, c.Col[k], c.Val[k])
		}
	}
	return m
}

// Transpose returns Aᵀ in CSR form (column indices ascending).
func (c *CSR) Transpose() *CSR {
	t := &CSR{N: c.N, RowPtr: make([]int, c.N+1)}
	counts := make([]int, c.N)
	for _, j := range c.Col {
		counts[j]++
	}
	for j := 0; j < c.N; j++ {
		t.RowPtr[j+1] = t.RowPtr[j] + counts[j]
	}
	t.Col = make([]int, len(c.Col))
	t.Val = make([]float64, len(c.Val))
	next := make([]int, c.N)
	copy(next, t.RowPtr[:c.N])
	// Row-major traversal writes each transposed row in ascending
	// original-row order, i.e. ascending column order of the transpose.
	for i := 0; i < c.N; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			j := c.Col[k]
			t.Col[next[j]] = i
			t.Val[next[j]] = c.Val[k]
			next[j]++
		}
	}
	return t
}

// AddDiagonal returns a new matrix A + diag(d) sharing the sparsity
// pattern of A (RowPtr and Col are shared, values are copied). Every row
// must already store a diagonal entry; thermal conductance matrices
// always do.
func (c *CSR) AddDiagonal(d Vector) (*CSR, error) {
	if len(d) != c.N {
		return nil, fmt.Errorf("%w: AddDiagonal n=%d d=%d", ErrDimension, c.N, len(d))
	}
	out := &CSR{N: c.N, RowPtr: c.RowPtr, Col: c.Col, Val: make([]float64, len(c.Val))}
	copy(out.Val, c.Val)
	for i := 0; i < c.N; i++ {
		found := false
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			if c.Col[k] == i {
				out.Val[k] += d[i]
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("linalg: AddDiagonal: row %d has no stored diagonal", i)
		}
	}
	return out, nil
}

// IsSymmetric reports whether the matrix equals its transpose to within
// tol. Matrices whose sparsity pattern is itself asymmetric are reported
// as asymmetric even if the mismatched entries are within tol of zero.
func (c *CSR) IsSymmetric(tol float64) bool {
	t := c.Transpose()
	if len(t.Col) != len(c.Col) {
		return false
	}
	for i := range c.Col {
		if c.Col[i] != t.Col[i] || math.Abs(c.Val[i]-t.Val[i]) > tol {
			return false
		}
	}
	for i := range c.RowPtr {
		if c.RowPtr[i] != t.RowPtr[i] {
			return false
		}
	}
	return true
}

// MulVec computes y = A·x into the provided slice (allocated if nil).
func (c *CSR) MulVec(x, y Vector) (Vector, error) {
	if len(x) != c.N {
		return nil, fmt.Errorf("%w: CSR MulVec n=%d x=%d", ErrDimension, c.N, len(x))
	}
	if y == nil {
		y = NewVector(c.N)
	}
	if len(y) != c.N {
		return nil, fmt.Errorf("%w: CSR MulVec n=%d y=%d", ErrDimension, c.N, len(y))
	}
	for i := 0; i < c.N; i++ {
		s := 0.0
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			s += c.Val[k] * x[c.Col[k]]
		}
		y[i] = s
	}
	return y, nil
}

// Diagonal extracts the main diagonal.
func (c *CSR) Diagonal() Vector {
	d := NewVector(c.N)
	for i := 0; i < c.N; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			if c.Col[k] == i {
				d[i] = c.Val[k]
				break
			}
		}
	}
	return d
}

// Preconditioner approximates A⁻¹ for the preconditioned CG solve.
// Implementations are immutable after construction and safe for
// concurrent Apply calls.
type Preconditioner interface {
	// Apply computes z ≈ A⁻¹·r. z and r may alias the same slice.
	Apply(z, r Vector)
}

// Jacobi is the diagonal (point) preconditioner — the cheap, breakdown-
// free fallback when the incomplete Cholesky cannot be formed.
type Jacobi struct {
	invDiag Vector
}

// NewJacobi builds the diagonal preconditioner. SPD matrices have
// strictly positive diagonals; anything else is rejected.
func NewJacobi(a *CSR) (*Jacobi, error) {
	inv := a.Diagonal()
	for i, d := range inv {
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: non-positive diagonal at %d", ErrNotSPD, i)
		}
		inv[i] = 1 / d
	}
	return &Jacobi{invDiag: inv}, nil
}

// Apply computes z = D⁻¹·r.
func (j *Jacobi) Apply(z, r Vector) {
	for i := range z {
		z[i] = j.invDiag[i] * r[i]
	}
}

// IC0 is the zero-fill incomplete Cholesky preconditioner: A ≈ L·Lᵀ where
// L keeps exactly the lower-triangular sparsity pattern of A. On the
// thermal grids (M-matrices) it typically cuts CG iteration counts by an
// order of magnitude versus Jacobi; on banded matrices whose exact factor
// is fill-free (e.g. tridiagonal chains) it is the exact factorization.
type IC0 struct {
	l  *CSR // lower triangle, ascending cols, diagonal last in each row
	lt *CSR // Lᵀ: upper triangle, diagonal first in each row
}

// NewIC0 computes the IC(0) factor of the SPD matrix a. A breakdown
// (missing or non-positive pivot) returns ErrNotSPD; callers usually fall
// back to NewJacobi.
func NewIC0(a *CSR) (*IC0, error) {
	n := a.N
	cols := make([][]int, n)     // per-row lower-pattern columns, ascending
	vals := make([][]float64, n) // factor values, built in place
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.Col[k]; j <= i {
				cols[i] = append(cols[i], j)
				vals[i] = append(vals[i], a.Val[k])
			}
		}
		if len(cols[i]) == 0 || cols[i][len(cols[i])-1] != i {
			return nil, fmt.Errorf("%w: IC(0) row %d has no diagonal", ErrNotSPD, i)
		}
	}
	for i := 0; i < n; i++ {
		ci, vi := cols[i], vals[i]
		for idx, j := range ci {
			// s = a_ij − Σ_k L_ik·L_jk over shared columns k < j.
			s := vi[idx]
			cj, vj := cols[j], vals[j]
			p, q := 0, 0
			for p < idx && q < len(cj) && cj[q] < j {
				switch {
				case ci[p] < cj[q]:
					p++
				case ci[p] > cj[q]:
					q++
				default:
					s -= vi[p] * vj[q]
					p++
					q++
				}
			}
			if j < i {
				vi[idx] = s / vj[len(vj)-1] // L_jj is row j's last entry
			} else {
				if s <= 0 || math.IsNaN(s) {
					return nil, fmt.Errorf("%w: IC(0) pivot %d = %g", ErrNotSPD, i, s)
				}
				vi[idx] = math.Sqrt(s)
			}
		}
	}
	l := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		l.Col = append(l.Col, cols[i]...)
		l.Val = append(l.Val, vals[i]...)
		l.RowPtr[i+1] = len(l.Col)
	}
	return &IC0{l: l, lt: l.Transpose()}, nil
}

// Apply solves L·Lᵀ·z = r by one forward and one backward triangular
// sweep. z and r may alias; no scratch is needed, so concurrent calls
// with distinct slices are safe.
func (m *IC0) Apply(z, r Vector) {
	l, lt := m.l, m.lt
	// Forward: L·y = r (diagonal is the last entry of each row).
	for i := 0; i < l.N; i++ {
		lo, hi := l.RowPtr[i], l.RowPtr[i+1]
		s := r[i]
		for k := lo; k < hi-1; k++ {
			s -= l.Val[k] * z[l.Col[k]]
		}
		z[i] = s / l.Val[hi-1]
	}
	// Backward: Lᵀ·z = y in place (diagonal is the first entry).
	for i := lt.N - 1; i >= 0; i-- {
		lo, hi := lt.RowPtr[i], lt.RowPtr[i+1]
		s := z[i]
		for k := lo + 1; k < hi; k++ {
			s -= lt.Val[k] * z[lt.Col[k]]
		}
		z[i] = s / lt.Val[lo]
	}
}

// CGOptions tunes the conjugate-gradient solver.
type CGOptions struct {
	// Tol is the relative residual tolerance (default 1e-10). Negative
	// or NaN values are rejected.
	Tol float64
	// MaxIter bounds the iterations (default 4·N). Negative values are
	// rejected; 0 selects the default.
	MaxIter int
	// Precond overrides the preconditioner. When nil, IC(0) is used,
	// falling back to Jacobi if the incomplete factorization breaks
	// down.
	Precond Preconditioner
}

// ErrOptions is returned for invalid CGOptions values.
var ErrOptions = errors.New("linalg: invalid CG options")

// withDefaults validates the options and fills in the defaults for n
// unknowns.
func (o CGOptions) withDefaults(n int) (CGOptions, error) {
	if o.Tol < 0 || math.IsNaN(o.Tol) {
		return o, fmt.Errorf("%w: Tol %g", ErrOptions, o.Tol)
	}
	if o.MaxIter < 0 {
		return o, fmt.Errorf("%w: MaxIter %d", ErrOptions, o.MaxIter)
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter == 0 {
		o.MaxIter = 4 * n
	}
	return o, nil
}

// ErrNoConvergence is returned when CG exhausts its iteration budget.
var ErrNoConvergence = errors.New("linalg: CG did not converge")

// CGStats reports the work and accuracy of one CG solve.
type CGStats struct {
	// Iterations is the number of CG iterations performed.
	Iterations int
	// Residual is the relative residual ‖b − A·x‖₂/‖b‖₂ at exit.
	Residual float64
}

// CGSolver solves A·x = b repeatedly against one matrix, reusing its
// scratch vectors across solves. It is not safe for concurrent use; pool
// one solver per goroutine (they can share the matrix and the
// preconditioner, which are immutable).
type CGSolver struct {
	a       *CSR
	prec    Preconditioner
	tol     float64
	maxIter int

	r, z, p, ap Vector
}

// NewCGSolver validates the options, builds the preconditioner (IC(0)
// with Jacobi fallback unless overridden) and allocates the scratch
// buffers once.
func NewCGSolver(a *CSR, opt CGOptions) (*CGSolver, error) {
	opt, err := opt.withDefaults(a.N)
	if err != nil {
		return nil, err
	}
	prec := opt.Precond
	if prec == nil {
		ic, err := NewIC0(a)
		if err == nil {
			prec = ic
		} else {
			j, jerr := NewJacobi(a)
			if jerr != nil {
				return nil, jerr
			}
			prec = j
		}
	}
	return &CGSolver{
		a:       a,
		prec:    prec,
		tol:     opt.Tol,
		maxIter: opt.MaxIter,
		r:       NewVector(a.N),
		z:       NewVector(a.N),
		p:       NewVector(a.N),
		ap:      NewVector(a.N),
	}, nil
}

// Preconditioner returns the preconditioner the solver settled on.
func (s *CGSolver) Preconditioner() Preconditioner { return s.prec }

// Solve runs preconditioned CG on A·x = b. x is both the initial guess
// and the result — warm-starting from a nearby solution (e.g. the
// previous transient step) cuts the iteration count substantially. The
// returned stats are valid even when the solve fails to converge.
func (s *CGSolver) Solve(b, x Vector) (CGStats, error) {
	a := s.a
	if len(b) != a.N || len(x) != a.N {
		return CGStats{}, fmt.Errorf("%w: CG n=%d rhs=%d x=%d", ErrDimension, a.N, len(b), len(x))
	}
	bNorm := b.Norm2()
	if bNorm == 0 {
		x.Fill(0)
		return CGStats{}, nil
	}
	// r = b − A·x (x may be a warm start).
	if _, err := a.MulVec(x, s.ap); err != nil {
		return CGStats{}, err
	}
	for i := range s.r {
		s.r[i] = b[i] - s.ap[i]
	}
	if res := s.r.Norm2(); res <= s.tol*bNorm {
		return CGStats{Residual: res / bNorm}, nil
	}
	s.prec.Apply(s.z, s.r)
	copy(s.p, s.z)
	rz := s.r.Dot(s.z)
	var res float64
	for iter := 1; iter <= s.maxIter; iter++ {
		if _, err := a.MulVec(s.p, s.ap); err != nil {
			return CGStats{Iterations: iter}, err
		}
		pap := s.p.Dot(s.ap)
		if pap <= 0 {
			return CGStats{Iterations: iter}, fmt.Errorf("%w: p·Ap = %g at iteration %d", ErrNotSPD, pap, iter)
		}
		alpha := rz / pap
		x.AddScaled(alpha, s.p)
		s.r.AddScaled(-alpha, s.ap)
		res = s.r.Norm2()
		if res <= s.tol*bNorm {
			return CGStats{Iterations: iter, Residual: res / bNorm}, nil
		}
		s.prec.Apply(s.z, s.r)
		rzNext := s.r.Dot(s.z)
		beta := rzNext / rz
		rz = rzNext
		for i := range s.p {
			s.p[i] = s.z[i] + beta*s.p[i]
		}
	}
	return CGStats{Iterations: s.maxIter, Residual: res / bNorm},
		fmt.Errorf("%w after %d iterations (residual %.3g)", ErrNoConvergence, s.maxIter, res/bNorm)
}

// SolveCG solves A·x = b for a symmetric positive-definite CSR matrix
// with preconditioned conjugate gradients (IC(0), falling back to
// Jacobi). It returns the solution and the solve statistics. Callers
// with many right-hand sides should hold a CGSolver instead to reuse the
// preconditioner and scratch buffers.
func SolveCG(a *CSR, b Vector, opt CGOptions) (Vector, CGStats, error) {
	s, err := NewCGSolver(a, opt)
	if err != nil {
		return nil, CGStats{}, err
	}
	x := NewVector(a.N)
	stats, err := s.Solve(b, x)
	if err != nil {
		return nil, stats, err
	}
	return x, stats, nil
}
