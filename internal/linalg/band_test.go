package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gridSPDCSR builds the 5-point Laplacian of an nx×ny grid plus a small
// diagonal shift — the structure the thermal models produce, and the one
// profile orderings are designed for.
func gridSPDCSR(nx, ny int) *CSR {
	n := nx * ny
	b := NewCSRBuilder(n)
	at := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := at(x, y)
			b.Add(i, i, 4.5)
			if x > 0 {
				b.Add(i, at(x-1, y), -1)
			}
			if x < nx-1 {
				b.Add(i, at(x+1, y), -1)
			}
			if y > 0 {
				b.Add(i, at(x, y-1), -1)
			}
			if y < ny-1 {
				b.Add(i, at(x, y+1), -1)
			}
		}
	}
	return b.Build()
}

func envelopeOf(a *CSR, order []int) int {
	inv := make([]int, a.N)
	for k, oi := range order {
		inv[oi] = k
	}
	total := 0
	for k, oi := range order {
		lo := k
		for e := a.RowPtr[oi]; e < a.RowPtr[oi+1]; e++ {
			if j := inv[a.Col[e]]; j < lo {
				lo = j
			}
		}
		total += k - lo + 1
	}
	return total
}

// TestProfileOrderPermutation checks the ordering is a permutation and
// actually shrinks the envelope of a grid numbered in a hostile order.
func TestProfileOrderPermutation(t *testing.T) {
	a := gridSPDCSR(20, 30)
	order := ProfileOrder(a)
	if len(order) != a.N {
		t.Fatalf("order has %d entries for %d nodes", len(order), a.N)
	}
	seen := make([]bool, a.N)
	for _, v := range order {
		if v < 0 || v >= a.N || seen[v] {
			t.Fatalf("order is not a permutation: %v at fault", v)
		}
		seen[v] = true
	}
	natural := make([]int, a.N)
	for i := range natural {
		natural[i] = i
	}
	// Row-major numbering of a 20-wide grid already has a tight band;
	// shuffle it to give the heuristic something hostile.
	rng := rand.New(rand.NewSource(5))
	shuffled := rng.Perm(a.N)
	if got, bad := envelopeOf(a, order), envelopeOf(a, shuffled); got >= bad {
		t.Errorf("profile order envelope %d not below shuffled %d", got, bad)
	}
	if got, nat := envelopeOf(a, order), envelopeOf(a, natural); got > nat {
		t.Errorf("profile order envelope %d worse than natural row-major %d", got, nat)
	}
}

// TestProfileOrderDisconnected covers multiple components, including an
// isolated node.
func TestProfileOrderDisconnected(t *testing.T) {
	b := NewCSRBuilder(7)
	// Component {0,1,2} chain, component {3,4,5} chain, isolated 6.
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		b.Add(e[0], e[0], 3)
		b.Add(e[1], e[1], 3)
		b.Add(e[0], e[1], -1)
		b.Add(e[1], e[0], -1)
	}
	b.Add(6, 6, 3)
	a := b.Build()
	order := ProfileOrder(a)
	seen := make([]bool, a.N)
	for _, v := range order {
		if v < 0 || v >= a.N || seen[v] {
			t.Fatalf("order is not a permutation: %v", order)
		}
		seen[v] = true
	}
}

// randomSPDCSR builds a random symmetric, strictly diagonally dominant
// (hence SPD) sparse matrix with the given off-diagonal density.
func randomSPDCSR(rng *rand.Rand, n int, density float64) *CSR {
	b := NewCSRBuilder(n)
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				v := 2*rng.Float64() - 1
				b.Add(i, j, v)
				b.Add(j, i, v)
				rowAbs[i] += math.Abs(v)
				rowAbs[j] += math.Abs(v)
			}
		}
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, rowAbs[i]+1+rng.Float64())
	}
	return b.Build()
}

// relResidualInf returns ‖A·x − b‖∞ / ‖b‖∞.
func relResidualInf(a *CSR, x, b Vector) float64 {
	ax := NewVector(a.N)
	a.MulVec(x, ax)
	num := 0.0
	for i := range ax {
		num = math.Max(num, math.Abs(ax[i]-b[i]))
	}
	return num / b.NormInf()
}

// TestEnvelopeCholeskyExact pins the factorization against dense ground
// truth: the solve is exact, so A·x must equal b to roundoff — under
// both the natural and the profile ordering — and it must agree with the
// dense Cholesky of the same matrix.
func TestEnvelopeCholeskyExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 17, 60} {
		a := randomSPDCSR(rng, n, 0.2)
		dense, err := NewCholesky(a.Dense())
		if err != nil {
			t.Fatal(err)
		}
		for _, perm := range [][]int{nil, ProfileOrder(a)} {
			e, err := NewEnvelopeCholesky(a, perm)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if e.Size() != n || e.Profile() < n {
				t.Fatalf("n=%d: size %d profile %d", n, e.Size(), e.Profile())
			}
			b := NewVector(n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x := b.Clone()
			e.SolveInPlace(x)
			if r := relResidualInf(a, x, b); r > 1e-13 {
				t.Fatalf("n=%d perm=%v: relative residual %g", n, perm != nil, r)
			}
			ref, _ := dense.Solve(b)
			for i := range x {
				if math.Abs(x[i]-ref[i]) > 1e-12*(1+math.Abs(ref[i])) {
					t.Fatalf("n=%d: envelope %v vs dense %v at %d", n, x[i], ref[i], i)
				}
			}
		}
	}
}

// TestSolveBatchMatchesSingle pins the batched triangular solve to the
// single-RHS path bit for bit on ragged lane counts: batching may only
// interleave independent columns, never change any column's arithmetic.
func TestSolveBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 17, 40} {
		for _, k := range []int{1, 2, 3, 7, 14} {
			a := randomSPDCSR(rng, n, 0.3)
			e, err := NewEnvelopeCholesky(a, ProfileOrder(a))
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			batch := make([]Vector, k)
			single := make([]Vector, k)
			for c := 0; c < k; c++ {
				batch[c] = NewVector(n)
				for i := range batch[c] {
					batch[c][i] = 10 * (rng.Float64() - 0.5)
				}
				single[c] = batch[c].Clone()
			}
			if err := e.SolveBatchInPlace(batch); err != nil {
				t.Fatalf("n=%d k=%d: batch: %v", n, k, err)
			}
			for c := 0; c < k; c++ {
				e.SolveInPlace(single[c])
				for i := range single[c] {
					if batch[c][i] != single[c][i] {
						t.Fatalf("n=%d k=%d col %d row %d: batch %v != single %v",
							n, k, c, i, batch[c][i], single[c][i])
					}
				}
			}
		}
	}
	e, err := NewEnvelopeCholesky(gridSPDCSR(3, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SolveBatchInPlace([]Vector{NewVector(3), NewVector(2)}); !errors.Is(err, ErrDimension) {
		t.Fatalf("want dimension error for short column, got %v", err)
	}
	if err := e.SolveBatchInPlace(nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
}

// TestEnvelopeCholeskyPanel runs shrinking and growing batches through
// one factor of a grid matrix, so pooled scratch of every size is
// reused, and checks every lane against a solo solve bit for bit.
func TestEnvelopeCholeskyPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := gridSPDCSR(12, 9)
	e, err := NewEnvelopeCholesky(a, ProfileOrder(a))
	if err != nil {
		t.Fatal(err)
	}
	for _, ka := range []int{16, 1, 5, 2, 13, 16} {
		cols := make([]Vector, ka)
		for c := range cols {
			cols[c] = NewVector(a.N)
			for i := range cols[c] {
				cols[c][i] = rng.NormFloat64()
			}
		}
		want := make([]Vector, ka)
		for c := range cols {
			want[c] = cols[c].Clone()
			e.SolveInPlace(want[c])
		}
		if err := e.SolveBatchInPlace(cols); err != nil {
			t.Fatal(err)
		}
		for c := range cols {
			for i := range cols[c] {
				if cols[c][i] != want[c][i] {
					t.Fatalf("ka=%d: lane %d differs at %d: %v vs %v", ka, c, i, cols[c][i], want[c][i])
				}
			}
		}
	}
}

// TestEnvelopeCholeskyConcurrent shares one factor between goroutines
// mixing single and batched solves; run under -race it proves the pooled
// scratch is per call, and every result must equal the sequential one.
func TestEnvelopeCholeskyConcurrent(t *testing.T) {
	a := gridSPDCSR(10, 10)
	e, err := NewEnvelopeCholesky(a, ProfileOrder(a))
	if err != nil {
		t.Fatal(err)
	}
	rhs := func(g int) Vector {
		b := NewVector(a.N)
		for i := range b {
			b[i] = float64((i*7+g*13)%11) - 5
		}
		return b
	}
	const workers = 8
	want := make([]Vector, workers)
	for g := range want {
		want[g] = rhs(g)
		e.SolveInPlace(want[g])
	}
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			for it := 0; it < 50; it++ {
				x := rhs(g)
				if g%2 == 0 {
					e.SolveInPlace(x)
				} else if err := e.SolveBatchInPlace([]Vector{x, rhs(g)}); err != nil {
					errs <- err
					return
				}
				for i := range x {
					if x[i] != want[g][i] {
						errs <- fmt.Errorf("worker %d iteration %d: row %d %v != %v", g, it, i, x[i], want[g][i])
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestEnvelopeCholeskyErrors covers the rejection paths: bad orderings
// and non-SPD input.
func TestEnvelopeCholeskyErrors(t *testing.T) {
	a := gridSPDCSR(6, 6)
	if _, err := NewEnvelopeCholesky(a, []int{0, 1}); !errors.Is(err, ErrDimension) {
		t.Errorf("short ordering: %v", err)
	}
	bad := make([]int, a.N)
	if _, err := NewEnvelopeCholesky(a, bad); !errors.Is(err, ErrOptions) {
		t.Errorf("duplicate ordering: %v", err)
	}
	// An indefinite matrix must be rejected at the pivot.
	b := NewCSRBuilder(2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 5)
	b.Add(1, 0, 5)
	b.Add(1, 1, 1)
	if _, err := NewEnvelopeCholesky(b.Build(), nil); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite matrix: %v", err)
	}
}
