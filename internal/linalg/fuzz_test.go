package linalg

import (
	"fmt"
	"math"
	"testing"
)

// FuzzCSRMulVec differentially tests the sparse kernel against the dense
// one: a fuzzed byte string is decoded into a small dense matrix and a
// vector, converted to CSR both via NewCSRFromDense and via CSRBuilder,
// and all three products must agree. This pins the CSR layout invariants
// (RowPtr monotonicity, ascending columns, duplicate merging) that the
// thermal assembly path depends on.
func FuzzCSRMulVec(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{1, 0})
	f.Add([]byte{5, 0xFF, 0x00, 0x80, 0x7F, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0])%6 + 1
		data = data[1:]
		// Decode bytes into matrix entries; 0 encodes a structural zero so
		// the fuzzer explores sparsity patterns.
		at := func(k int) float64 {
			if k >= len(data) || data[k] == 0 {
				return 0
			}
			return (float64(data[k]) - 128) / 8
		}
		m := NewMatrix(n, n)
		b := NewCSRBuilder(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := at(i*n + j)
				if v != 0 {
					m.Set(i, j, v)
					// Split the value across two builder entries to
					// exercise duplicate merging.
					b.Add(i, j, v/2)
					b.Add(i, j, v/2)
				}
			}
		}
		x := NewVector(n)
		for i := range x {
			x[i] = at(n*n + i)
		}
		want, err := m.MulVec(x)
		if err != nil {
			t.Fatalf("dense MulVec: %v", err)
		}
		for _, c := range []*CSR{
			mustCSR(t, m),
			b.Build(),
		} {
			if err := checkCSRInvariants(c); err != nil {
				t.Fatalf("CSR invariants: %v", err)
			}
			got, err := c.MulVec(x, nil)
			if err != nil {
				t.Fatalf("sparse MulVec: %v", err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("MulVec differs at %d: dense %v sparse %v", i, want[i], got[i])
				}
			}
			// Transpose twice is the identity on the product.
			tt := c.Transpose().Transpose()
			got2, err := tt.MulVec(x, nil)
			if err != nil {
				t.Fatalf("transpose MulVec: %v", err)
			}
			for i := range want {
				if math.Abs(got2[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("double transpose changed the product at %d", i)
				}
			}
		}
	})
}

// FuzzDirectSolve checks the direct solver on random SPD layered-grid
// systems, the shape of the thermal stacks: fuzzed bytes pick a stack of
// 1–3 grid layers (each coarser layer coupled to the cells above it),
// conductances and a panel of 1–5 right-hand sides. Every solve must
// meet the a-posteriori residual bound, and the batched solve must equal
// the solo solves bit for bit.
func FuzzDirectSolve(f *testing.F) {
	f.Add([]byte{4, 2, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120})
	f.Add([]byte{1, 1, 0xFF})
	f.Add([]byte{6, 4, 0x80, 0x7F, 0x01, 0xFE, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 22, 33, 44, 55})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		side := int(data[0])%6 + 1
		layers := int(data[1])%3 + 1
		k := int(data[1])/3%5 + 1
		data = data[2:]
		idx := 0
		// next yields a positive conductance in [0.01, 2.56] from the
		// byte stream (cycling), so the stack stays connected.
		next := func() float64 {
			if len(data) == 0 {
				return 1
			}
			v := float64(data[idx%len(data)])
			idx++
			return 0.01 * (1 + v)
		}
		var start []int
		n := 0
		for l := 0; l < layers; l++ {
			start = append(start, n)
			s := max(1, side>>l)
			n += s * s
		}
		b := NewCSRBuilder(n)
		pair := func(i, j int, g float64) {
			b.Add(i, i, g)
			b.Add(j, j, g)
			b.Add(i, j, -g)
			b.Add(j, i, -g)
		}
		for l := 0; l < layers; l++ {
			s := max(1, side>>l)
			at := func(x, y int) int { return start[l] + y*s + x }
			for y := 0; y < s; y++ {
				for x := 0; x < s; x++ {
					if x+1 < s {
						pair(at(x, y), at(x+1, y), next())
					}
					if y+1 < s {
						pair(at(x, y), at(x, y+1), next())
					}
					if l+1 < layers {
						ls := max(1, side>>(l+1))
						pair(at(x, y), start[l+1]+min(y/2, ls-1)*ls+min(x/2, ls-1), next())
					}
				}
			}
		}
		// Ambient coupling on the last layer makes the system SPD.
		for i := start[layers-1]; i < n; i++ {
			b.Add(i, i, next())
		}
		a := b.Build()
		if err := checkCSRInvariants(a); err != nil {
			t.Fatalf("CSR invariants: %v", err)
		}
		e, err := NewEnvelopeCholesky(a, ProfileOrder(a))
		if err != nil {
			t.Fatalf("factor: %v", err)
		}
		rhs := make([]Vector, k)
		batch := make([]Vector, k)
		for c := range rhs {
			rhs[c] = NewVector(n)
			for i := range rhs[c] {
				rhs[c][i] = next() - 1
			}
			rhs[c][c%n] = 1 // never all-zero
			batch[c] = rhs[c].Clone()
		}
		if err := e.SolveBatchInPlace(batch); err != nil {
			t.Fatalf("batch solve: %v", err)
		}
		for c := range rhs {
			x := rhs[c].Clone()
			e.SolveInPlace(x)
			for i := range x {
				if x[i] != batch[c][i] {
					t.Fatalf("col %d row %d: batch %v solo %v", c, i, batch[c][i], x[i])
				}
			}
			// The condition number of these stacks grows with the
			// conductance spread (≤ 256) and the grid size, so the bound
			// leaves a few orders of magnitude above roundoff.
			if r := relResidualInf(a, x, rhs[c]); r > 1e-10 {
				t.Fatalf("col %d: relative residual %g", c, r)
			}
		}
	})
}

func mustCSR(t *testing.T, m *Matrix) *CSR {
	t.Helper()
	c, err := NewCSRFromDense(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func checkCSRInvariants(c *CSR) error {
	if len(c.RowPtr) != c.N+1 || c.RowPtr[0] != 0 || c.RowPtr[c.N] != len(c.Col) || len(c.Col) != len(c.Val) {
		return fmt.Errorf("layout: rowptr %d nnz %d/%d", len(c.RowPtr), len(c.Col), len(c.Val))
	}
	for i := 0; i < c.N; i++ {
		if c.RowPtr[i] > c.RowPtr[i+1] {
			return fmt.Errorf("rowptr not monotone at %d", i)
		}
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			if c.Col[k] < 0 || c.Col[k] >= c.N {
				return fmt.Errorf("column out of range at %d", k)
			}
			if k > c.RowPtr[i] && c.Col[k-1] >= c.Col[k] {
				return fmt.Errorf("columns not strictly ascending in row %d", i)
			}
		}
	}
	return nil
}
