package linalg

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// This file implements the repository's one direct sparse solver: an
// exact envelope (skyline) Cholesky factorization under a profile-
// reducing ordering. The thermal RC matrices are layered grid graphs:
// under a profile ordering (reverse Cuthill–McKee or Sloan) their
// envelope is narrow for grid rows and only widens locally where coarse
// layers overlap many fine cells. Cholesky fills nothing outside the
// envelope, so storing each row from its first nonzero to the diagonal
// captures the exact factor, and a solve — two triangular sweeps over the
// stored entries — costs O(nnz(L)) instead of the dense O(n²).

// ProfileOrder returns an envelope-reducing ordering of the symmetric
// sparsity graph of a: order[k] is the original index of the node placed
// at position k. Per connected component it generates reverse
// Cuthill–McKee orderings from several pseudo-peripheral roots plus a
// Sloan ordering, scores each candidate by the envelope it would store,
// and keeps the smallest — so a weak heuristic on an awkward graph can
// never drag the result below the best candidate.
func ProfileOrder(a *CSR) []int {
	n := a.N
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		deg[i] = a.RowPtr[i+1] - a.RowPtr[i]
	}
	order := make([]int, 0, n)
	visited := make([]bool, n)
	queue := make([]int, 0, n)
	scratch := make([]bool, n)
	scratch2 := make([]bool, n)

	// bfs appends the component of root to queue in Cuthill–McKee order
	// (neighbours by increasing degree) and returns the last level and
	// the BFS depth.
	bfs := func(root int, mark []bool) ([]int, int) {
		level := []int{root}
		depth := 0
		mark[root] = true
		queue = append(queue[:0], root)
		start := 0
		for start < len(queue) {
			levelEnd := len(queue)
			for ; start < levelEnd; start++ {
				i := queue[start]
				nbrStart := len(queue)
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					j := a.Col[k]
					if j != i && !mark[j] {
						mark[j] = true
						queue = append(queue, j)
					}
				}
				nbr := queue[nbrStart:]
				sort.Slice(nbr, func(x, y int) bool {
					if deg[nbr[x]] != deg[nbr[y]] {
						return deg[nbr[x]] < deg[nbr[y]]
					}
					return nbr[x] < nbr[y]
				})
			}
			if levelEnd < len(queue) {
				level = queue[levelEnd:]
				depth++
			}
		}
		return level, depth
	}

	// envelopeSize scores a component ordering by the number of lower-
	// envelope entries it would store; positions outside the component
	// cannot tighten a row (the component is connected), so scoring each
	// component independently is exact.
	envelopeSize := func(ord []int) int {
		inv := make([]int, n)
		for i := range inv {
			inv[i] = -1
		}
		for k, oi := range ord {
			inv[oi] = k
		}
		total := 0
		for k, oi := range ord {
			lo := k
			for e := a.RowPtr[oi]; e < a.RowPtr[oi+1]; e++ {
				if j := inv[a.Col[e]]; j >= 0 && j < lo {
					lo = j
				}
			}
			total += k - lo + 1
		}
		return total
	}

	// componentOrder runs Cuthill–McKee from root over the unvisited
	// component without committing the visit marks, and reverses the
	// result: reversing turns the lower profile into an upper one and
	// empirically tightens the envelope (the "R" in RCM).
	componentOrder := func(root int) []int {
		copy(scratch2, visited)
		bfs(root, scratch2)
		ord := append([]int(nil), queue...)
		for l, r := 0, len(ord)-1; l < r; l, r = l+1, r-1 {
			ord[l], ord[r] = ord[r], ord[l]
		}
		return ord
	}

	// sloanOrder numbers the unvisited component holding s by Sloan's
	// profile-reduction heuristic: each step picks the candidate with the
	// best blend of "far from the end vertex e" (keeps the wavefront
	// moving) and "cheap to absorb" (small degree, many neighbours
	// already numbered). Statuses follow the classic scheme — inactive,
	// preactive (adjacent to the wavefront), active (adjacent to a
	// numbered node), postactive (numbered).
	const (
		sloanInactive = iota
		sloanPreactive
		sloanActive
		sloanPostactive
	)
	prio := make([]int, n)
	status := make([]int, n)
	sloanOrder := func(s, e int) []int {
		// Distance from e over the component, BFS.
		copy(scratch2, visited)
		dist := make(map[int]int)
		frontier := append(queue[:0], e)
		scratch2[e] = true
		dist[e] = 0
		for len(frontier) > 0 {
			next := frontier[:0:0]
			for _, i := range frontier {
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					j := a.Col[k]
					if j != i && !scratch2[j] {
						scratch2[j] = true
						dist[j] = dist[i] + 1
						next = append(next, j)
					}
				}
			}
			frontier = next
		}
		const w1, w2 = 2, 1 // Sloan's weights: distance vs. degree
		for v, d := range dist {
			prio[v] = w1*d - w2*(deg[v]+1)
			status[v] = sloanInactive
		}
		ord := make([]int, 0, len(dist))
		cand := append([]int(nil), s)
		status[s] = sloanPreactive
		for len(cand) > 0 {
			// Linear max scan; wavefronts are small next to n.
			bi := 0
			for i := 1; i < len(cand); i++ {
				if prio[cand[i]] > prio[cand[bi]] {
					bi = i
				}
			}
			v := cand[bi]
			cand[bi] = cand[len(cand)-1]
			cand = cand[:len(cand)-1]
			if status[v] == sloanPreactive {
				for k := a.RowPtr[v]; k < a.RowPtr[v+1]; k++ {
					w := a.Col[k]
					if w == v {
						continue
					}
					prio[w] += w2
					if status[w] == sloanInactive {
						status[w] = sloanPreactive
						cand = append(cand, w)
					}
				}
			}
			ord = append(ord, v)
			status[v] = sloanPostactive
			for k := a.RowPtr[v]; k < a.RowPtr[v+1]; k++ {
				w := a.Col[k]
				if w == v || status[w] != sloanPreactive {
					continue
				}
				status[w] = sloanActive
				prio[w] += w2
				for k2 := a.RowPtr[w]; k2 < a.RowPtr[w+1]; k2++ {
					u := a.Col[k2]
					if u == w || status[u] == sloanPostactive {
						continue
					}
					prio[u] += w2
					if status[u] == sloanInactive {
						status[u] = sloanPreactive
						cand = append(cand, u)
					}
				}
			}
		}
		return ord
	}

	for seed := 0; seed < n; seed++ {
		if visited[seed] {
			continue
		}
		// Candidate roots: the seed itself and the pseudo-peripheral
		// vertices found by hopping to the minimum-degree vertex of the
		// deepest BFS level (George–Liu). Deeper level structures usually
		// mean thinner levels, but not always — so every candidate's
		// component ordering is scored by its actual envelope size and
		// the smallest wins.
		roots := []int{seed}
		root := seed
		copy(scratch, visited)
		_, depth := bfs(root, scratch)
		for {
			copy(scratch, visited)
			last, _ := bfs(root, scratch)
			next := last[0]
			for _, v := range last {
				if deg[v] < deg[next] {
					next = v
				}
			}
			if next == root {
				break
			}
			roots = append(roots, next)
			copy(scratch, visited)
			_, d := bfs(next, scratch)
			if d <= depth {
				break
			}
			root, depth = next, d
		}
		best := componentOrder(roots[0])
		bestEnv := envelopeSize(best)
		for _, r := range roots[1:] {
			if cand := componentOrder(r); envelopeSize(cand) < bestEnv {
				best, bestEnv = cand, envelopeSize(cand)
			}
		}
		// Sloan candidates between the pseudo-peripheral pair, both ways.
		copy(scratch, visited)
		last, _ := bfs(root, scratch)
		end := last[0]
		for _, v := range last {
			if deg[v] < deg[end] {
				end = v
			}
		}
		for _, pair := range [][2]int{{root, end}, {end, root}} {
			if pair[0] == pair[1] {
				continue
			}
			if cand := sloanOrder(pair[0], pair[1]); envelopeSize(cand) < bestEnv {
				best, bestEnv = cand, envelopeSize(cand)
			}
		}
		for _, v := range best {
			visited[v] = true
		}
		order = append(order, best...)
	}
	return order
}

// EnvelopeCholesky is the exact L·Lᵀ factorization of a symmetric
// positive definite matrix under a caller-supplied ordering. Row i of L
// is stored packed from its first nonzero column lo[i] up to the
// diagonal (the envelope), the diagonal separately. Both triangular
// sweeps stream these packed rows: the forward sweep takes one dot4
// product per row, the backward sweep subtracts each row, scaled by the
// solved entry, from the entries left of it (axpy4). Sweeping the rows
// backwards needs no transposed copy, which would be a zero-padded
// 1.5–2.4× the size of L on the thermal stacks. Every solve — single or
// batched — performs the same floating-point operations in the same
// order. Immutable after construction; solves are safe for concurrent
// use (per-call scratch comes from an internal pool).
type EnvelopeCholesky struct {
	n    int
	perm []int     // position k holds original node perm[k]
	lo   []int     // row i of L starts at column lo[i]
	lp   []int     // strict lower row i is l[lp[i]:lp[i+1]]
	l    []float64 // packed strict lower rows of L
	diag []float64
	pool sync.Pool // *[]float64 permuted-solution scratch
}

// NewEnvelopeCholesky factors the SPD matrix a under the ordering perm
// (nil for the natural order; ProfileOrder(a) for the small-profile
// one). A non-positive pivot returns ErrNotSPD.
func NewEnvelopeCholesky(a *CSR, perm []int) (*EnvelopeCholesky, error) {
	n := a.N
	if perm == nil {
		perm = make([]int, n)
		for i := range perm {
			perm[i] = i
		}
	}
	if len(perm) != n {
		return nil, fmt.Errorf("%w: ordering has %d entries for a %d-node matrix", ErrDimension, len(perm), n)
	}
	inv := make([]int, n)
	for i := range inv {
		inv[i] = -1
	}
	for k, oi := range perm {
		if oi < 0 || oi >= n || inv[oi] != -1 {
			return nil, fmt.Errorf("%w: ordering is not a permutation of 0..%d", ErrOptions, n-1)
		}
		inv[oi] = k
	}
	lo := make([]int, n)
	for i := range lo {
		lo[i] = i
	}
	for i := 0; i < n; i++ {
		bi := inv[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			bj := inv[a.Col[k]]
			if bj < lo[bi] {
				lo[bi] = bj
			}
			// Symmetry: an upper entry (bi < bj) widens row bj.
			if bi < lo[bj] {
				lo[bj] = bi
			}
		}
	}
	lp := make([]int, n+1)
	for i := 0; i < n; i++ {
		lp[i+1] = lp[i] + i - lo[i]
	}
	l := make([]float64, lp[n])
	diag := make([]float64, n)
	for bi := 0; bi < n; bi++ {
		oi := perm[bi]
		for k := a.RowPtr[oi]; k < a.RowPtr[oi+1]; k++ {
			switch bj := inv[a.Col[k]]; {
			case bj < bi:
				l[lp[bi]+bj-lo[bi]] = a.Val[k]
			case bj == bi:
				diag[bi] = a.Val[k]
			}
		}
	}
	// Row-oriented envelope Cholesky in place: entry (i,j) subtracts the
	// overlap [max(lo[i],lo[j]), j) of rows i and j; no fill occurs
	// outside the envelope.
	for i := 0; i < n; i++ {
		ri := l[lp[i]:lp[i+1]]
		li := lo[i]
		for j := li; j < i; j++ {
			lj := lo[j]
			k0 := max(li, lj)
			s := ri[j-li] - dot4(ri[k0-li:j-li], l[lp[j]+k0-lj:lp[j+1]])
			ri[j-li] = s / diag[j]
		}
		s := diag[i] - dot4(ri, ri)
		if s <= 0 || math.IsNaN(s) {
			return nil, fmt.Errorf("%w: envelope Cholesky pivot %d = %g", ErrNotSPD, i, s)
		}
		diag[i] = math.Sqrt(s)
	}
	return &EnvelopeCholesky{n: n, perm: perm, lo: lo, lp: lp, l: l, diag: diag}, nil
}

// Size returns the dimension of the factored matrix.
func (e *EnvelopeCholesky) Size() int { return e.n }

// Profile returns the number of stored entries of L, diagonal included:
// the fill of the factor. Each of the two sweeps of a solve streams
// them once.
func (e *EnvelopeCholesky) Profile() int { return len(e.l) + e.n }

func (e *EnvelopeCholesky) getScratch(size int) (*[]float64, []float64) {
	p, ok := e.pool.Get().(*[]float64)
	if !ok {
		p = new([]float64)
	}
	if cap(*p) < size {
		*p = make([]float64, size)
	}
	return p, (*p)[:size]
}

// dot4 is the substitution kernel's dot product, unrolled eight-wide
// (with a four-wide tail) into independent accumulators so the
// multiply-add chains overlap instead of serializing on the FP add
// latency. Every forward sweep in this package goes through this one
// helper and every backward sweep of the envelope factor through axpy4:
// their operation order IS the solver's floating-point contract, and
// every caller sharing them is what keeps batched and single solves
// bit-for-bit interchangeable.
func dot4(a, x []float64) float64 {
	x = x[:len(a)] // one bounds check here buys check-free inner loops
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	k := 0
	for ; k+8 <= len(a); k += 8 {
		s0 += a[k] * x[k]
		s1 += a[k+1] * x[k+1]
		s2 += a[k+2] * x[k+2]
		s3 += a[k+3] * x[k+3]
		s4 += a[k+4] * x[k+4]
		s5 += a[k+5] * x[k+5]
		s6 += a[k+6] * x[k+6]
		s7 += a[k+7] * x[k+7]
	}
	for ; k+4 <= len(a); k += 4 {
		s0 += a[k] * x[k]
		s1 += a[k+1] * x[k+1]
		s2 += a[k+2] * x[k+2]
		s3 += a[k+3] * x[k+3]
	}
	for ; k < len(a); k++ {
		s0 += a[k] * x[k]
	}
	return ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7))
}

// sweep solves L·Lᵀ·y = y in place in the permuted numbering.
func (e *EnvelopeCholesky) sweep(y []float64) {
	l, diag := e.l, e.diag
	for i := 0; i < e.n; i++ {
		y[i] = (y[i] - dot4(l[e.lp[i]:e.lp[i+1]], y[e.lo[i]:i])) / diag[i]
	}
	for i := e.n - 1; i >= 0; i-- {
		v := y[i] / diag[i]
		y[i] = v
		axpy4(y[e.lo[i]:i], l[e.lp[i]:e.lp[i+1]], v)
	}
}

// axpy4 subtracts v·a from y, unrolled four-wide.
func axpy4(y, a []float64, v float64) {
	y = y[:len(a)]
	k := 0
	for ; k+4 <= len(a); k += 4 {
		y[k] -= a[k] * v
		y[k+1] -= a[k+1] * v
		y[k+2] -= a[k+2] * v
		y[k+3] -= a[k+3] * v
	}
	for ; k < len(a); k++ {
		y[k] -= a[k] * v
	}
}

// SolveInPlace overwrites b with the solution of A·x = b. The caller
// must guarantee len(b) == Size().
func (e *EnvelopeCholesky) SolveInPlace(b Vector) {
	p, y := e.getScratch(e.n)
	for i, oi := range e.perm {
		y[i] = b[oi]
	}
	e.sweep(y)
	for i, oi := range e.perm {
		b[oi] = y[i]
	}
	e.pool.Put(p)
}

// SolveBatchInPlace overwrites each column with the solution of
// A·x = col, sharing one pass over the factor across all columns. Per
// column the floating-point operations and their order are those of
// SolveInPlace, so a batched solve is bit-for-bit equal to solving the
// columns one by one; the batching only keeps each factor row
// cache-hot across the columns. Every column must have length Size().
func (e *EnvelopeCholesky) SolveBatchInPlace(cols []Vector) error {
	for ci, col := range cols {
		if len(col) != e.n {
			return fmt.Errorf("%w: envelope batch solve n=%d col %d len=%d", ErrDimension, e.n, ci, len(col))
		}
	}
	switch len(cols) {
	case 0:
		return nil
	case 1:
		e.SolveInPlace(cols[0])
		return nil
	}
	n := e.n
	p, ys := e.getScratch(n * len(cols))
	for c, col := range cols {
		y := ys[c*n : (c+1)*n]
		for i, oi := range e.perm {
			y[i] = col[oi]
		}
	}
	l, diag := e.l, e.diag
	for i := 0; i < n; i++ {
		row, d, li := l[e.lp[i]:e.lp[i+1]], diag[i], e.lo[i]
		for c := range cols {
			y := ys[c*n : (c+1)*n]
			y[i] = (y[i] - dot4(row, y[li:i])) / d
		}
	}
	for i := n - 1; i >= 0; i-- {
		row, d, li := l[e.lp[i]:e.lp[i+1]], diag[i], e.lo[i]
		for c := range cols {
			y := ys[c*n : (c+1)*n]
			v := y[i] / d
			y[i] = v
			axpy4(y[li:i], row, v)
		}
	}
	for c, col := range cols {
		y := ys[c*n : (c+1)*n]
		for i, oi := range e.perm {
			col[oi] = y[i]
		}
	}
	e.pool.Put(p)
	return nil
}
