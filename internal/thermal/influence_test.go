package thermal

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"darksim/internal/floorplan"
	"darksim/internal/linalg"
)

// TestInfluenceRetryAfterFailure is the regression test for the old
// sync.Once poisoning: a transient solve failure must not be memoized —
// the next InfluenceMatrix call retries and succeeds.
func TestInfluenceRetryAfterFailure(t *testing.T) {
	ResetInfluenceCache()
	defer func() { influenceSolveHook = nil }()

	m := model16(t)
	boom := errors.New("injected solve failure")
	influenceSolveHook = func(col int) error {
		if col == 7 {
			return boom
		}
		return nil
	}
	_, err := m.InfluenceMatrix(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("injected failure not surfaced: %v", err)
	}
	if !strings.Contains(err.Error(), "influence column 7") {
		t.Errorf("error %q does not name the failing column", err)
	}
	// The failure must not have been cached anywhere.
	if st := InfluenceCacheStats(); st.Entries != 0 {
		t.Fatalf("failed computation landed in the cache: %+v", st)
	}
	influenceSolveHook = nil
	inf, err := m.InfluenceMatrix(context.Background())
	if err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if inf == nil || inf.Rows != 100 {
		t.Fatalf("retry returned bad matrix %v", inf)
	}
}

// TestInfluenceBlockedFailureNamesColumn pins the batched panels' error
// shape: the reported column is the original (global) column index, not
// the panel-local one.
func TestInfluenceBlockedFailureNamesColumn(t *testing.T) {
	ResetInfluenceCache()
	defer func() { influenceSolveHook = nil }()

	m := model16(t)
	boom := errors.New("injected solve failure")
	influenceSolveHook = func(col int) error {
		if col == 42 {
			return boom
		}
		return nil
	}
	_, err := m.InfluenceMatrix(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("injected failure not surfaced: %v", err)
	}
	if !strings.Contains(err.Error(), "influence column 42") {
		t.Errorf("error %q does not name global column 42", err)
	}
}

// TestInfluenceCancelStopsWork verifies the context actually reaches the
// column fan-out: cancelling mid-build must abort the remaining columns
// and surface context.Canceled, and a later call with a live context
// must recover.
func TestInfluenceCancelStopsWork(t *testing.T) {
	if runtime.NumCPU() >= 100/influencePanel {
		t.Skip("worker pool as wide as the panel count; cancellation cannot save work")
	}
	ResetInfluenceCache()
	defer func() { influenceSolveHook = nil }()

	m := model16(t)
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	influenceSolveHook = func(col int) error {
		if calls.Add(1) == 3 {
			cancel()
		}
		return nil
	}
	_, err := m.InfluenceMatrix(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v", err)
	}
	if n := calls.Load(); n >= 100 {
		t.Errorf("all %d columns solved despite cancellation", n)
	}
	influenceSolveHook = nil
	if _, err := m.InfluenceMatrix(context.Background()); err != nil {
		t.Fatalf("build after cancellation: %v", err)
	}
}

// TestInfluenceBlockedMatchesColumns pins the batched influence build
// to one-column-at-a-time solves against the same factor, bit for bit:
// a batched sweep performs each column's arithmetic in the solo order,
// whatever panel a column lands in.
func TestInfluenceBlockedMatchesColumns(t *testing.T) {
	ResetInfluenceCache()
	for _, side := range []int{4, 10} {
		m := gridModel(t, side)
		got, err := m.InfluenceMatrix(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		nb := m.NumBlocks()
		ref := linalg.NewMatrix(nb, nb)
		col := linalg.NewVector(m.NumNodes())
		for j := 0; j < nb; j++ {
			m.fillColumnRHS(col, j)
			m.steady.SolveInPlace(col)
			m.readColumn(ref, col, j)
		}
		for i := range ref.Data {
			if got.Data[i] != ref.Data[i] {
				t.Fatalf("%d blocks: influence entry %d batched %v != per-column %v", nb, i, got.Data[i], ref.Data[i])
			}
		}
		if st := m.SolverStats(); st.Solves != uint64(nb)+1 {
			t.Errorf("%d blocks: %d solves, want one per column plus the ambient field", nb, st.Solves)
		}
	}
}

// TestInfluenceWarmPathZeroSolves is the cache contract `make check`
// relies on: a second model of an identical platform takes the influence
// matrix from the process-wide cache without a single linear solve.
func TestInfluenceWarmPathZeroSolves(t *testing.T) {
	ResetInfluenceCache()
	cold := model16(t)
	first, err := cold.InfluenceMatrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := InfluenceCacheStats()
	if st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after cold build: %+v", st)
	}

	warm := model16(t)
	before := warm.SolverStats().Solves
	second, err := warm.InfluenceMatrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Errorf("warm model did not receive the cached matrix")
	}
	if after := warm.SolverStats().Solves; after != before {
		t.Errorf("warm influence path performed %d solves, want 0", after-before)
	}
	if st := InfluenceCacheStats(); st.Hits != 1 {
		t.Errorf("cache hits = %d, want 1 (%+v)", st.Hits, st)
	}
}

// TestInfluenceCacheKey checks the content hash unifies equal platforms
// and separates what it must (boundary conditions, floorplan).
func TestInfluenceCacheKey(t *testing.T) {
	base := model16(t)
	if base.influenceKey() != model16(t).influenceKey() {
		t.Errorf("equal platforms have different cache keys")
	}
	fp, err := floorplan.NewGrid(10, 10, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	hot := DefaultConfig(fp.DieW, fp.DieH, 10, 10)
	hot.AmbientC += 1
	mh, err := NewModel(fp, hot)
	if err != nil {
		t.Fatal(err)
	}
	if base.influenceKey() == mh.influenceKey() {
		t.Errorf("ambient temperature does not separate cache keys")
	}
	if base.influenceKey() == gridModel(t, 9).influenceKey() {
		t.Errorf("floorplan does not separate cache keys")
	}
}

// TestInfluenceCacheEviction exercises the LRU bound and the disable
// switch.
func TestInfluenceCacheEviction(t *testing.T) {
	ResetInfluenceCache()
	prev := SetInfluenceCacheCap(1)
	defer SetInfluenceCacheCap(prev)

	builds := []func(testing.TB) *Model{
		model16,
		func(t testing.TB) *Model { return gridModel(t, 9) },
	}
	for _, build := range builds {
		if _, err := build(t).InfluenceMatrix(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if st := InfluenceCacheStats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("cap-1 cache after two platforms: %+v", st)
	}
	// The first platform was evicted by the second: rebuilding it misses.
	if _, err := builds[0](t).InfluenceMatrix(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := InfluenceCacheStats(); st.Misses != 3 {
		t.Fatalf("evicted platform should miss: %+v", st)
	}

	// Cap 0 disables caching entirely.
	ResetInfluenceCache()
	SetInfluenceCacheCap(0)
	if _, err := builds[0](t).InfluenceMatrix(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := InfluenceCacheStats(); st.Entries != 0 {
		t.Fatalf("disabled cache stored an entry: %+v", st)
	}
}

// ExampleInfluenceCacheStats documents the warm-path contract.
func ExampleInfluenceCacheStats() {
	ResetInfluenceCache()
	fp, _ := floorplan.NewGrid(4, 4, 5.1)
	cfg := DefaultConfig(fp.DieW, fp.DieH, 4, 4)
	for i := 0; i < 2; i++ {
		m, _ := NewModel(fp, cfg)
		m.InfluenceMatrix(context.Background())
	}
	st := InfluenceCacheStats()
	fmt.Printf("hits=%d misses=%d entries=%d\n", st.Hits, st.Misses, st.Entries)
	// Output: hits=1 misses=1 entries=1
}
