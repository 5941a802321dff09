package thermal

import (
	"container/list"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"darksim/internal/linalg"
	"darksim/internal/runner"
)

// influencePanel is how many influence columns one runner item solves in
// a single batched sweep of the steady-state factor. A batched solve is
// bit-identical per column to a single one, so the width changes
// throughput only, never results.
const influencePanel = 16

// defaultInfluenceCacheCap bounds the process-wide influence cache. An
// influence matrix is nb×nb float64s (8 MB at 1024 cores), so a handful
// of entries covers every platform a bench run or service instance
// cycles through without unbounded growth.
const defaultInfluenceCacheCap = 8

// influenceSolveHook, when non-nil, is invoked once per influence column
// before its solve and may inject a failure or observe progress. It
// exists for tests (retry-after-failure, cancellation) and must stay nil
// in production code.
var influenceSolveHook func(col int) error

// CacheStats is a snapshot of the process-wide influence cache.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// infCache is the process-wide influence cache. The influence matrix is
// a pure function of the stack configuration and the floorplan geometry, so models built from equal platforms — a
// service request, a CLI figure and a bench iteration — share one
// computation keyed by content hash. Entries are immutable matrices;
// eviction is LRU.
var infCache = struct {
	sync.Mutex
	cap    int
	order  *list.List // front = most recently used; values are *infEntry
	byKey  map[uint64]*list.Element
	hits   uint64
	misses uint64
}{cap: defaultInfluenceCacheCap, order: list.New(), byKey: make(map[uint64]*list.Element)}

type infEntry struct {
	key uint64
	mat *linalg.Matrix
}

// SetInfluenceCacheCap resizes the process-wide influence cache,
// evicting least-recently-used entries as needed. A non-positive cap
// disables caching entirely. It returns the previous cap.
func SetInfluenceCacheCap(n int) int {
	infCache.Lock()
	defer infCache.Unlock()
	prev := infCache.cap
	infCache.cap = n
	for infCache.order.Len() > 0 && infCache.order.Len() > n {
		evictOldestLocked()
	}
	return prev
}

// ResetInfluenceCache drops every cached influence matrix and zeroes the
// hit/miss counters. Benchmarks use it to measure cold builds honestly.
func ResetInfluenceCache() {
	infCache.Lock()
	defer infCache.Unlock()
	infCache.order.Init()
	infCache.byKey = make(map[uint64]*list.Element)
	infCache.hits, infCache.misses = 0, 0
}

// InfluenceCacheStats snapshots the process-wide influence cache
// counters; the warm-path assertion in `make check` relies on Hits
// moving while the model's solve counter does not.
func InfluenceCacheStats() CacheStats {
	infCache.Lock()
	defer infCache.Unlock()
	return CacheStats{Hits: infCache.hits, Misses: infCache.misses, Entries: infCache.order.Len()}
}

func evictOldestLocked() {
	el := infCache.order.Back()
	if el == nil {
		return
	}
	infCache.order.Remove(el)
	delete(infCache.byKey, el.Value.(*infEntry).key)
}

func cacheGet(key uint64) (*linalg.Matrix, bool) {
	infCache.Lock()
	defer infCache.Unlock()
	if el, ok := infCache.byKey[key]; ok {
		infCache.order.MoveToFront(el)
		infCache.hits++
		return el.Value.(*infEntry).mat, true
	}
	infCache.misses++
	return nil, false
}

func cachePut(key uint64, mat *linalg.Matrix) {
	infCache.Lock()
	defer infCache.Unlock()
	if infCache.cap <= 0 {
		return
	}
	if el, ok := infCache.byKey[key]; ok {
		el.Value.(*infEntry).mat = mat
		infCache.order.MoveToFront(el)
		return
	}
	for infCache.order.Len() >= infCache.cap {
		evictOldestLocked()
	}
	infCache.byKey[key] = infCache.order.PushFront(&infEntry{key: key, mat: mat})
}

// influenceKey content-hashes everything the influence matrix depends
// on: the layer stack, the boundary conditions and the floorplan
// geometry. FNV-64a keeps the key dependency-free; the input is
// structured (length-prefixed fields), not attacker-controlled.
func (m *Model) influenceKey() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(v float64) { w64(math.Float64bits(v)) }
	wi := func(v int) { w64(uint64(int64(v))) }

	wi(len(m.cfg.Layers))
	for _, l := range m.cfg.Layers {
		wf(l.Thickness)
		wf(l.Material.Conductivity)
		wf(l.Material.VolumetricHeat)
		wf(l.W)
		wf(l.H)
		wi(l.Nx)
		wi(l.Ny)
	}
	wf(m.cfg.ConvectionR)
	wf(m.cfg.ConvectionC)
	wf(m.cfg.AmbientC)
	wf(m.fp.DieW)
	wf(m.fp.DieH)
	wi(len(m.fp.Blocks))
	for _, b := range m.fp.Blocks {
		wf(b.X)
		wf(b.Y)
		wf(b.W)
		wf(b.H)
	}
	return h.Sum64()
}

// InfluenceMatrix returns the block×block matrix B with B[i][j] = steady-
// state temperature rise of block i per watt in block j (K/W). By
// linearity, T = B·P + Tambient-field, which is the foundation of the
// TSP computation.
//
// Lookup order: the model's own memo, then the process-wide cache (so a
// freshly constructed model for an already-seen platform pays nothing),
// then a parallel computation: panels of columns solved as batches
// against the steady-state factor. A failed computation is NOT memoized:
// the next call retries, so a cancelled build cannot poison the model.
// The context cancels the panel fan-out.
func (m *Model) InfluenceMatrix(ctx context.Context) (*linalg.Matrix, error) {
	m.infMu.Lock()
	defer m.infMu.Unlock()
	if m.influence != nil {
		return m.influence, nil
	}
	if !m.infKeyed {
		m.infKey = m.influenceKey()
		m.infKeyed = true
	}
	if mat, ok := cacheGet(m.infKey); ok {
		m.influence = mat
		return mat, nil
	}
	mat, err := m.computeInfluence(ctx)
	if err != nil {
		return nil, err
	}
	m.influence = mat
	cachePut(m.infKey, mat)
	return mat, nil
}

// computeInfluence builds the influence matrix. Panels of influencePanel
// columns are independent batched solves against the shared immutable
// steady-state factor and run in parallel on the runner pool. Failed
// panels surface the lowest failing column; runner.MapN keeps the
// lowest-indexed panel's error, so the reported column is deterministic.
func (m *Model) computeInfluence(ctx context.Context) (*linalg.Matrix, error) {
	nb := len(m.blockCells)
	inf := linalg.NewMatrix(nb, nb)
	panels := (nb + influencePanel - 1) / influencePanel
	var pool sync.Pool
	pool.New = func() any {
		cols := make([]linalg.Vector, influencePanel)
		for c := range cols {
			cols[c] = linalg.NewVector(len(m.cells))
		}
		return &cols
	}
	_, err := runner.MapN(ctx, panels, runner.Options{}, func(ctx context.Context, p int) (struct{}, error) {
		if err := ctx.Err(); err != nil {
			return struct{}{}, err
		}
		j0 := p * influencePanel
		ka := min(influencePanel, nb-j0)
		if h := influenceSolveHook; h != nil {
			for c := 0; c < ka; c++ {
				if err := h(j0 + c); err != nil {
					return struct{}{}, fmt.Errorf("influence column %d: %w", j0+c, err)
				}
			}
		}
		cp := pool.Get().(*[]linalg.Vector)
		defer pool.Put(cp)
		cols := (*cp)[:ka]
		for c, col := range cols {
			m.fillColumnRHS(col, j0+c)
		}
		if err := m.steady.SolveBatchInPlace(cols); err != nil {
			return struct{}{}, fmt.Errorf("influence columns [%d,%d): %w", j0, j0+ka, err)
		}
		m.counters.solves.Add(uint64(ka))
		for c, col := range cols {
			m.readColumn(inf, col, j0+c)
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return inf, nil
}

// fillColumnRHS writes the unit-power node loading of block j into rhs.
func (m *Model) fillColumnRHS(rhs linalg.Vector, j int) {
	rhs.Fill(0)
	for _, s := range m.blockCells[j] {
		rhs[s.node] = s.fraction
	}
}

// readColumn reduces the solved node field of column j to per-block
// readout temperatures.
func (m *Model) readColumn(inf *linalg.Matrix, nodeT linalg.Vector, j int) {
	for i := 0; i < inf.Rows; i++ {
		var t float64
		for _, s := range m.blockCells[i] {
			t += nodeT[s.node] * s.weight
		}
		inf.Set(i, j, t)
	}
}
