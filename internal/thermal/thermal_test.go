package thermal

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"darksim/internal/floorplan"
	"darksim/internal/linalg"
)

// model16 builds the standard 100-core 16 nm platform model (5.1 mm²
// cores) used by most tests.
func model16(t testing.TB) *Model {
	t.Helper()
	fp, err := floorplan.NewGrid(10, 10, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(fp, DefaultConfig(fp.DieW, fp.DieH, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(0.02, 0.02, 4, 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.Layers = nil
	if err := bad.Validate(); err == nil {
		t.Errorf("no layers should error")
	}
	bad = good
	bad.Layers = append([]Layer(nil), good.Layers...)
	bad.Layers[0].Thickness = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("zero thickness should error")
	}
	bad = good
	bad.Layers = append([]Layer(nil), good.Layers...)
	bad.Layers[1].Nx = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("empty grid should error")
	}
	bad = good
	bad.Layers = append([]Layer(nil), good.Layers...)
	bad.Layers[2].Material.Conductivity = -1
	if err := bad.Validate(); err == nil {
		t.Errorf("bad material should error")
	}
	bad = good
	bad.ConvectionR = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("zero convection R should error")
	}
	bad = good
	bad.ConvectionC = -5
	if err := bad.Validate(); err == nil {
		t.Errorf("negative convection C should error")
	}
	// Layer narrower than the one above.
	bad = good
	bad.Layers = append([]Layer(nil), good.Layers...)
	bad.Layers[3].W = bad.Layers[2].W / 2
	if err := bad.Validate(); err == nil {
		t.Errorf("shrinking stack should error")
	}
}

func TestDefaultConfigGrowsForLargeDie(t *testing.T) {
	// The 22 nm 100-core die (960 mm² ≈ 31 mm side) outgrows the 3 cm
	// spreader; the config must expand spreader and sink to cover it.
	c := DefaultConfig(0.031, 0.031, 10, 10)
	if c.Layers[2].W < 0.031 {
		t.Errorf("spreader not grown: %v", c.Layers[2].W)
	}
	if c.Layers[3].W < c.Layers[2].W {
		t.Errorf("sink smaller than spreader")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("grown config invalid: %v", err)
	}
}

func TestZeroPowerIsAmbient(t *testing.T) {
	m := model16(t)
	temps, err := m.SteadyState(make([]float64, 100))
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range temps {
		if math.Abs(tc-DefaultAmbientC) > 1e-6 {
			t.Fatalf("block %d at %v °C with zero power", i, tc)
		}
	}
}

func TestUniformPowerSymmetry(t *testing.T) {
	m := model16(t)
	p := make([]float64, 100)
	for i := range p {
		p[i] = 2.0
	}
	temps, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	// The four corners see identical temperatures by symmetry.
	fp := m.Floorplan()
	corners := []int{fp.Index(0, 0), fp.Index(0, 9), fp.Index(9, 0), fp.Index(9, 9)}
	for _, c := range corners[1:] {
		if math.Abs(temps[c]-temps[corners[0]]) > 1e-6 {
			t.Errorf("corner temps differ: %v vs %v", temps[c], temps[corners[0]])
		}
	}
	// Centre hotter than corners (lateral spreading).
	centre := temps[fp.Index(5, 5)]
	if centre <= temps[corners[0]] {
		t.Errorf("centre %v not hotter than corner %v", centre, temps[corners[0]])
	}
}

func TestLinearityAndSuperposition(t *testing.T) {
	m := model16(t)
	amb := m.Ambient()
	p1 := make([]float64, 100)
	p2 := make([]float64, 100)
	p1[12] = 3
	p2[87] = 2
	t1, err := m.SteadyState(p1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := m.SteadyState(p2)
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]float64, 100)
	for i := range sum {
		sum[i] = p1[i] + p2[i]
	}
	t12, err := m.SteadyState(sum)
	if err != nil {
		t.Fatal(err)
	}
	for i := range t12 {
		want := t1[i] + t2[i] - amb
		if math.Abs(t12[i]-want) > 1e-6 {
			t.Fatalf("superposition violated at %d: %v vs %v", i, t12[i], want)
		}
	}
	// Doubling power doubles the rise.
	double := make([]float64, 100)
	for i := range double {
		double[i] = 2 * p1[i]
	}
	td, err := m.SteadyState(double)
	if err != nil {
		t.Fatal(err)
	}
	for i := range td {
		want := amb + 2*(t1[i]-amb)
		if math.Abs(td[i]-want) > 1e-6 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestConcentrationHeatsMore(t *testing.T) {
	// The physical heart of dark-silicon patterning (Fig. 8): the same
	// total power concentrated in a contiguous cluster produces a higher
	// peak temperature than when spread across the die.
	m := model16(t)
	fp := m.Floorplan()
	const total = 150.0
	clustered := make([]float64, 100)
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			clustered[fp.Index(r, c)] = total / 25
		}
	}
	spread := make([]float64, 100)
	for r := 0; r < 10; r += 2 {
		for c := 0; c < 10; c += 2 {
			spread[fp.Index(r, c)] = total / 25
		}
	}
	pc, _, err := m.PeakSteadyState(clustered)
	if err != nil {
		t.Fatal(err)
	}
	ps, _, err := m.PeakSteadyState(spread)
	if err != nil {
		t.Fatal(err)
	}
	if pc <= ps+0.5 {
		t.Errorf("clustered peak %v should clearly exceed spread peak %v", pc, ps)
	}
}

func TestMagnitudeSanity(t *testing.T) {
	// 100 cores × 2 W = 200 W: convection alone contributes 20 K over
	// 45 °C ambient; with conduction the peak should land in the
	// 65–85 °C band the paper's experiments live in.
	m := model16(t)
	p := make([]float64, 100)
	for i := range p {
		p[i] = 2.0
	}
	peak, _, err := m.PeakSteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	if peak < 65 || peak > 85 {
		t.Errorf("peak at 200 W uniform = %.2f °C, want within [65, 85]", peak)
	}
}

func TestPowerVectorErrors(t *testing.T) {
	m := model16(t)
	if _, err := m.SteadyState(make([]float64, 7)); err == nil {
		t.Errorf("wrong-length power vector should error")
	}
	bad := make([]float64, 100)
	bad[3] = -1
	var pe *PowerError
	if _, err := m.SteadyState(bad); !errors.As(err, &pe) || pe.Block != 3 {
		t.Errorf("negative power: %v", err)
	}
}

// TestNonFinitePowerRejected pins that NaN and ±Inf block powers are
// reported as a PowerError naming the block at every entry point —
// steady state, Step, StepAll and MacroStep — instead of reaching the
// direct factor, where they would silently become NaN temperatures.
func TestNonFinitePowerRejected(t *testing.T) {
	m := model16(t)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := make([]float64, 100)
		for i := range p {
			p[i] = 1
		}
		p[17] = v
		check := func(where string, err error) {
			t.Helper()
			var pe *PowerError
			if !errors.As(err, &pe) || pe.Block != 17 || !strings.Contains(err.Error(), "non-finite") {
				t.Errorf("%s with %v W: got %v, want a non-finite PowerError for block 17", where, v, err)
			}
		}
		_, err := m.SteadyState(p)
		check("SteadyState", err)
		tr, err := m.NewTransient(1e-3)
		if err != nil {
			t.Fatal(err)
		}
		before := tr.BlockTemps()
		_, err = tr.Step(p)
		check("Step", err)
		_, err = tr.MacroStep(p, 64)
		check("MacroStep", err)
		_, err = tr.MacroStep(p, 2)
		check("MacroStep (exact fallback)", err)
		for i, v := range tr.BlockTemps() {
			if v != before[i] {
				t.Fatalf("rejected power moved block %d: %v -> %v", i, before[i], v)
			}
		}
		b, err := m.NewTransientBatch(1e-3, 2)
		if err != nil {
			t.Fatal(err)
		}
		temps := [][]float64{make([]float64, 100), make([]float64, 100)}
		check("StepAll", b.StepAll([][]float64{macroTestPower(), p}, nil, temps))
	}
}

func TestNewModelErrors(t *testing.T) {
	fp, err := floorplan.NewGrid(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(fp.DieW, fp.DieH, 2, 2)
	bad.ConvectionR = -1
	if _, err := NewModel(fp, bad); err == nil {
		t.Errorf("invalid config should error")
	}
	// Die layer smaller than the floorplan.
	small := DefaultConfig(fp.DieW/4, fp.DieH/4, 2, 2)
	if _, err := NewModel(fp, small); err == nil {
		t.Errorf("undersized die should error")
	}
	var empty floorplan.Floorplan
	if _, err := NewModel(&empty, DefaultConfig(1, 1, 2, 2)); err == nil {
		t.Errorf("empty floorplan should error")
	}
}

func TestInfluenceMatrix(t *testing.T) {
	m := model16(t)
	inf, err := m.InfluenceMatrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if inf.Rows != 100 || inf.Cols != 100 {
		t.Fatalf("influence shape %dx%d", inf.Rows, inf.Cols)
	}
	// Cached on second call.
	if again, _ := m.InfluenceMatrix(context.Background()); again != inf {
		t.Errorf("influence matrix should be cached")
	}
	// Self-influence dominates cross influence.
	if inf.At(0, 0) <= inf.At(0, 99) {
		t.Errorf("self influence %v <= far influence %v", inf.At(0, 0), inf.At(0, 99))
	}
	// All entries positive (heat anywhere warms everything at steady state).
	for i := 0; i < 100; i++ {
		for j := 0; j < 100; j++ {
			if inf.At(i, j) <= 0 {
				t.Fatalf("influence[%d][%d] = %v", i, j, inf.At(i, j))
			}
		}
	}
	// Symmetry: injection and readout use identical weights, G is
	// symmetric, so B = W·G⁻¹·Wᵀ is symmetric.
	if !inf.IsSymmetric(1e-9) {
		t.Errorf("influence matrix should be symmetric")
	}
	// Consistency with SteadyState: T = B·P + ambient field.
	p := make([]float64, 100)
	p[42] = 4
	direct, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	base := m.AmbientField()
	for i := 0; i < 100; i++ {
		want := base[i] + inf.At(i, 42)*4
		if math.Abs(direct[i]-want) > 1e-6 {
			t.Fatalf("influence inconsistency at %d: %v vs %v", i, direct[i], want)
		}
	}
}

func TestAmbientField(t *testing.T) {
	m := model16(t)
	for i, b := range m.AmbientField() {
		if math.Abs(b-DefaultAmbientC) > 1e-6 {
			t.Fatalf("ambient field[%d] = %v", i, b)
		}
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	m := model16(t)
	p := make([]float64, 100)
	for i := range p {
		p[i] = 1.8
	}
	want, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.NewTransient(0.05)
	if err != nil {
		t.Fatal(err)
	}
	// The sink/convection time constant is ~100.4·0.1 s-scale; run long.
	var got []float64
	for i := 0; i < 20000; i++ {
		got, err = tr.Step(p)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.05 {
			t.Fatalf("transient[%d] = %v, steady = %v", i, got[i], want[i])
		}
	}
}

func TestTransientMonotoneHeating(t *testing.T) {
	m := model16(t)
	tr, err := m.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, 100)
	for i := range p {
		p[i] = 2.5
	}
	prev, _ := tr.PeakBlockTemp()
	for i := 0; i < 200; i++ {
		if _, err := tr.Step(p); err != nil {
			t.Fatal(err)
		}
		cur, _ := tr.PeakBlockTemp()
		if cur < prev-1e-9 {
			t.Fatalf("heating not monotone at step %d: %v -> %v", i, prev, cur)
		}
		prev = cur
	}
	if prev <= DefaultAmbientC+0.5 {
		t.Errorf("chip barely heated after 2 s: %v", prev)
	}
}

func TestTransientStateControls(t *testing.T) {
	m := model16(t)
	tr, err := m.NewTransient(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dt() != 0.001 {
		t.Errorf("Dt = %v", tr.Dt())
	}
	tr.SetUniform(60)
	if peak, _ := tr.PeakBlockTemp(); math.Abs(peak-60) > 1e-9 {
		t.Errorf("SetUniform peak = %v", peak)
	}
	p := make([]float64, 100)
	p[50] = 5
	if err := tr.SetSteadyState(p); err != nil {
		t.Fatal(err)
	}
	want, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.BlockTemps()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("SetSteadyState mismatch at %d", i)
		}
	}
	if err := tr.SetSteadyState(make([]float64, 3)); err == nil {
		t.Errorf("bad power length should error")
	}
	if _, err := tr.Step(make([]float64, 3)); err == nil {
		t.Errorf("bad power length in Step should error")
	}
	if _, err := m.NewTransient(0); err == nil {
		t.Errorf("zero dt should error")
	}
}

// Property: steady-state peak temperature is monotone in any single
// block's power.
func TestPeakMonotoneInPowerProperty(t *testing.T) {
	m := model16(t)
	base := make([]float64, 100)
	for i := range base {
		base[i] = 1.0
	}
	f := func(blockRaw uint8, extraRaw float64) bool {
		block := int(blockRaw) % 100
		extra := math.Mod(math.Abs(extraRaw), 5)
		p0, _, err := m.PeakSteadyState(base)
		if err != nil {
			return false
		}
		bumped := append([]float64(nil), base...)
		bumped[block] += extra
		p1, _, err := m.PeakSteadyState(bumped)
		if err != nil {
			return false
		}
		return p1 >= p0-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// Property: total heat flow to ambient equals total injected power at
// steady state (energy conservation).
func TestEnergyConservationProperty(t *testing.T) {
	m := model16(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := make([]float64, 100)
		var total float64
		for i := range p {
			p[i] = 4 * rng.Float64()
			total += p[i]
		}
		nodeT, err := m.SteadyStateNodes(p)
		if err != nil {
			return false
		}
		var out float64
		for i, c := range m.cells {
			if c.gAmbW > 0 {
				out += c.gAmbW * (nodeT[i] - m.cfg.AmbientC)
			}
		}
		return math.Abs(out-total) < 1e-6*(1+total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestConductanceMatrixSymmetric(t *testing.T) {
	m := model16(t)
	if !m.Conductances().IsSymmetric(1e-12) {
		t.Errorf("conductance matrix must be symmetric")
	}
	if m.NumNodes() != 100+100+64+100 {
		t.Errorf("node count = %d", m.NumNodes())
	}
	if m.NumBlocks() != 100 {
		t.Errorf("block count = %d", m.NumBlocks())
	}
}

// SolverKind names the transient path a test forces on the 100-core
// model: SolverDense is the direct factor (the path of every model up
// to directNodeGate nodes), SolverSparse the warm-started CG steps of
// larger models. The names are the ones the transient pins were written
// with; the model itself has no solver option.
type SolverKind int

const (
	SolverDense SolverKind = iota
	SolverSparse
)

func (k SolverKind) String() string {
	if k == SolverSparse {
		return "cg-transient"
	}
	return "direct"
}

// modelWithSolver builds the 10x10 platform with the given transient
// path forced.
func modelWithSolver(t testing.TB, k SolverKind) *Model {
	t.Helper()
	m := model16(t)
	m.cgTransients = k == SolverSparse
	return m
}

// gridModel builds a side×side-core platform model.
func gridModel(t testing.TB, side int) *Model {
	t.Helper()
	fp, err := floorplan.NewGrid(side, side, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(fp, DefaultConfig(fp.DieW, fp.DieH, side, side))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSolverPathSelection pins the node gate: models up to
// directNodeGate nodes run every solve direct, larger ones step their
// transients with CG while steady and influence solves stay direct.
func TestSolverPathSelection(t *testing.T) {
	p := func(m *Model, w float64) []float64 {
		p := make([]float64, m.NumBlocks())
		for i := range p {
			p[i] = w
		}
		return p
	}
	for _, c := range []struct {
		side int
		path string
	}{{10, "direct"}, {15, "direct"}, {19, "sparse"}} {
		m := gridModel(t, c.side)
		if got := m.SolverPath(); got != c.path {
			t.Errorf("%d nodes: path %q, want %q", m.NumNodes(), got, c.path)
		}
		if (m.NumNodes() > directNodeGate) != (c.path == "sparse") {
			t.Errorf("%d nodes on the wrong side of the %d-node gate", m.NumNodes(), directNodeGate)
		}
		if _, err := m.SteadyState(p(m, 2)); err != nil {
			t.Fatal(err)
		}
		if st := m.SolverStats(); st.CGIterations != 0 || st.Solves != 2 {
			t.Errorf("%d nodes: steady solve stats %+v, want 2 direct solves", m.NumNodes(), st)
		}
		tr, err := m.NewTransient(1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Step(p(m, 2)); err != nil {
			t.Fatal(err)
		}
		st := m.SolverStats()
		if (st.CGIterations > 0) != (c.path == "sparse") {
			t.Errorf("%d nodes: transient step stats %+v on the %s path", m.NumNodes(), st, c.path)
		}
		if want := c.path == "direct"; tr.MacroSupported() != want {
			t.Errorf("%d nodes: MacroSupported = %v, want %v", m.NumNodes(), !want, want)
		}
		if st.FactorEntries < m.NumNodes() || st.FactorMS <= 0 {
			t.Errorf("%d nodes: factor stats %+v", m.NumNodes(), st)
		}
	}
}

// TestSparseMatchesDenseSteadyState is the cross-check of the direct
// sparse factor against a dense Cholesky of the same conductance matrix:
// steady state and influence matrix must agree to roundoff.
func TestSparseMatchesDenseSteadyState(t *testing.T) {
	m := model16(t)
	ref, err := linalg.NewCholesky(m.gs.Dense())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	p := make([]float64, 100)
	for i := range p {
		p[i] = 4 * rng.Float64()
	}
	ts, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	rhs, err := m.nodePower(p)
	if err != nil {
		t.Fatal(err)
	}
	rhs.AddScaled(1, m.ambRHS)
	ref.SolveInPlace(rhs)
	td := m.blockTemps(rhs)
	for i := range td {
		if math.Abs(td[i]-ts[i]) > 1e-10 {
			t.Fatalf("paths disagree at %d: dense %v direct %v", i, td[i], ts[i])
		}
	}
	is, err := m.InfluenceMatrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	col := linalg.NewVector(m.NumNodes())
	id := linalg.NewMatrix(100, 100)
	for j := 0; j < 100; j++ {
		m.fillColumnRHS(col, j)
		ref.SolveInPlace(col)
		m.readColumn(id, col, j)
	}
	for i := 0; i < id.Rows; i++ {
		for j := 0; j < id.Cols; j++ {
			if math.Abs(id.At(i, j)-is.At(i, j)) > 1e-12 {
				t.Fatalf("influence disagrees at (%d,%d): dense %v direct %v", i, j, id.At(i, j), is.At(i, j))
			}
		}
	}
	if st := m.SolverStats(); st.Path != "direct" || st.Solves == 0 || st.CGIterations != 0 {
		t.Errorf("direct stats = %+v", st)
	}
}

func TestSparseMatchesDenseTransient(t *testing.T) {
	dense := modelWithSolver(t, SolverDense)
	sparse := modelWithSolver(t, SolverSparse)
	trd, err := dense.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := sparse.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, 100)
	for i := range p {
		p[i] = 2.5
	}
	for step := 0; step < 50; step++ {
		td, err := trd.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := trs.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range td {
			if math.Abs(td[i]-ts[i]) > 1e-6 {
				t.Fatalf("step %d block %d: dense %v sparse %v", step, i, td[i], ts[i])
			}
		}
	}
	// The per-dt factor cache hands a second transient the same factor.
	again, err := sparse.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if again.tf != trs.tf {
		t.Errorf("transient factor not cached per dt")
	}
	other, err := sparse.NewTransient(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if other.tf == trs.tf {
		t.Errorf("distinct dt must not share a factor")
	}
}

func BenchmarkSteadyState100(b *testing.B) {
	m := model16(b)
	p := make([]float64, 100)
	for i := range p {
		p[i] = 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SteadyState(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientStep100(b *testing.B) {
	m := model16(b)
	tr, err := m.NewTransient(0.001)
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, 100)
	for i := range p {
		p[i] = 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBlocksSpanningMultipleDieCells(t *testing.T) {
	// When the die grid is coarser than the floorplan (here 2x2 cells
	// under a 4x4 core grid), each block's power must be distributed by
	// area overlap and its readout averaged over the overlapped cells.
	fp, err := floorplan.NewGrid(4, 4, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	coarse := DefaultConfig(fp.DieW, fp.DieH, 2, 2)
	m, err := NewModel(fp, coarse)
	if err != nil {
		t.Fatal(err)
	}
	// Energy conservation still holds with fractional bindings.
	p := make([]float64, 16)
	for i := range p {
		p[i] = 1.5
	}
	nodeT, err := m.SteadyStateNodes(p)
	if err != nil {
		t.Fatal(err)
	}
	var out float64
	for i, c := range m.cells {
		if c.gAmbW > 0 {
			out += c.gAmbW * (nodeT[i] - m.cfg.AmbientC)
		}
	}
	if math.Abs(out-24) > 1e-6 {
		t.Errorf("energy conservation broken with coarse die grid: %v W out", out)
	}
	// A central block straddles all four cells; corner blocks map to one.
	temps, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range temps {
		if tc <= m.Ambient() {
			t.Fatalf("block %d at %v °C", i, tc)
		}
	}
	// The die grid is finer than the floorplan in the usual setup; also
	// exercise the opposite: a 8x8 die grid under the same 4x4 cores.
	fine := DefaultConfig(fp.DieW, fp.DieH, 8, 8)
	mf, err := NewModel(fp, fine)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := mf.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	// Coarse and fine models agree to within a degree on this uniform map.
	for i := range temps {
		if math.Abs(temps[i]-tf[i]) > 1.0 {
			t.Errorf("block %d: coarse %v vs fine %v", i, temps[i], tf[i])
		}
	}
}

// TestSteadyStateIterativeMatchesDirect cross-checks the direct steady
// state against an independent IC(0)-preconditioned CG solve of the same
// system.
func TestSteadyStateIterativeMatchesDirect(t *testing.T) {
	m := model16(t)
	rng := rand.New(rand.NewSource(31))
	p := make([]float64, 100)
	for i := range p {
		p[i] = 4 * rng.Float64()
	}
	direct, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	rhs, err := m.nodePower(p)
	if err != nil {
		t.Fatal(err)
	}
	rhs.AddScaled(1, m.ambRHS)
	x, _, err := linalg.SolveCG(m.gs, rhs, linalg.CGOptions{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	iter := m.blockTemps(x)
	for i := range direct {
		if math.Abs(direct[i]-iter[i]) > 1e-5 {
			t.Fatalf("solvers disagree at %d: %v vs %v", i, direct[i], iter[i])
		}
	}
}

// TestBindFloorplanWindowMatchesFullScan pins the windowed block-to-cell
// binding to a scan over every die cell, bit for bit, on grids finer,
// equal and coarser than the floorplan and on a shelf-packed chip whose
// blocks do not line up with the die grid.
func TestBindFloorplanWindowMatchesFullScan(t *testing.T) {
	grid, err := floorplan.NewGrid(6, 5, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	shelves, err := floorplan.NewShelves([]floorplan.ShelfGroup{
		{Name: "big", Count: 4, AreaMM2: 20.4},
		{Name: "little", Count: 21, AreaMM2: 5.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		fp     *floorplan.Floorplan
		nx, ny int
	}{{grid, 6, 5}, {grid, 13, 11}, {grid, 4, 3}, {shelves, 7, 7}, {shelves, 12, 9}} {
		m, err := NewModel(c.fp, DefaultConfig(c.fp.DieW, c.fp.DieH, c.nx, c.ny))
		if err != nil {
			t.Fatal(err)
		}
		offX, offY := -c.fp.DieW/2, -c.fp.DieH/2
		for bi, b := range c.fp.Blocks {
			bc := cell{x: b.X + offX, y: b.Y + offY, w: b.W, h: b.H}
			var want []cellShare
			var total float64
			for _, ci := range m.layers[0] {
				if ov := overlap(bc, m.cells[ci]); ov > 0 {
					want = append(want, cellShare{node: ci, fraction: ov})
					total += ov
				}
			}
			for i := range want {
				want[i].fraction /= total
				want[i].weight = want[i].fraction
			}
			got := m.blockCells[bi]
			if len(got) != len(want) {
				t.Fatalf("%dx%d die grid, block %d: %d shares, full scan %d", c.nx, c.ny, bi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%dx%d die grid, block %d share %d: %+v, full scan %+v", c.nx, c.ny, bi, i, got[i], want[i])
				}
			}
		}
	}
}
