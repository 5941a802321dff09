package thermal

import (
	"fmt"

	"darksim/internal/linalg"
)

// Transient advances the RC network in time with the unconditionally
// stable implicit (backward) Euler scheme:
//
//	C·(T⁺ − T)/dt = −G·T⁺ + P + P_amb
//	(C/dt + G)·T⁺ = (C/dt)·T + P + P_amb
//
// The left-hand matrix depends only on dt, so one factorization serves
// the whole run, and the model caches it per dt across runs. Up to
// directNodeGate nodes each step is one pair of triangular sweeps over
// the direct factor; above it each step is a CG solve warm-started from
// the previous temperatures, which converges in a handful of iterations
// at small dt because consecutive states are close. This is what makes
// the paper's §6 boosting experiments (100 s at 1 ms control period,
// i.e. 10⁵ steps) tractable.
//
// On top of the exact per-step path, MacroStep and AdvanceQuiet expose
// the macro-stepping fast path for intervals of frozen power (see
// macro.go). Step itself is untouched by the fast path: it performs the
// same floating-point operations as it always has, which is what the
// bit-for-bit differential pins rely on.
type Transient struct {
	m  *Model
	dt float64
	tf *transFactor
	t  linalg.Vector // current node temperatures
	// cgs/x are the above-gate CG path's private solver and solution
	// buffer; a Transient is not safe for concurrent Steps, so no
	// pooling needed.
	cgs *linalg.CGSolver
	x   linalg.Vector

	// rhs is the pooled node-power / right-hand-side buffer every step
	// assembles into; on the direct path it swaps with t after the solve.
	rhs linalg.Vector

	// Macro-path state: ladder vectors and the frozen-power steady-state
	// cache (tinf is T∞ for the power map frozen in tinfPow).
	b, scratch linalg.Vector
	tinf       linalg.Vector
	tinfPow    []float64
	haveTinf   bool
}

// NewTransient creates a transient integrator with step size dt (seconds),
// initialized to the ambient-only steady state (a cold chip). Repeated
// calls with the same dt share one cached factorization.
func (m *Model) NewTransient(dt float64) (*Transient, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("%w: transient step %g s", ErrConfig, dt)
	}
	tf, err := m.transientFactor(dt)
	if err != nil {
		return nil, err
	}
	n := len(m.cells)
	tr := &Transient{m: m, dt: dt, tf: tf, t: m.ambNodes.Clone(), rhs: linalg.NewVector(n)}
	if tf.prec != nil {
		tr.cgs, err = linalg.NewCGSolver(tf.a, linalg.CGOptions{Tol: cgTol, Precond: tf.prec})
		if err != nil {
			return nil, err
		}
		tr.x = linalg.NewVector(n)
	}
	return tr, nil
}

// Dt returns the integrator step size in seconds.
func (tr *Transient) Dt() float64 { return tr.dt }

// SetUniform resets every node to the given temperature.
func (tr *Transient) SetUniform(tempC float64) { tr.t.Fill(tempC) }

// SetSteadyState resets the state to the steady-state solution for the
// given per-block power map.
func (tr *Transient) SetSteadyState(blockPower []float64) error {
	nodeT, err := tr.m.SteadyStateNodes(blockPower)
	if err != nil {
		return err
	}
	tr.t = nodeT
	if tr.x != nil && len(tr.x) != len(tr.t) {
		tr.x = linalg.NewVector(len(tr.t))
	}
	return nil
}

// Step advances the model by one dt under the given per-block power map
// and returns the resulting per-block temperatures.
func (tr *Transient) Step(blockPower []float64) ([]float64, error) {
	if err := tr.m.nodePowerInto(tr.rhs, blockPower); err != nil {
		return nil, err
	}
	if err := tr.stepNodes(); err != nil {
		return nil, err
	}
	return tr.m.blockTemps(tr.t), nil
}

// stepNodes performs one implicit-Euler step assuming tr.rhs holds the
// expanded node power; it completes the right-hand side and solves.
func (tr *Transient) stepNodes() error {
	p := tr.rhs
	for i := range p {
		p[i] += tr.tf.capDt[i]*tr.t[i] + tr.m.ambRHS[i]
	}
	counters := &tr.m.counters
	counters.solves.Add(1)
	if tr.cgs == nil {
		tr.tf.direct.SolveInPlace(p)
		tr.t, tr.rhs = p, tr.t
		return nil
	}
	// Warm start from the current temperatures: at control-period step
	// sizes consecutive states differ by millikelvins, so CG typically
	// converges in a few iterations.
	copy(tr.x, tr.t)
	st, err := tr.cgs.Solve(p, tr.x)
	counters.iterations.Add(uint64(st.Iterations))
	if err != nil {
		return fmt.Errorf("thermal: transient step: %w", err)
	}
	tr.t, tr.x = tr.x, tr.t
	return nil
}

// MacroSupported reports whether this model/dt pair can macro-step,
// building the kernel on first call. Models above the node gate
// always return false and keep the exact path.
func (tr *Transient) MacroSupported() bool {
	k, err := tr.tf.kernel()
	return err == nil && k != nil
}

// MacroStep advances k implicit-Euler steps under a power map frozen for
// the whole interval and returns the resulting per-block temperatures.
// With the kernel available and k at least macroMinSteps the advance
// costs O(log k) fused matrix applies; otherwise it degrades to k exact
// steps of the frozen map. Against k exact steps the ladder agrees to
// ~1e-9 (see the property tests); it is NOT bit-identical, which is why
// the simulator only routes provably quiet intervals here.
func (tr *Transient) MacroStep(blockPower []float64, k int) ([]float64, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: macro step count %d", ErrConfig, k)
	}
	kern, err := tr.tf.kernel()
	if err != nil {
		return nil, err
	}
	if kern == nil || k < macroMinSteps {
		return tr.stepFrozen(blockPower, k)
	}
	if err := tr.m.nodePowerInto(tr.rhs, blockPower); err != nil {
		return nil, err
	}
	tr.ensureMacroBufs()
	for i, v := range tr.rhs {
		tr.b[i] = v + tr.m.ambRHS[i]
	}
	tr.tf.direct.SolveInPlace(tr.b)
	tr.m.counters.solves.Add(1)
	if err := kern.Advance(k, tr.t, tr.b, tr.scratch); err != nil {
		return nil, err
	}
	return tr.m.blockTemps(tr.t), nil
}

// stepFrozen is the exact fallback of MacroStep: k ordinary steps with
// the node power expanded once.
func (tr *Transient) stepFrozen(blockPower []float64, k int) ([]float64, error) {
	tr.ensureMacroBufs()
	if err := tr.m.nodePowerInto(tr.b, blockPower); err != nil {
		return nil, err
	}
	for s := 0; s < k; s++ {
		copy(tr.rhs, tr.b)
		if err := tr.stepNodes(); err != nil {
			return nil, err
		}
	}
	return tr.m.blockTemps(tr.t), nil
}

// AdvanceQuiet advances k steps of a quiet interval — a stretch where
// the caller holds the power map constant — and returns the resulting
// per-block temperatures. Once the state is within snapTolC (°C, per
// node) of the frozen-power steady state it snaps there exactly, after
// which identical power maps advance for free. When maxSafeC > 0 and
// the frozen steady state would peak above it, AdvanceQuiet refuses
// (ok=false) without advancing, so the caller can fall back to exact
// per-period stepping and keep its thermal-emergency checks intact.
func (tr *Transient) AdvanceQuiet(blockPower []float64, k int, snapTolC, maxSafeC float64) (temps []float64, ok bool, err error) {
	if k <= 0 {
		return nil, false, fmt.Errorf("%w: quiet advance of %d steps", ErrConfig, k)
	}
	tinf, err := tr.frozenSteadyNodes(blockPower)
	if err != nil {
		return nil, false, err
	}
	if maxSafeC > 0 {
		peak, _ := linalg.Vector(tr.m.blockTemps(tinf)).Max()
		if peak > maxSafeC {
			return nil, false, nil
		}
	}
	if dist := nodeDistInf(tr.t, tinf); dist <= snapTolC {
		copy(tr.t, tinf)
		return tr.m.blockTemps(tr.t), true, nil
	}
	temps, err = tr.MacroStep(blockPower, k)
	if err != nil {
		return nil, false, err
	}
	// Post-advance snap: landing exactly on T∞ makes the *next* quiet
	// interval with a bitwise-identical power map free.
	if dist := nodeDistInf(tr.t, tinf); dist <= snapTolC {
		copy(tr.t, tinf)
		temps = tr.m.blockTemps(tr.t)
	}
	return temps, true, nil
}

// frozenSteadyNodes returns the steady-state node temperatures for a
// frozen power map, cached while the map stays bitwise identical — the
// steady state of a settled control loop is recomputed exactly once.
func (tr *Transient) frozenSteadyNodes(blockPower []float64) (linalg.Vector, error) {
	if tr.haveTinf && floatsEqual(tr.tinfPow, blockPower) {
		return tr.tinf, nil
	}
	tr.ensureMacroBufs()
	if err := tr.m.nodePowerInto(tr.scratch, blockPower); err != nil {
		return nil, err
	}
	tr.scratch.AddScaled(1, tr.m.ambRHS)
	copy(tr.tinf, tr.scratch)
	tr.m.solveSteady(tr.tinf)
	tr.tinfPow = append(tr.tinfPow[:0], blockPower...)
	tr.haveTinf = true
	return tr.tinf, nil
}

// ensureMacroBufs allocates the macro-path vectors on first use, so
// exact-only transients never pay for them.
func (tr *Transient) ensureMacroBufs() {
	if tr.b == nil {
		n := len(tr.t)
		tr.b = linalg.NewVector(n)
		tr.scratch = linalg.NewVector(n)
		tr.tinf = linalg.NewVector(n)
	}
}

// nodeDistInf returns ‖a−b‖∞.
func nodeDistInf(a, b linalg.Vector) float64 {
	d := 0.0
	for i, v := range a {
		if dv := v - b[i]; dv > d {
			d = dv
		} else if -dv > d {
			d = -dv
		}
	}
	return d
}

// floatsEqual reports bitwise equality of two float slices.
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// BlockTemps returns the current per-block temperatures.
func (tr *Transient) BlockTemps() []float64 { return tr.m.blockTemps(tr.t) }

// PeakBlockTemp returns the hottest block temperature and its index.
func (tr *Transient) PeakBlockTemp() (float64, int) {
	return linalg.Vector(tr.BlockTemps()).Max()
}
