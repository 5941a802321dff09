package thermal

import (
	"sync/atomic"
	"time"

	"darksim/internal/linalg"
)

// directNodeGate is the model size up to which every linear solve runs
// through the direct envelope Cholesky factor: steady state, influence
// columns, transient steps, lockstep batches and the macro ladder's
// step matrix. Steady-state and influence solves are direct on every
// model. Above the gate, transient steps switch to IC(0)-preconditioned
// CG warm-started from the previous temperatures, which needs about two
// iterations at control-period step sizes: at 2212 nodes that beats the
// factor's two sweeps (~0.38 vs ~0.5 ms), and the dense n×n macro
// ladder would no longer pay. The paper's 100- and 198-core platforms
// (364 and 560 nodes) sit below the gate.
const directNodeGate = 768

// cgTol is the relative-residual tolerance of the above-gate transient
// CG. The golden corpus compares at abs 1e-6 / rel 2e-3; 1e-10 leaves
// four orders of magnitude of headroom while staying a few iterations
// per warm-started step.
const cgTol = 1e-10

// solveCounters aggregates solver work across a model's lifetime. The
// counters are atomic because influence panels fan out on the runner
// pool and transients may step concurrently.
type solveCounters struct {
	solves      atomic.Uint64
	iterations  atomic.Uint64
	factorNanos atomic.Int64
}

// SolverStats is a snapshot of the linear-solver work a model (and its
// transients) performed.
type SolverStats struct {
	// Path is "direct" when every solve of the model runs through the
	// direct factor, or "sparse" above the node gate, where transient
	// steps run preconditioned CG.
	Path string `json:"path"`
	// Solves counts linear solves (steady-state, influence columns and
	// transient steps combined).
	Solves uint64 `json:"solves"`
	// CGIterations counts conjugate-gradient iterations of above-gate
	// transient steps; always zero on the direct path.
	CGIterations uint64 `json:"cg_iterations"`
	// FactorEntries is the number of stored entries of the steady-state
	// factor L (its fill); each sweep of a solve streams them once.
	FactorEntries int `json:"factor_entries"`
	// FactorMS is the wall time spent building factors so far: the
	// steady-state one and every per-step-size transient one.
	FactorMS float64 `json:"factor_ms"`
}

// newDirect factors the SPD matrix a under its profile ordering,
// charging the build time to the model counters.
func newDirect(a *linalg.CSR, stats *solveCounters) (*linalg.EnvelopeCholesky, error) {
	t0 := time.Now()
	f, err := linalg.NewEnvelopeCholesky(a, linalg.ProfileOrder(a))
	stats.factorNanos.Add(int64(time.Since(t0)))
	return f, err
}

// newPreconditioner builds the IC(0) preconditioner of an above-gate
// transient system, falling back to Jacobi if IC(0) breaks down.
func newPreconditioner(a *linalg.CSR) (linalg.Preconditioner, error) {
	if ic, err := linalg.NewIC0(a); err == nil {
		return ic, nil
	}
	return linalg.NewJacobi(a)
}

// SolveResidual solves one system for the given block power map through
// the path production uses — the steady state for dt == 0, otherwise
// one implicit-Euler step of size dt from the ambient state — and
// returns the a-posteriori relative residual ‖A·x − b‖∞ / ‖b‖∞ with A
// the assembled (C/dt +) G. `darksim verify` bounds it per platform.
func (m *Model) SolveResidual(dt float64, blockPower []float64) (float64, error) {
	b, err := m.nodePower(blockPower)
	if err != nil {
		return 0, err
	}
	b.AddScaled(1, m.ambRHS)
	a, x := m.gs, b.Clone()
	if dt == 0 {
		m.solveSteady(x)
	} else {
		tr, err := m.NewTransient(dt)
		if err != nil {
			return 0, err
		}
		for i, c := range tr.tf.capDt {
			b[i] += c * tr.t[i]
		}
		if a, err = m.gs.AddDiagonal(tr.tf.capDt); err != nil {
			return 0, err
		}
		if _, err := tr.Step(blockPower); err != nil {
			return 0, err
		}
		x = tr.t
	}
	ax := linalg.NewVector(len(x))
	if _, err := a.MulVec(x, ax); err != nil {
		return 0, err
	}
	return ax.AddScaled(-1, b).NormInf() / b.NormInf(), nil
}
