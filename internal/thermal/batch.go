package thermal

import (
	"fmt"

	"darksim/internal/linalg"
)

// TransientBatch steps several independent temperature states of one
// (model, dt) pair in lockstep. All states share the cached factor; up
// to directNodeGate nodes the per-state solves are batched through
// EnvelopeCholesky.SolveBatchInPlace, which streams each factor row once
// across all states instead of once per state. Per state the arithmetic
// is bit-for-bit identical to calling Transient.Step — the policy
// sandbox and sim.RunBatch rely on that to run lanes in lockstep without
// perturbing any lane's trace.
type TransientBatch struct {
	m    *Model
	trs  []*Transient
	cols []linalg.Vector // reused batch view
}

// NewTransientBatch creates k transient integrators sharing one cached
// factorization for step size dt.
func (m *Model) NewTransientBatch(dt float64, k int) (*TransientBatch, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: transient batch of %d states", ErrConfig, k)
	}
	b := &TransientBatch{m: m, trs: make([]*Transient, k)}
	for i := range b.trs {
		tr, err := m.NewTransient(dt)
		if err != nil {
			return nil, err
		}
		b.trs[i] = tr
	}
	return b, nil
}

// Transient returns the i-th state for per-state setup and queries
// (SetSteadyState, BlockTemps, ...).
func (b *TransientBatch) Transient(i int) *Transient { return b.trs[i] }

// Len returns the number of states in the batch.
func (b *TransientBatch) Len() int { return len(b.trs) }

// StepAll advances every active state by one dt under its own power map
// and writes the resulting per-block temperatures into temps[i]. Entries
// with active[i] == false are skipped entirely (a nil active means all
// are live). powers and temps must have Len() entries; each live
// temps[i] must have NumBlocks length.
func (b *TransientBatch) StepAll(powers [][]float64, active []bool, temps [][]float64) error {
	if len(powers) != len(b.trs) || len(temps) != len(b.trs) {
		return fmt.Errorf("%w: batch step with %d power maps, %d temp buffers for %d states",
			ErrConfig, len(powers), len(temps), len(b.trs))
	}
	live := func(i int) bool { return active == nil || active[i] }

	if b.trs[0].cgs != nil {
		// Above the gate: each state's warm-started CG solve depends on
		// its own previous iterate, so states step independently —
		// exactly as Transient.Step would.
		for i, tr := range b.trs {
			if !live(i) {
				continue
			}
			t, err := tr.Step(powers[i])
			if err != nil {
				return err
			}
			copy(temps[i], t)
		}
		return nil
	}

	// Direct path: assemble every live right-hand side, then solve them
	// as one batch against the shared factor.
	b.cols = b.cols[:0]
	for i, tr := range b.trs {
		if !live(i) {
			continue
		}
		if err := tr.m.nodePowerInto(tr.rhs, powers[i]); err != nil {
			return err
		}
		p := tr.rhs
		for j := range p {
			p[j] += tr.tf.capDt[j]*tr.t[j] + tr.m.ambRHS[j]
		}
		b.cols = append(b.cols, p)
	}
	if len(b.cols) == 0 {
		return nil
	}
	if err := b.trs[0].tf.direct.SolveBatchInPlace(b.cols); err != nil {
		return err
	}
	b.m.counters.solves.Add(uint64(len(b.cols)))
	for i, tr := range b.trs {
		if !live(i) {
			continue
		}
		tr.t, tr.rhs = tr.rhs, tr.t
		tr.m.blockTempsInto(temps[i], tr.t)
	}
	return nil
}
