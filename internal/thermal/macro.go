package thermal

import (
	"darksim/internal/linalg"
)

// The macro-stepping kernel exploits that the implicit-Euler update with
// a frozen power map is an affine map of the node temperatures:
//
//	(C/dt + G)·T⁺ = (C/dt)·T + P + P_amb
//	T⁺ = M·T + b,   M = (C/dt+G)⁻¹·(C/dt),   b = (C/dt+G)⁻¹·(P + P_amb)
//
// so k quiet steps collapse to T ← Mᵏ·T + S_k·b in O(log k) matrix
// applies via the linalg.AffinePowers ladder. The kernel is cached per
// (model, dt) on the transFactor, next to the direct factor whose
// batched identity solves build M and whose solves give b per advance.
// Above directNodeGate there is no direct transient factor and the dense
// M (O(n²) per apply) stops paying for itself, so MacroStep falls back
// to repeated exact steps there. All paper platforms that macro-step (364- and 560-node
// models) sit below the gate.

// macroPanel is how many identity columns one batched solve of the
// inverse build sweeps at once.
const macroPanel = 16

const (
	// macroMemBudgetBytes caps the ladder's matrix memory (each rung and
	// each memoized composite hop is two n×n float64 matrices).
	macroMemBudgetBytes = 96 << 20

	// macroMinSteps is the shortest advance worth routing through the
	// ladder; below it the two fused mat-vecs of one hop cost more than
	// the triangular solves they replace.
	macroMinSteps = 4
)

// kernel returns the macro ladder for this factor, building it on first
// use. A nil ladder with nil error means there is no direct transient
// factor (the model is above the node gate) and callers must use the
// exact path; a build error is sticky.
func (tf *transFactor) kernel() (*linalg.AffinePowers, error) {
	tf.macroMu.Lock()
	defer tf.macroMu.Unlock()
	if tf.macroUp {
		return tf.macro, tf.macroErr
	}
	tf.macroUp = true
	if tf.direct == nil {
		return nil, nil
	}
	tf.macro, tf.macroErr = buildMacroKernel(tf)
	return tf.macro, tf.macroErr
}

// buildMacroKernel materializes the step matrix M = (C/dt+G)⁻¹·(C/dt)
// and its affine-powers ladder.
func buildMacroKernel(tf *transFactor) (*linalg.AffinePowers, error) {
	n := tf.direct.Size()
	// M = A⁻¹·(C/dt), column by column: batched solves of identity
	// panels give the columns of A⁻¹, column j is scaled by capDt[j].
	step := linalg.NewMatrix(n, n)
	cols := make([]linalg.Vector, macroPanel)
	for c := range cols {
		cols[c] = linalg.NewVector(n)
	}
	for j0 := 0; j0 < n; j0 += macroPanel {
		panel := cols[:min(macroPanel, n-j0)]
		for c, col := range panel {
			col.Fill(0)
			col[j0+c] = 1
		}
		if err := tf.direct.SolveBatchInPlace(panel); err != nil {
			return nil, err
		}
		for c, col := range panel {
			j := j0 + c
			for i, v := range col {
				step.Data[i*n+j] = v * tf.capDt[j]
			}
		}
	}
	return linalg.NewAffinePowers(step, ladderDepth(n))
}

// ladderDepth picks the deepest repeated-squaring ladder whose rungs fit
// the memory budget, leaving half the budget for composed hops.
func ladderDepth(n int) int {
	perRung := 16 * n * n // two n×n float64 matrices
	depth := 1
	for depth < 10 && (depth+2)*perRung <= macroMemBudgetBytes/2 {
		depth++
	}
	return depth
}
