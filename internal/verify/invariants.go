package verify

import (
	"context"
	"fmt"
	"math"

	"darksim/internal/apps"
	"darksim/internal/endofscaling"
	"darksim/internal/experiments"
	"darksim/internal/scenario"
	"darksim/internal/tech"
	"darksim/internal/thermal"
	"darksim/internal/tsp"
	"darksim/internal/vf"
)

// Invariant is one physics property of the paper's model that must hold
// on every recomputation, independent of the golden corpus. Figure names
// the result the check consumes; an empty Figure means the invariant is
// evaluated standalone against the model packages.
type Invariant struct {
	Name string
	// Pins cites the paper section or equation the invariant encodes.
	Pins string
	// Figure is the experiment id whose typed result Check consumes, or
	// "" for standalone invariants.
	Figure string
	Check  func(r experiments.Renderer) error
}

// Invariants lists the physics checks run by every `darksim verify`.
func Invariants() []Invariant {
	return []Invariant{
		{
			Name:   "dark-fraction-range",
			Pins:   "§4/Fig5: dark + active area partition the chip",
			Figure: "fig5",
			Check:  checkDarkFractionRange,
		},
		{
			Name: "dark-monotone-nodes",
			Pins: "§3/Fig1: fixed budget ⇒ dark fraction non-decreasing 16→11→8 nm",
			// Standalone: evaluated directly on the end-of-scaling model
			// for every catalog application.
			Check: checkDarkMonotoneNodes,
		},
		{
			Name:   "eq2-curve-monotone",
			Pins:   "Eq.(2)/Fig2: f rises with Vdd; NTC ≤ STC ≤ Boost",
			Figure: "fig2",
			Check:  checkEq2CurveMonotone,
		},
		{
			Name:  "vdd-ladder-monotone",
			Pins:  "Eq.(2) inverse: ladder voltages strictly increase with f and round-trip",
			Check: checkLadderMonotone,
		},
		{
			Name:   "amdahl-limit",
			Pins:   "§2: S(n) ∈ [1, 1/(1−p)] and non-decreasing in n",
			Figure: "fig4",
			Check:  checkAmdahlLimit,
		},
		{
			Name:   "tsp-dominates-core-power",
			Pins:   "§5: per-core power at the TSP operating point never exceeds the TSP budget",
			Figure: "fig10",
			Check:  checkTSPDominates,
		},
		{
			Name:   "boost-energy-per-work",
			Pins:   "§6/Fig11: boosting buys throughput, never energy per unit work",
			Figure: "fig11",
			Check:  checkBoostEnergy,
		},
		{
			Name: "thermal-solve-residual",
			Pins: "§2.1 RC model: steady and 1 ms implicit-Euler systems solve to the stated residual bound",
			// Standalone: evaluated on the thermal model of every
			// platform class the figures and the scenario pack use.
			Check: checkSolveResidual,
		},
	}
}

func checkDarkFractionRange(r experiments.Renderer) error {
	res, ok := r.(*experiments.Fig5Result)
	if !ok {
		return fmt.Errorf("unexpected result type %T", r)
	}
	for _, tdp := range res.TDPs {
		for _, c := range res.Cells[tdp] {
			if c.ActivePercent < 0 || c.ActivePercent > 100 || c.DarkPercent < 0 || c.DarkPercent > 100 {
				return fmt.Errorf("TDP %.0f W, %s @ %.1f GHz: active %.2f%% / dark %.2f%% outside [0,100]",
					tdp, c.App, c.FGHz, c.ActivePercent, c.DarkPercent)
			}
			if sum := c.ActivePercent + c.DarkPercent; math.Abs(sum-100) > 1e-6 {
				return fmt.Errorf("TDP %.0f W, %s @ %.1f GHz: active+dark = %.6f%%, want 100%%",
					tdp, c.App, c.FGHz, sum)
			}
		}
	}
	return nil
}

func checkDarkMonotoneNodes(experiments.Renderer) error {
	// The paper's fixed budget framing: a fixed die area with the
	// pessimistic 185 W TDP at the 80 °C junction assumption (§3).
	budget := endofscaling.ChipBudget{AreaMM2: 960, TDPW: 185}
	for _, a := range apps.Catalog() {
		ests, err := endofscaling.Sweep(a, budget, 80)
		if err != nil {
			return fmt.Errorf("%s: %v", a.Name, err)
		}
		prev := -1.0
		for _, e := range ests {
			if e.DarkFraction < 0 || e.DarkFraction > 1 {
				return fmt.Errorf("%s @ %d nm: dark fraction %.4f outside [0,1]", a.Name, e.Node, e.DarkFraction)
			}
			// Skip the 22 nm reference when enforcing the scaling trend:
			// the trend statement is about shrinking from 16 nm onward.
			if e.Node != tech.Node22 {
				if prev >= 0 && e.DarkFraction < prev-1e-9 {
					return fmt.Errorf("%s: dark fraction decreased across shrink to %d nm (%.4f → %.4f)",
						a.Name, e.Node, prev, e.DarkFraction)
				}
				prev = e.DarkFraction
			}
		}
	}
	return nil
}

func checkEq2CurveMonotone(r experiments.Renderer) error {
	res, ok := r.(*experiments.Fig2Result)
	if !ok {
		return fmt.Errorf("unexpected result type %T", r)
	}
	for i := 1; i < len(res.Vdd); i++ {
		if res.FGHz[i] < res.FGHz[i-1] {
			return fmt.Errorf("f(Vdd) not monotone: f(%.2f V)=%.4f < f(%.2f V)=%.4f",
				res.Vdd[i], res.FGHz[i], res.Vdd[i-1], res.FGHz[i-1])
		}
		if res.Region[i] < res.Region[i-1] {
			return fmt.Errorf("region order violated at %.2f V: %s after %s",
				res.Vdd[i], res.Region[i], res.Region[i-1])
		}
	}
	return nil
}

func checkLadderMonotone(experiments.Renderer) error {
	for _, n := range tech.Nodes() {
		c, err := vf.CurveFor(n)
		if err != nil {
			return err
		}
		l, err := vf.NewLadder(c, vf.LadderOptions{})
		if err != nil {
			return fmt.Errorf("%d nm: %v", n, err)
		}
		prevV := 0.0
		for _, pt := range l.Points {
			if pt.Vdd <= c.Vth {
				return fmt.Errorf("%d nm: %.2f GHz maps to Vdd %.4f V ≤ Vth %.4f V", n, pt.FGHz, pt.Vdd, c.Vth)
			}
			if pt.Vdd <= prevV {
				return fmt.Errorf("%d nm: ladder Vdd not strictly increasing at %.2f GHz (%.4f V after %.4f V)",
					n, pt.FGHz, pt.Vdd, prevV)
			}
			prevV = pt.Vdd
			if back := c.FrequencyGHz(pt.Vdd); math.Abs(back-pt.FGHz) > 1e-6*pt.FGHz+1e-12 {
				return fmt.Errorf("%d nm: Eq.(2) round-trip drift at %.2f GHz: f(V(f)) = %.8f", n, pt.FGHz, back)
			}
		}
	}
	return nil
}

func checkAmdahlLimit(r experiments.Renderer) error {
	res, ok := r.(*experiments.Fig4Result)
	if !ok {
		return fmt.Errorf("unexpected result type %T", r)
	}
	for _, name := range res.Apps {
		a, err := apps.ByName(name)
		if err != nil {
			return err
		}
		limit := a.SpeedupLaw().Limit()
		prev := 0.0
		for i, n := range res.Threads {
			s := res.Speedup[name][i]
			if s < 1 || s > limit+1e-9 {
				return fmt.Errorf("%s: S(%d) = %.4f outside [1, 1/(1−p) = %.4f]", name, n, s, limit)
			}
			if s < prev {
				return fmt.Errorf("%s: S(%d) = %.4f decreased from %.4f", name, n, s, prev)
			}
			prev = s
		}
	}
	return nil
}

func checkTSPDominates(r experiments.Renderer) error {
	res, ok := r.(*experiments.Fig10Result)
	if !ok {
		return fmt.Errorf("unexpected result type %T", r)
	}
	for _, row := range res.Rows {
		p, err := experiments.PlatformFor(row.Node, row.Cores)
		if err != nil {
			return fmt.Errorf("%d nm: %v", row.Node, err)
		}
		calc, err := tsp.New(p.Thermal, p.TDTM)
		if err != nil {
			return fmt.Errorf("%d nm: %v", row.Node, err)
		}
		budget, _, err := calc.WorstCase(context.Background(), row.ActiveCores)
		if err != nil {
			return fmt.Errorf("%d nm: worst-case TSP(%d): %v", row.Node, row.ActiveCores, err)
		}
		if budget <= 0 {
			return fmt.Errorf("%d nm: non-positive TSP budget %.4f W", row.Node, budget)
		}
		if math.Abs(budget-row.TSPPerCoreW) > 1e-9+1e-9*budget {
			return fmt.Errorf("%d nm: reported TSP %.6f W drifted from recomputed %.6f W",
				row.Node, row.TSPPerCoreW, budget)
		}
		// At every application's chosen (fastest feasible) ladder level
		// the per-core power must fit the budget — the TSP guarantee.
		for _, a := range apps.Catalog() {
			chosen := -1.0
			for _, pt := range p.Ladder.Points {
				cp, err := p.CorePower(a, pt.FGHz, p.TDTM)
				if err != nil {
					return fmt.Errorf("%d nm: %s @ %.2f GHz: %v", row.Node, a.Name, pt.FGHz, err)
				}
				if cp <= budget {
					chosen = cp
				}
			}
			if chosen < 0 {
				return fmt.Errorf("%d nm: %s: no ladder level fits TSP %.4f W", row.Node, a.Name, budget)
			}
			if chosen > budget {
				return fmt.Errorf("%d nm: %s: operating-point power %.4f W exceeds TSP %.4f W",
					row.Node, a.Name, chosen, budget)
			}
		}
	}
	return nil
}

func checkBoostEnergy(r experiments.Renderer) error {
	res, ok := r.(*experiments.Fig11Result)
	if !ok {
		return fmt.Errorf("unexpected result type %T", r)
	}
	if res.AvgBoost < res.AvgConst-1e-9 {
		return fmt.Errorf("boosting lost throughput: %.4f GIPS vs constant %.4f GIPS", res.AvgBoost, res.AvgConst)
	}
	if res.AvgBoost <= 0 || res.AvgConst <= 0 {
		return fmt.Errorf("non-positive throughput: boost %.4f, constant %.4f GIPS", res.AvgBoost, res.AvgConst)
	}
	// Energy per unit work (J per GIPS-second of sustained throughput):
	// boosting runs above the energy-optimal nominal point, so it may
	// trade efficiency for speed but can never be cheaper per unit work.
	boostEPW := res.Boost.EnergyJ / res.AvgBoost
	constEPW := res.Constant.EnergyJ / res.AvgConst
	if boostEPW < constEPW-1e-9 {
		return fmt.Errorf("boost energy/work %.6f J/GIPS below constant-frequency %.6f J/GIPS", boostEPW, constEPW)
	}
	// DTM keeps transients at or near the critical temperature; a result
	// far above TDTM means the throttle loop is broken.
	const tdtmSlackC = 2
	for name, mt := range map[string]float64{"boost": res.Boost.MaxTempC, "constant": res.Constant.MaxTempC} {
		if mt > res.TDTM+tdtmSlackC {
			return fmt.Errorf("%s trace peak temperature %.2f °C exceeds TDTM %.2f °C + %d °C slack",
				name, mt, res.TDTM, tdtmSlackC)
		}
	}
	return nil
}

// Residual bounds of checkSolveResidual, on ‖A·x − b‖∞ / ‖b‖∞. A
// backward-stable direct solve leaves a residual of order ε·‖A‖·‖x‖, so
// the ratio grows with how far the die's lateral conductances outweigh
// the load: measured 1.2e-13 (100 cores) to 6.5e-13 (1024 cores) on
// the steady systems and under 1e-15 on the 1 ms ones.
// directResidualBound keeps a 15× margin over the worst class. Above the thermal node gate the
// transient step is CG stopped at a 1e-10 relative 2-norm residual,
// which bounds the ∞-norm ratio by 1e-10·√n; cgResidualBound covers the
// largest class (2212 nodes, √n < 50).
const (
	directResidualBound = 1e-11
	cgResidualBound     = 1e-10 * 50
)

// checkSolveResidual solves the steady system and the 1 ms transient
// system (the control period of fig11 and fig13) of each platform
// class — 16 nm × {100, 198, 361, 1024} cores, 11 nm × 198 (fig13) and
// the big.LITTLE pack chip — and bounds the a-posteriori residual.
func checkSolveResidual(experiments.Renderer) error {
	type class struct {
		name string
		m    *thermal.Model
	}
	var classes []class
	for _, c := range []struct {
		node  tech.Node
		cores int
	}{{tech.Node16, 100}, {tech.Node16, 198}, {tech.Node16, 361}, {tech.Node16, 1024}, {tech.Node11, 198}} {
		p, err := experiments.PlatformFor(c.node, c.cores)
		if err != nil {
			return err
		}
		classes = append(classes, class{fmt.Sprintf("%d nm × %d", c.node, c.cores), p.Thermal})
	}
	spec, err := scenario.PackByName(scenario.PackAsymmetric)
	if err != nil {
		return err
	}
	sc, err := scenario.Compile(spec)
	if err != nil {
		return err
	}
	classes = append(classes, class{"big.LITTLE pack chip", sc.Platform.Thermal})
	for _, c := range classes {
		p := make([]float64, c.m.NumBlocks())
		for i := range p {
			p[i] = 0.5 + 0.25*float64(i%7)
		}
		for _, dt := range []float64{0, 1e-3} {
			r, err := c.m.SolveResidual(dt, p)
			if err != nil {
				return fmt.Errorf("%s dt=%g: %v", c.name, dt, err)
			}
			bound := directResidualBound
			if dt > 0 && c.m.SolverPath() == "sparse" {
				bound = cgResidualBound
			}
			if !(r <= bound) {
				return fmt.Errorf("%s (%d nodes) dt=%g: relative residual %.3g above %.0g",
					c.name, c.m.NumNodes(), dt, r, bound)
			}
		}
	}
	return nil
}
