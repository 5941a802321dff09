package sim

import (
	"context"
	"fmt"

	"darksim/internal/core"
	"darksim/internal/mapping"
	"darksim/internal/metrics"
	"darksim/internal/vf"
)

// BatchRun is one lane of RunBatch: a static plan simulated under its
// own controller. Lanes share the platform, ladder and Options.
type BatchRun struct {
	Plan *mapping.Plan
	Ctrl Controller
}

// batchLane carries the per-lane engine state RunDynamic keeps in
// locals: the working plan copy, the lane's own temperature and power
// buffers, and the running accounting.
type batchLane struct {
	ctrl   Controller
	work   *mapping.Plan
	temps  []float64 // lane-owned; StepAll writes the post-step block temps here
	power  []float64
	peak   float64
	fGHz   float64
	totalP float64
	totalG float64
	res    Result
	energy metrics.EnergyMeter
}

func (l *batchLane) setLevel(ladder *vf.Ladder, level int) {
	l.fGHz = ladder.Points[ladder.Clamp(level)].FGHz
	for i := range l.work.Placements {
		l.work.Placements[i].FGHz = l.fGHz
	}
}

// evalPower fills the lane's power map from its current temperatures via
// the direct per-core path — the same code Run's exact path uses, so a
// batch lane and a solo run compute identical bits.
func (l *batchLane) evalPower(p *core.Platform, mode core.PowerMode) error {
	for i := range l.power {
		l.power[i] = 0
	}
	l.totalP, l.totalG = 0, 0
	for _, pl := range l.work.Placements {
		l.totalG += pl.GIPS()
		for _, c := range pl.Cores {
			cp, err := p.PlacementCorePowerAt(pl, l.temps[c], mode)
			if err != nil {
				return err
			}
			l.power[c] = cp
			l.totalP += cp
		}
	}
	return nil
}

// RunBatch simulates every lane in lockstep on one platform, sharing
// each control period's thermal solve across lanes through the batched
// transient kernel (below the thermal node gate one sweep of the cached
// direct factor serves all lanes' right-hand sides). Every lane runs the exact
// per-period engine — StepMode is ignored — and its Result is
// bit-for-bit identical to Run(p, lane.Plan, lane.Ctrl, ladder, opt)
// under StepExact; the boost-arm differential test pins that. Observer
// is not supported in batch runs. The context is checked once per
// control period so long sweeps stay cancellable.
func RunBatch(ctx context.Context, p *core.Platform, runs []BatchRun, ladder *vf.Ladder, opt Options) ([]Result, error) {
	if p == nil || ladder == nil {
		return nil, fmt.Errorf("%w: nil argument", ErrRun)
	}
	if opt.Observer != nil {
		return nil, fmt.Errorf("%w: batch runs do not support an Observer", ErrRun)
	}
	if len(runs) == 0 {
		return nil, nil
	}
	if opt.Duration <= 0 {
		return nil, fmt.Errorf("%w: duration %g s", ErrRun, opt.Duration)
	}
	if opt.ControlPeriod == 0 {
		opt.ControlPeriod = 1e-3
	}
	if opt.ControlPeriod <= 0 || opt.ControlPeriod > opt.Duration {
		return nil, fmt.Errorf("%w: control period %g s", ErrRun, opt.ControlPeriod)
	}
	if opt.RecordPoints == 0 {
		opt.RecordPoints = 1000
	}
	if opt.EmergencyC == 0 {
		opt.EmergencyC = p.TDTM + 5
	}
	steps := int(opt.Duration/opt.ControlPeriod + 0.5)
	recordEvery := steps / opt.RecordPoints
	if recordEvery < 1 {
		recordEvery = 1
	}

	batch, err := p.Thermal.NewTransientBatch(opt.ControlPeriod, len(runs))
	if err != nil {
		return nil, err
	}

	lanes := make([]*batchLane, len(runs))
	powers := make([][]float64, len(runs))
	temps := make([][]float64, len(runs))
	for i, r := range runs {
		if r.Plan == nil || r.Ctrl == nil {
			return nil, fmt.Errorf("%w: nil argument in lane %d", ErrRun, i)
		}
		if err := r.Plan.Validate(); err != nil {
			return nil, err
		}
		if r.Plan.NumCores != p.NumCores() {
			return nil, fmt.Errorf("%w: plan has %d cores, platform %d", ErrRun, r.Plan.NumCores, p.NumCores())
		}
		l := &batchLane{
			ctrl:  r.Ctrl,
			work:  &mapping.Plan{NumCores: p.NumCores()},
			power: make([]float64, p.NumCores()),
		}
		l.work.Placements = append(l.work.Placements[:0], r.Plan.Placements...)
		tr := batch.Transient(i)
		l.peak, _ = tr.PeakBlockTemp()
		l.setLevel(ladder, ladder.Clamp(r.Ctrl.Current()))
		if opt.StartSteady {
			_, power, err := p.SteadyTemps(l.work, opt.Mode)
			if err != nil {
				return nil, err
			}
			if err := tr.SetSteadyState(power); err != nil {
				return nil, err
			}
			l.peak, _ = tr.PeakBlockTemp()
		}
		l.res.MaxTempC = l.peak
		l.temps = append([]float64(nil), tr.BlockTemps()...)
		lanes[i] = l
		powers[i] = l.power
		temps[i] = l.temps
	}

	for step := 0; step < steps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		now := float64(step) * opt.ControlPeriod

		// Phase 1: every lane's controller decision (with the DTM
		// emergency override) and power evaluation at its current
		// temperatures.
		for _, l := range lanes {
			level := ladder.Clamp(l.ctrl.Next(l.peak))
			if l.peak > opt.EmergencyC {
				level = 0
				l.res.DTMEvents++
			}
			l.setLevel(ladder, level)
			if err := l.evalPower(p, opt.Mode); err != nil {
				return nil, err
			}
		}

		// Phase 2: one batched implicit-Euler step for all lanes.
		if err := batch.StepAll(powers, nil, temps); err != nil {
			return nil, err
		}

		// Phase 3: per-lane accounting, identical to Run's exact path.
		for _, l := range lanes {
			l.peak = 0
			for _, t := range l.temps {
				if t > l.peak {
					l.peak = t
				}
			}
			if err := l.energy.Add(opt.ControlPeriod, l.totalP); err != nil {
				return nil, err
			}
			if l.totalP > l.res.PeakPowerW {
				l.res.PeakPowerW = l.totalP
			}
			if l.peak > l.res.MaxTempC {
				l.res.MaxTempC = l.peak
			}
			l.res.AvgGIPS += l.totalG
			if step%recordEvery == 0 || step == steps-1 {
				l.res.Time.Append(now, now)
				l.res.GIPS.Append(now, l.totalG)
				l.res.PeakTemp.Append(now, l.peak)
				l.res.PowerW.Append(now, l.totalP)
				l.res.LevelGHz.Append(now, l.fGHz)
			}
		}
	}

	out := make([]Result, len(lanes))
	for i, l := range lanes {
		l.res.AvgGIPS /= float64(steps)
		l.res.EnergyJ = l.energy.TotalJ()
		out[i] = l.res
	}
	return out, nil
}
