package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"darksim/internal/apps"
	"darksim/internal/boost"
	"darksim/internal/core"
	"darksim/internal/experiments"
	"darksim/internal/mapping"
	"darksim/internal/policy"
	"darksim/internal/scenario"
	"darksim/internal/sim"
	"darksim/internal/tech"
	"darksim/internal/thermal"
	"darksim/internal/tsp"
)

// layerNames are the per-layer metrics every traced run reports. A
// layer the workload does not reach reads 0.
var layerNames = []string{
	"linalg.dense.bytes_per_solve", "linalg.dense.gbps", "linalg.cg.nnz", "linalg.cg.iters_per_solve", "linalg.cg.iterations",
	"thermal.nodes.c100", "thermal.nodes.c198", "thermal.nodes.c361", "thermal.nodes.c1024",
	"linalg.nnz.c100", "linalg.nnz.c198", "linalg.nnz.c361", "linalg.nnz.c1024",
	"thermal.step.dense_us", "thermal.step.sparse_us", "thermal.batch.us_per_lane", "thermal.macro.us",
	"thermal.factor_ms", "thermal.steady.dense_us", "thermal.steady.sparse_us",
	"thermal.influence.cold_ms.c100", "thermal.influence.cold_ms.c198", "thermal.influence.cold_ms.c361", "thermal.influence.cold_ms.c1024",
	"thermal.influence.hit_ratio", "thermal.solves",
	"sim.exact.us_per_period", "sim.auto.us_per_period", "sim.batch.us_per_lane_period",
	"experiments.fig12.point_ms", "experiments.fig13.point_ms", "experiments.static_ms", "core.platform_build_ms",
	"tsp.table_ms", "scenario.normalize_us", "scenario.evaluate_ms",
	"service.hit_ratio", "service.hit_p50_us", "service.compute_ms_mean", "service.coalesced", "service.evictions",
	"policy.execute_ms", "policy.pack.us_per_lane_period", "policy.violations",
	"jobs.queue_wait_ms", "jobs.overhead_ms", "jobs.events_per_run", "jobs.rejected", "jobs.first_point_p50_ms",
	"trace.overhead.ops_per_s", "trace.overhead.op_p50_ms", "trace.overhead.op_tail_ms",
	"trace.overhead.kind_a_ms", "trace.overhead.kind_b_ms", "trace.overhead.kind_c_ms",
	"trace.uncovered_share", "trace.spans",
}

// The probes call each inner layer's public functions on the platforms
// the workload runs on: fig11's 16 nm 100-core model (364 nodes, dense)
// and fig13's 11 nm 198-core model (sparse).
func probeFigures(ctx context.Context, b *bench, _ fixture, out map[string]float64) error {
	for _, p := range []func(context.Context, map[string]float64) error{
		probeCounts, probeStep, probeFactor, probeSteady, probeInfluence, probeSim, probePlatform, probeTSPTable,
	} {
		if err := p(ctx, out); err != nil {
			return err
		}
	}
	return nil
}

func probeServe(ctx context.Context, b *bench, f fixture, out map[string]float64) error {
	for _, p := range []func(context.Context, map[string]float64) error{
		probeCounts, probeSteady, probeInfluence, probePlatform, probeTSPTable, probeStatic,
	} {
		if err := p(ctx, out); err != nil {
			return err
		}
	}
	return probeScenario(ctx, f.(*serveFixture).gen.specs, out)
}

func probeAsync(ctx context.Context, b *bench, _ fixture, out map[string]float64) error {
	for _, p := range []func(context.Context, map[string]float64) error{
		probeCounts, probeStep, probeSim, probePlatform, probePolicyPack,
	} {
		if err := p(ctx, out); err != nil {
			return err
		}
	}
	var specs []scenario.Spec
	for _, name := range packs {
		s, err := scenario.PackByName(name)
		if err != nil {
			return err
		}
		specs = append(specs, s)
	}
	return probeScenario(ctx, specs, out)
}

func resetCaches() {
	experiments.ResetPlatforms()
	thermal.ResetInfluenceCache()
}

func bytesReader(b []byte) io.Reader {
	if b == nil {
		return nil
	}
	return bytes.NewReader(b)
}

// timeIt runs fn reps times and returns the median duration.
func timeIt(reps int, fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

func uniformPower(n int, w float64) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = w
	}
	return p
}

// probeCounts reports exact work sizes: nodes and conductance nonzeros
// per 16 nm platform size, fig13's CG matrix size, and the computed
// bytes one dense solve streams (the packed n² Cholesky factor).
func probeCounts(_ context.Context, out map[string]float64) error {
	for _, c := range tspCores {
		p, err := experiments.PlatformFor(tech.Node16, c)
		if err != nil {
			return err
		}
		out[fmt.Sprintf("thermal.nodes.c%d", c)] = float64(p.Thermal.NumNodes())
		out[fmt.Sprintf("linalg.nnz.c%d", c)] = float64(len(p.Thermal.Conductances().Val))
	}
	p13, err := experiments.PlatformFor(tech.Node11, 198)
	if err != nil {
		return err
	}
	out["linalg.cg.nnz"] = float64(len(p13.Thermal.Conductances().Val))
	n := float64(out["thermal.nodes.c100"])
	out["linalg.dense.bytes_per_solve"] = 8 * n * n
	return nil
}

// probeStep times one implicit-Euler step on the dense and sparse
// models, the lockstep batch, and one 64-step macro hop.
func probeStep(_ context.Context, out map[string]float64) error {
	for _, k := range []struct {
		node  tech.Node
		cores int
		name  string
		steps int
	}{{tech.Node16, 100, "thermal.step.dense_us", 400}, {tech.Node11, 198, "thermal.step.sparse_us", 200}} {
		p, err := experiments.PlatformFor(k.node, k.cores)
		if err != nil {
			return err
		}
		tr, err := p.Thermal.NewTransient(1e-3)
		if err != nil {
			return err
		}
		pw := uniformPower(p.NumCores(), 1.5)
		if err := tr.SetSteadyState(uniformPower(p.NumCores(), 1)); err != nil {
			return err
		}
		d, err := timeIt(5, func() error {
			for i := 0; i < k.steps/5; i++ {
				if _, err := tr.Step(pw); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		out[k.name] = us(d) / float64(k.steps/5)
	}
	if s := out["thermal.step.dense_us"]; s > 0 {
		out["linalg.dense.gbps"] = out["linalg.dense.bytes_per_solve"] / (s * 1e3)
	}

	p, err := experiments.PlatformFor(tech.Node16, 100)
	if err != nil {
		return err
	}
	const lanes = 8
	batch, err := p.Thermal.NewTransientBatch(1e-3, lanes)
	if err != nil {
		return err
	}
	powers, temps := make([][]float64, lanes), make([][]float64, lanes)
	for i := range powers {
		powers[i] = uniformPower(p.NumCores(), 0.5+0.2*float64(i))
		temps[i] = make([]float64, p.NumCores())
		batch.Transient(i).SetUniform(60)
	}
	d, err := timeIt(5, func() error {
		for i := 0; i < 20; i++ {
			if err := batch.StepAll(powers, nil, temps); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["thermal.batch.us_per_lane"] = us(d) / (20 * lanes)

	tr, err := p.Thermal.NewTransient(1e-3)
	if err != nil {
		return err
	}
	if tr.MacroSupported() {
		tr.SetUniform(60)
		pw := uniformPower(p.NumCores(), 1.2)
		if _, err := tr.MacroStep(pw, 64); err != nil { // builds the ladder
			return err
		}
		d, err := timeIt(21, func() error { _, err := tr.MacroStep(pw, 64); return err })
		if err != nil {
			return err
		}
		out["thermal.macro.us"] = us(d)
	}
	return nil
}

// probeFactor times factoring the transient system of a freshly built
// fig11 platform.
func probeFactor(_ context.Context, out map[string]float64) error {
	var ds []float64
	for i := 0; i < 3; i++ {
		p, err := core.NewPlatformWith(tech.Node16, core.Options{Cores: 100})
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := p.Thermal.NewTransient(1e-3); err != nil {
			return err
		}
		ds = append(ds, ms(time.Since(t0)))
	}
	out["thermal.factor_ms"] = median(ds)
	return nil
}

// probeSteady times one steady-state solve, dense and sparse.
func probeSteady(_ context.Context, out map[string]float64) error {
	for _, k := range []struct {
		node  tech.Node
		cores int
		name  string
	}{{tech.Node16, 100, "thermal.steady.dense_us"}, {tech.Node11, 198, "thermal.steady.sparse_us"}} {
		p, err := experiments.PlatformFor(k.node, k.cores)
		if err != nil {
			return err
		}
		pw := uniformPower(p.NumCores(), 1.3)
		d, err := timeIt(31, func() error { _, err := p.Thermal.SteadyState(pw); return err })
		if err != nil {
			return err
		}
		out[k.name] = us(d)
	}
	return nil
}

// probeInfluence times a cold influence-matrix build per core count on
// fresh 16 nm platforms. It empties the influence cache.
func probeInfluence(ctx context.Context, out map[string]float64) error {
	for _, c := range tspCores {
		p, err := core.NewPlatformWith(tech.Node16, core.Options{Cores: c})
		if err != nil {
			return err
		}
		thermal.ResetInfluenceCache()
		t0 := time.Now()
		if _, err := p.Thermal.InfluenceMatrix(ctx); err != nil {
			return err
		}
		out[fmt.Sprintf("thermal.influence.cold_ms.c%d", c)] = ms(time.Since(t0))
	}
	thermal.ResetInfluenceCache()
	return nil
}

// fig11Plan is fig11's workload: 12 x264 instances of 8 threads at
// 3 GHz, periphery first, on the 16 nm 100-core platform.
func fig11Plan(p *core.Platform, instances int) (*mapping.Plan, error) {
	x, err := apps.ByName("x264")
	if err != nil {
		return nil, err
	}
	th := apps.MaxThreadsPerInstance
	cores, err := mapping.PeripheryFirst(p.Floorplan, instances*th)
	if err != nil {
		return nil, err
	}
	plan := &mapping.Plan{NumCores: p.NumCores()}
	for i := 0; i < instances; i++ {
		plan.Placements = append(plan.Placements, mapping.Placement{App: x, Cores: cores[i*th : (i+1)*th], FGHz: 3.0, Threads: th})
	}
	return plan, plan.Validate()
}

// probeSim times the period loop on fig11's set-up: the closed-loop
// boost arm (exact), the constant arm (macro-stepped), and a fig12-like
// lockstep batch of boost lanes over different instance counts.
func probeSim(ctx context.Context, out map[string]float64) error {
	p, err := experiments.PlatformFor(tech.Node16, 100)
	if err != nil {
		return err
	}
	plan, err := fig11Plan(p, 12)
	if err != nil {
		return err
	}
	ladder := p.BoostLadder
	level, err := boost.FindConstantLevel(p, plan, ladder, p.TDTM)
	if err != nil {
		return err
	}
	opts := func(d float64) sim.Options {
		return sim.Options{Duration: d, ControlPeriod: 1e-3, StartSteady: true, StepMode: sim.StepAuto}
	}
	d, err := timeIt(3, func() error {
		ctrl, err := boost.NewClosed(p.TDTM, level, len(ladder.Points)-1)
		if err != nil {
			return err
		}
		_, err = sim.Run(p, plan, ctrl, ladder, opts(0.2))
		return err
	})
	if err != nil {
		return err
	}
	out["sim.exact.us_per_period"] = us(d) / 200
	d, err = timeIt(3, func() error {
		_, err := sim.Run(p, plan, boost.Constant{Level: level}, ladder, opts(2))
		return err
	})
	if err != nil {
		return err
	}
	out["sim.auto.us_per_period"] = us(d) / 2000

	var runs []sim.BatchRun
	for _, inst := range []int{3, 6, 9, 12} {
		pl, err := fig11Plan(p, inst)
		if err != nil {
			return err
		}
		lv, err := boost.FindConstantLevel(p, pl, ladder, p.TDTM)
		if err != nil {
			return err
		}
		ctrl, err := boost.NewClosed(p.TDTM, lv, len(ladder.Points)-1)
		if err != nil {
			return err
		}
		runs = append(runs, sim.BatchRun{Plan: pl, Ctrl: ctrl})
	}
	t0 := time.Now()
	if _, err := sim.RunBatch(ctx, p, runs, ladder, opts(0.1)); err != nil {
		return err
	}
	out["sim.batch.us_per_lane_period"] = us(time.Since(t0)) / float64(len(runs)*100)
	return nil
}

// probePlatform times building the fig11 platform from scratch.
func probePlatform(_ context.Context, out map[string]float64) error {
	d, err := timeIt(3, func() error {
		_, err := core.NewPlatformWith(tech.Node16, core.Options{Cores: 100})
		return err
	})
	out["core.platform_build_ms"] = ms(d)
	return err
}

// probeTSPTable times the worst-case TSP table of the 16 nm 100-core
// platform over a warm influence matrix.
func probeTSPTable(ctx context.Context, out map[string]float64) error {
	p, err := experiments.PlatformFor(tech.Node16, 100)
	if err != nil {
		return err
	}
	calc, err := tsp.New(p.Thermal, p.TDTM)
	if err != nil {
		return err
	}
	if _, err := calc.Table(ctx, p.NumCores()); err != nil {
		return err
	}
	d, err := timeIt(3, func() error { _, err := calc.Table(ctx, p.NumCores()); return err })
	out["tsp.table_ms"] = ms(d)
	return err
}

// probeStatic times the static figures once each over warm platforms.
func probeStatic(ctx context.Context, out map[string]float64) error {
	var total time.Duration
	for _, id := range staticFigs {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := e.Run(ctx); err != nil {
			return err
		}
		total += time.Since(t0)
	}
	out["experiments.static_ms"] = ms(total)
	return nil
}

// probeScenario times Normalize and Compile+Evaluate over the workload's
// own specs.
func probeScenario(ctx context.Context, specs []scenario.Spec, out map[string]float64) error {
	var norm, eval []float64
	for i, s := range specs {
		d, err := timeIt(5, func() error { _, err := scenario.Normalize(s); return err })
		if err != nil {
			return err
		}
		norm = append(norm, us(d))
		if i >= 8 {
			continue
		}
		t0 := time.Now()
		sc, err := scenario.Compile(s)
		if err != nil {
			return err
		}
		if _, err := sc.Evaluate(ctx); err != nil {
			return err
		}
		eval = append(eval, ms(time.Since(t0)))
	}
	out["scenario.normalize_us"] = median(norm)
	out["scenario.evaluate_ms"] = median(eval)
	return nil
}

// probePolicyPack times a direct race of the async mix's race policies
// on the symmetric pack, per lane and control period.
func probePolicyPack(ctx context.Context, out map[string]float64) error {
	spec := policy.Spec{Pack: scenario.PackSymmetric, DurationS: policyDurationS}
	for _, p := range append(slices.Clone(safePolicies), negControls...) {
		spec.Policies = append(spec.Policies, policy.PolicyConfig{Name: p})
	}
	d, err := timeIt(3, func() error { _, err := policy.Execute(ctx, spec); return err })
	out["policy.pack.us_per_lane_period"] = us(d) / (float64(len(spec.Policies)) * policyDurationS * 1000)
	return err
}
