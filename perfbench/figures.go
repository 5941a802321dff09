package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"darksim/internal/experiments"
	"darksim/internal/progress"
	"darksim/internal/report"
	"darksim/internal/tech"
	"darksim/internal/thermal"
	"darksim/internal/verify"
)

// paperHorizon holds fig11–fig13 computed at their paper default
// horizons (100 s, 5 s, 4 s): the golden corpus only pins the 2 s
// verification horizon. Regenerate deliberately with -write-reference.
//
//go:embed reference/paper_horizon.json
var paperHorizon []byte

// transientIDs are the figures whose horizon the paper sets.
var transientIDs = []string{"fig11", "fig12", "fig13"}

// figurePasses is how many whole passes one run measures. A pass takes
// 13–37 s on a 2-vCPU Xeon VM, depending on how busy its host is; two
// keep a run within the benchmark's total time budget for every seeded
// run. A traced run measures one pass untraced and one traced, so that
// on a busy host it still ends well inside the per-run time limit.
const figurePasses = 2

var paperFigures = workload{
	why:     "every experiment at its paper horizon, one after another: what a paper reproducer waits for",
	setups:  9,
	prepare: loadFigureRefs,
	setup:   setupFigures,
	run:     runFigures,
	probe:   probeFigures,
}

// figRefs are the outputs the figures are checked against, loaded once
// before any set-up is timed.
var figRefs struct {
	golden map[string]*verify.GoldenFile
	ref    map[string][]*report.Table
}

func loadFigureRefs(*bench) error {
	figRefs.golden = map[string]*verify.GoldenFile{}
	corpus := experiments.GoldenCorpus()
	for _, e := range experiments.Registry() {
		data, err := fs.ReadFile(corpus, e.ID+".json")
		if err != nil {
			return err
		}
		var g verify.GoldenFile
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("golden %s: %w", e.ID, err)
		}
		figRefs.golden[e.ID] = &g
	}
	if err := json.Unmarshal(paperHorizon, &figRefs.ref); err != nil {
		return fmt.Errorf("paper-horizon reference: %w", err)
	}
	return nil
}

type figFixture struct {
	order []experiments.Experiment
}

func (*figFixture) close() {}

// setupFigures does what `darksim all` pays before its first figure:
// from cold platform and influence caches it builds every shared
// platform the figures run on. It also draws the seeded figure order.
func setupFigures(b *bench) (fixture, error) {
	resetCaches()
	if err := warm(paperPlatforms()); err != nil {
		return nil, err
	}
	fx := &figFixture{}
	// The seed orders the static figures; fig11–fig13 keep their registry
	// slots, so the one that builds the shared transient factor and macro
	// kernel first is always the same and each figure's time is comparable
	// across seeds.
	var static []experiments.Experiment
	for _, e := range experiments.Registry() {
		if !isTransient(e.ID) {
			static = append(static, e)
		}
	}
	static = shuffled(rand.New(rand.NewPCG(b.seed, 0xf1)), static)
	for _, e := range experiments.Registry() {
		if !isTransient(e.ID) {
			e, static = static[0], static[1:]
		}
		fx.order = append(fx.order, e)
	}
	return fx, nil
}

// pointClock records when a sweep's progress points arrive.
type pointClock struct {
	mu    sync.Mutex
	times []time.Time
}

func (c *pointClock) sink(progress.Point) {
	c.mu.Lock()
	c.times = append(c.times, time.Now())
	c.mu.Unlock()
}

// runFigures runs figurePasses whole passes over the registry, each from
// cold caches. It ignores the window: one pass is longer than it.
func runFigures(ctx context.Context, b *bench, f fixture, tr *tracer) (phase, error) {
	fx := f.(*figFixture)
	durs := map[string][]float64{}
	var passes []float64
	var static, pointMS12, pointMS13 []float64
	var infStats thermal.CacheStats
	var work solverTotals
	want := figurePasses
	if b.traced {
		want = 1
	}
	for len(passes) < want {
		resetCaches()
		results := map[string]experiments.Renderer{}
		passStart := time.Now()
		root := tr.reserve("pass", "", 0, passStart)
		var staticMS float64
		for _, e := range fx.order {
			runCtx := ctx
			clock := &pointClock{}
			if tr != nil && (e.ID == "fig12" || e.ID == "fig13") {
				runCtx = progress.With(ctx, clock.sink)
			}
			t0 := time.Now()
			r, err := experiments.RunWithDuration(runCtx, e, 0)
			t1 := time.Now()
			tr.add("experiment", e.ID, root, t0, t1)
			b.op(err, e.ID)
			if err != nil {
				continue
			}
			results[e.ID] = r
			d := t1.Sub(t0)
			durs[e.ID] = append(durs[e.ID], d.Seconds())
			switch e.ID {
			case "fig11":
			case "fig12":
				pointMS12 = append(pointMS12, perPoint(d, len(clock.times)))
			case "fig13":
				pointMS13 = append(pointMS13, perPoint(d, len(clock.times)))
			default:
				staticMS += ms(d)
			}
		}
		passEnd := time.Now()
		tr.finish(root, passEnd)
		passes = append(passes, passEnd.Sub(passStart).Seconds())
		static = append(static, staticMS)
		infStats = thermal.InfluenceCacheStats()
		st := solverStatsOf(paperPlatforms())
		work = solverTotals{work.solves + st.solves, work.sparseSolves + st.sparseSolves, work.iters + st.iters}
		checkFigures(b, fx, results, len(passes) == 1)
	}
	fmt.Fprintf(b.log, "paper-figures: %d pass(es), %.3f s median; fig11 %.3f s, fig12 %.3f s, fig13 %.3f s\n",
		len(passes), median(passes), median(durs["fig11"]), median(durs["fig12"]), median(durs["fig13"]))
	ph := phase{
		e2e: map[string]float64{
			"ops_per_s":  float64(len(passes)) / sum(passes),
			"op_p50_ms":  1000 * median(passes),
			"op_tail_ms": 1000 * quantile(passes, 1),
			"kind_a_ms":  1000 * median(durs["fig11"]),
			"kind_b_ms":  1000 * median(durs["fig12"]),
			"kind_c_ms":  1000 * median(durs["fig13"]),
		},
		layer: map[string]float64{
			"experiments.fig12.point_ms":  median(pointMS12),
			"experiments.fig13.point_ms":  median(pointMS13),
			"experiments.static_ms":       median(static),
			"thermal.influence.hit_ratio": hitRatio(infStats.Hits, infStats.Misses),
		},
	}
	solverLayer(work, float64(len(passes)), ph.layer)
	return ph, nil
}

// perPoint is a sweep's wall time per streamed point.
func perPoint(d time.Duration, points int) float64 {
	if points == 0 {
		return 0
	}
	return ms(d) / float64(points)
}

// paperPlatforms are the shared platforms the figures build: 100 cores
// at every node, and the paper's 198 cores at 11 nm and 361 at 8 nm.
func paperPlatforms() []platKey {
	var ks []platKey
	for _, n := range tech.Nodes() {
		ks = append(ks, platKey{n, 100})
	}
	return append(ks, platKey{tech.Node11, 198}, platKey{tech.Node8, 361})
}

// checkFigures checks one pass: static figures against the golden
// corpus, the transient figures against the paper-horizon reference,
// both at the corpus tolerances, and every physics invariant.
func checkFigures(b *bench, fx *figFixture, results map[string]experiments.Renderer, standalone bool) {
	for _, e := range fx.order {
		r, ok := results[e.ID]
		if !ok {
			continue
		}
		tables, ok := experiments.TablesOf(r)
		if !ok {
			b.check(false, "%s: no structured output", e.ID)
			continue
		}
		want, tol := figRefs.golden[e.ID].Tables, figRefs.golden[e.ID].Tolerance
		source := "golden"
		if isTransient(e.ID) {
			want, tol, source = figRefs.ref[e.ID], verify.DefaultTolerance, "paper-horizon reference"
		}
		diffs := compareTables(tables, want, tol)
		b.check(len(diffs) == 0, "%s vs %s: %s", e.ID, source, strings.Join(first(diffs, 3), "; "))
	}
	for _, inv := range verify.Invariants() {
		if inv.Figure == "" {
			if standalone {
				err := inv.Check(nil)
				b.check(err == nil, "invariant %s: %v", inv.Name, err)
			}
			continue
		}
		if r, ok := results[inv.Figure]; ok {
			err := inv.Check(r)
			b.check(err == nil, "invariant %s on %s: %v", inv.Name, inv.Figure, err)
		}
	}
}

func isTransient(id string) bool {
	for _, t := range transientIDs {
		if t == id {
			return true
		}
	}
	return false
}

func first(xs []string, n int) []string { return xs[:min(n, len(xs))] }

// compareTables diffs tables cell by cell: equal strings, or numbers
// within abs + rel·|want| after stripping the "x"/"%" decorations, the
// rule the golden corpus is checked with.
func compareTables(got, want []*report.Table, tol verify.Tolerance) []string {
	var d []string
	if len(got) != len(want) {
		return []string{fmt.Sprintf("table count %d, want %d", len(got), len(want))}
	}
	for i, w := range want {
		g := got[i]
		if !textClose(g.Title, w.Title, tol) || !equalStrings(g.Columns, w.Columns) ||
			len(g.Rows) != len(w.Rows) || len(g.Notes) != len(w.Notes) {
			d = append(d, fmt.Sprintf("table %q: shape differs", w.Title))
			continue
		}
		for r := range w.Rows {
			if len(g.Rows[r]) != len(w.Rows[r]) {
				d = append(d, fmt.Sprintf("table %q row %d: width differs", w.Title, r+1))
				continue
			}
			for c := range w.Rows[r] {
				if !cellClose(g.Rows[r][c], w.Rows[r][c], tol) {
					d = append(d, fmt.Sprintf("table %q row %d col %d: got %q want %q", w.Title, r+1, c+1, g.Rows[r][c], w.Rows[r][c]))
				}
			}
		}
		for n := range w.Notes {
			if !textClose(g.Notes[n], w.Notes[n], tol) {
				d = append(d, fmt.Sprintf("table %q note %d: got %q want %q", w.Title, n+1, g.Notes[n], w.Notes[n]))
			}
		}
	}
	return d
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func cellClose(got, want string, tol verify.Tolerance) bool {
	if got == want {
		return true
	}
	g, ok1 := numeric(got)
	w, ok2 := numeric(want)
	return ok1 && ok2 && math.Abs(g-w) <= tol.Abs+tol.Rel*math.Abs(w)
}

// textClose compares titles and notes token by token, so embedded
// numbers get the cell tolerance.
func textClose(got, want string, tol verify.Tolerance) bool {
	if got == want {
		return true
	}
	gt, wt := strings.Fields(got), strings.Fields(want)
	if len(gt) != len(wt) {
		return false
	}
	for i := range gt {
		if !cellClose(strings.Trim(gt[i], "(),:"), strings.Trim(wt[i], "(),:"), tol) {
			return false
		}
	}
	return true
}

func numeric(s string) (float64, bool) {
	for _, suf := range []string{"", "x", "%"} {
		if rest, ok := strings.CutSuffix(s, suf); ok {
			if v, err := strconv.ParseFloat(rest, 64); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func hitRatio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// writeReference recomputes fig11–fig13 at their paper horizons and
// writes the reference the paper-figures checks embed.
func writeReference(ctx context.Context, path string) error {
	ref := map[string][]*report.Table{}
	for _, id := range transientIDs {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		r, err := experiments.RunWithDuration(ctx, e, 0)
		if err != nil {
			return err
		}
		ref[id], _ = experiments.TablesOf(r)
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
