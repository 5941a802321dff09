package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"darksim/internal/experiments"
	"darksim/internal/jobs"
	"darksim/internal/policy"
	"darksim/internal/report"
	"darksim/internal/scenario"
	"darksim/internal/tech"
)

var asyncRuns = workload{
	why:    "closed-loop clients submitting runs and following SSE to the end: jobs queue, JSONL store and policy lane pack",
	setups: 15,
	setup:  setupAsync,
	run:    runAsync,
	probe:  probeAsync,
}

// A race runs every registered policy but patterned, which re-places
// the TDP fill and so inherits tdpmap's budget overshoot on some packs
// without being a declared negative control. The safe policies must
// pass every assertion; the negative controls must be caught.
var (
	packs        = []string{scenario.PackSymmetric, scenario.PackAsymmetric, scenario.PackMultiInstancing}
	safePolicies = []string{"constant", "boost", "dsrem", "darkgates"}
	negControls  = []string{"boost-unsafe", "tdpmap"}
)

// The run parameters come from the repository where it has them: races
// and tunes last the policy spec's default duration, fig12 runs the
// duration `make jobs-smoke` submits. The tune budget is an assumption
// that keeps a tune about as long as a race.
const (
	policyDurationS = 0.5
	fig12DurationS  = 0.2
	tuneBudget      = 3
)

// runTemplate is one async submission of the seeded cycle.
type runTemplate struct {
	kind     string // race | tune | fig12
	body     []byte
	spec     *policy.Spec
	fig12Dur float64
}

// asyncCycle is one cycle of the plainest mix (an assumption, not
// measured traffic): per pack one race of the safe policies and the
// negative controls, and one tune of boost against constant,
// plus one fig12 run per pack, so the three run kinds have equal shares.
// The seed orders the cycle and picks tune seeds and spellings.
func asyncCycle(rng *rand.Rand) ([]runTemplate, error) {
	var ts []runTemplate
	add := func(t runTemplate, req any) error {
		body, err := json.Marshal(req)
		t.body = body
		ts = append(ts, t)
		return err
	}
	for _, pack := range packs {
		race := policy.Spec{Name: fmt.Sprintf("race-%d", rng.IntN(1_000_000)), Pack: pack, DurationS: policyDurationS}
		for _, p := range shuffled(rng, append(slices.Clone(safePolicies), negControls...)) {
			race.Policies = append(race.Policies, policy.PolicyConfig{Name: p})
		}
		tune := policy.Spec{
			Name:      fmt.Sprintf("tune-%d", rng.IntN(1_000_000)),
			Pack:      pack,
			DurationS: policyDurationS,
			Policies:  []policy.PolicyConfig{{Name: "constant"}, {Name: "boost"}},
			Tune:      "boost",
			Budget:    tuneBudget,
			Seed:      int64(1 + rng.IntN(1000)),
		}
		for _, t := range []runTemplate{{kind: "race", spec: &race}, {kind: "tune", spec: &tune}} {
			if err := add(t, map[string]any{"policy": t.spec}); err != nil {
				return nil, err
			}
		}
		if err := add(runTemplate{kind: "fig12", fig12Dur: fig12DurationS}, map[string]any{"experiment": "fig12", "duration": fig12DurationS}); err != nil {
			return nil, err
		}
	}
	return shuffled(rng, ts), nil
}

type asyncFixture struct {
	d   *daemon
	dir string
	rng *rand.Rand
}

func (f *asyncFixture) close() {
	f.d.close()
	_ = os.RemoveAll(f.dir)
}

// setupAsync starts a daemon whose runs persist to a JSONL file store in
// a fresh directory under the output directory.
func setupAsync(b *bench) (fixture, error) {
	resetCaches()
	root := filepath.Join(outDir(), "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "async-")
	if err != nil {
		return nil, err
	}
	store, err := jobs.OpenFileStore(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	fx := &asyncFixture{d: newDaemon(store), dir: dir, rng: rand.New(rand.NewPCG(b.seed, 0xa5))}
	if err := warm(asyncPlatforms()); err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

func asyncPlatforms() []platKey { return []platKey{{tech.Node16, 100}} }

// runRecord is one run as the client saw it.
type runRecord struct {
	t                                *runTemplate
	submit, accepted, running, first time.Time
	terminal                         time.Time
	state                            jobs.State
	events                           int
	points                           int
	tables                           []*report.Table
	errMsg                           string
}

func (r *runRecord) latency() time.Duration { return r.terminal.Sub(r.submit) }

// follow submits one run and reads its SSE stream to the terminal state.
func follow(d *daemon, t *runTemplate, tr *tracer) (*runRecord, error) {
	rec := &runRecord{t: t, submit: time.Now()}
	root := tr.reserve("run", t.kind, 0, rec.submit)
	code, _, body, err := d.do("POST", "/v1/runs", t.body, root)
	rec.accepted = time.Now()
	tr.add("submit", t.kind, root, rec.submit, rec.accepted)
	if err != nil {
		return rec, err
	}
	if code != http.StatusAccepted {
		return rec, fmt.Errorf("submit: status %d: %s", code, strings.TrimSpace(string(body)))
	}
	var run jobs.Run
	if err := json.Unmarshal(body, &run); err != nil {
		return rec, err
	}
	req, err := http.NewRequest("GET", d.hs.URL+"/v1/runs/"+run.ID+"/events", nil)
	if err != nil {
		return rec, err
	}
	if root > 0 {
		req.Header.Set(spanHeader, strconv.Itoa(root))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return rec, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rec, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		var ev jobs.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return rec, err
		}
		rec.events++
		switch {
		case ev.Type == jobs.EventPoint:
			rec.points++
			if rec.first.IsZero() {
				rec.first = now
			}
		case ev.State == jobs.StateRunning && rec.running.IsZero():
			rec.running = now
		case ev.State.Terminal():
			rec.terminal, rec.state, rec.tables, rec.errMsg = now, ev.State, ev.Tables, ev.Error
			if !rec.running.IsZero() {
				tr.add("queue", t.kind, root, rec.accepted, rec.running)
				tr.add("execute", t.kind, root, rec.running, now)
			}
			tr.finish(root, now)
			return rec, nil
		}
	}
	if err := sc.Err(); err != nil {
		return rec, err
	}
	return rec, fmt.Errorf("run %s: event stream ended before a terminal state", run.ID)
}

// runAsync drives two closed-loop clients through the seeded cycle.
func runAsync(ctx context.Context, b *bench, f fixture, tr *tracer) (phase, error) {
	fx := f.(*asyncFixture)
	d := fx.d
	d.tr.Store(tr)
	defer d.tr.Store(nil)
	plats := asyncPlatforms()
	before, err := d.snapshot(plats)
	if err != nil {
		return phase{}, err
	}
	var (
		mu    sync.Mutex
		cycle []runTemplate
		next  int
		recs  []*runRecord
		errs  []string
	)
	take := func() (*runTemplate, error) {
		mu.Lock()
		defer mu.Unlock()
		if next == len(cycle) {
			c, err := asyncCycle(fx.rng)
			if err != nil {
				return nil, err
			}
			cycle, next = c, 0
		}
		next++
		return &cycle[next-1], nil
	}
	start := time.Now()
	deadline := start.Add(b.window)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t, err := take()
				if err != nil {
					mu.Lock()
					errs = append(errs, err.Error())
					mu.Unlock()
					return
				}
				rec, err := follow(d, t, tr)
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Sprintf("%s run: %v", t.kind, err))
				} else {
					recs = append(recs, rec)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	after, err := d.snapshot(plats)
	if err != nil {
		return phase{}, err
	}
	b.attempted += len(errs)
	for _, e := range errs {
		b.failed++
		b.failures = append(b.failures, e)
	}
	direct := checkRuns(ctx, b, recs, fx.rng)

	var lat, first, pol, fig, queue, figPoint []float64
	events := 0
	for _, r := range recs {
		l := ms(r.latency())
		lat = append(lat, l)
		if !r.first.IsZero() {
			first = append(first, ms(r.first.Sub(r.submit)))
		}
		if r.t.kind == "fig12" {
			fig = append(fig, l)
			if !r.running.IsZero() {
				figPoint = append(figPoint, perPoint(r.terminal.Sub(r.running), r.points))
			}
		} else {
			pol = append(pol, l)
		}
		if !r.running.IsZero() {
			queue = append(queue, ms(r.running.Sub(r.submit)))
		}
		events += r.events
	}
	fmt.Fprintf(b.log, "async-runs: %d runs in %.2f s (%d policy, %d fig12)\n", len(recs), elapsed.Seconds(), len(pol), len(fig))
	byKind := map[string][]float64{}
	for _, r := range recs {
		byKind[r.t.kind] = append(byKind[r.t.kind], ms(r.latency()))
	}
	for _, k := range []string{"race", "tune", "fig12"} {
		v := byKind[k]
		fmt.Fprintf(b.log, "async-runs: %-5s n=%d p25/p50/p75 %.0f/%.0f/%.0f ms\n", k, len(v), quantile(v, 0.25), median(v), quantile(v, 0.75))
	}
	ph := phase{
		e2e: map[string]float64{
			"ops_per_s":  float64(len(recs)) / elapsed.Seconds(),
			"op_p50_ms":  median(lat),
			"op_tail_ms": quantile(lat, 0.75),
			"kind_a_ms":  median(first),
			"kind_b_ms":  mean(pol),
			"kind_c_ms":  median(fig),
		},
		layer: map[string]float64{
			"jobs.queue_wait_ms":         median(queue),
			"experiments.fig12.point_ms": median(figPoint),
			"jobs.first_point_p50_ms":    median(first),
			"jobs.events_per_run":        float64(events) / float64(max(len(recs), 1)),
		},
	}
	d.mu.Lock()
	serviceLayer(before, after, d.hitsUS, ph.layer)
	d.mu.Unlock()
	for k, v := range direct {
		ph.layer[k] = v
	}
	return ph, nil
}

// checkRuns checks every terminal run — done, the negative controls
// caught by their named assertion and the safe policies clean — and
// re-executes a seeded sample directly, requiring identical tables. It
// returns the policy-layer figures measured by those direct executions.
func checkRuns(ctx context.Context, b *bench, recs []*runRecord, rng *rand.Rand) map[string]float64 {
	violations := 0
	for _, r := range recs {
		b.check(r.state == jobs.StateDone, "%s run ended %s: %s", r.t.kind, r.state, r.errMsg)
		if r.t.kind == "fig12" {
			continue
		}
		caught := map[string]bool{}
		for _, t := range r.tables {
			if !strings.HasPrefix(t.Title, "Assertion violations") {
				continue
			}
			for _, row := range t.Rows {
				violations++
				pol, assertion := row[0], row[1]
				if slices.Contains(negControls, pol) {
					caught[pol] = caught[pol] || assertion == "never-exceed-tdtm"
				} else {
					b.check(false, "%s run: policy %s violated %s", r.t.kind, pol, assertion)
				}
			}
		}
		if r.t.kind == "race" {
			for _, n := range negControls {
				b.check(caught[n], "race on %s: negative control %s not caught by never-exceed-tdtm", r.t.spec.Pack, n)
			}
		}
	}

	var execMS, overheadMS []float64
	checked := 0
	for _, i := range rng.Perm(len(recs)) {
		if checked == 4 {
			break
		}
		r := recs[i]
		if r.state != jobs.StateDone {
			continue
		}
		checked++
		t0 := time.Now()
		var want []*report.Table
		var err error
		if r.t.kind == "fig12" {
			var res *experiments.Fig12Result
			if res, err = experiments.Fig12(ctx, experiments.Fig12Options{DurationS: r.t.fig12Dur}); err == nil {
				want = res.Tables()
			}
		} else {
			var res *policy.RunResult
			if res, err = policy.Execute(ctx, *r.t.spec); err == nil {
				want = res.Tables()
			}
		}
		d := time.Since(t0)
		if err != nil {
			b.check(false, "direct %s: %v", r.t.kind, err)
			continue
		}
		g, _ := json.Marshal(r.tables)
		w, _ := json.Marshal(want)
		b.check(string(g) == string(w), "%s run: terminal tables differ from a direct execution", r.t.kind)
		if r.t.kind != "fig12" {
			execMS = append(execMS, ms(d))
			overheadMS = append(overheadMS, ms(r.latency()-d))
		}
	}
	return map[string]float64{
		"policy.execute_ms": median(execMS),
		"jobs.overhead_ms":  median(overheadMS),
		"policy.violations": float64(violations) / float64(max(len(recs), 1)),
	}
}
