package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"time"

	"darksim/internal/apps"
	"darksim/internal/experiments"
	"darksim/internal/scenario"
	"darksim/internal/service"
	"darksim/internal/tech"
)

var serveInteractive = workload{
	why:    "closed-loop clients on darksimd's interactive endpoints: result cache, singleflight, scenario engine and steady/influence solves",
	setups: 5,
	setup:  setupServe,
	run:    runServe,
	probe:  probeServe,
}

// Request classes of the interactive mix. No record of darksimd's real
// traffic exists, so the mix is the plainest one (an assumption, not a
// measurement): each request picks one of the three classes with equal
// probability and then a key of that class uniformly.
const (
	classTSP = iota
	classScenario
	classExperiment
)

var (
	classNames = []string{"tsp", "scenario", "experiment"}
	tspCores   = []int{100, 198, 361, 1024}
	staticFigs = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig14"}
	serveNodes = []tech.Node{tech.Node16, tech.Node11}
	// serveTDPs are the two budgets of the symmetric-pack differential
	// check in internal/verify.
	serveTDPs = []float64{185, 220}
)

// tspSteps is how many evenly spaced active-core counts each TSP
// platform is asked about.
const tspSteps = 12

// servePlatforms are the shared platforms the TSP keys and the
// single-type scenarios run on: every size at 16 nm, and the paper's
// sizes at 11 nm. With the big.LITTLE floorplan of the scenario mix
// their influence matrices fill the 8-entry influence cache exactly, so
// the daemon's working set fits it and the set-up pays the cold builds.
func servePlatforms() []platKey {
	ks := []platKey{{tech.Node16, 100}, {tech.Node16, 198}, {tech.Node16, 361}, {tech.Node16, 1024}}
	return append(ks, platKey{tech.Node11, 100}, platKey{tech.Node11, 198}, platKey{tech.Node11, 361})
}

type request struct {
	class     int
	method    string
	path      string
	body      []byte
	respelled bool // repeats the client's previous scenario
}

// mixGen draws the seeded request sequence both clients share. The key
// sets are fixed, so the cost mix does not depend on the seed; the seed
// picks the order and the spellings. Every scenario a client posts is
// posted again, respelled, as that client's next scenario request, so
// half of the scenario requests are repeats that hit unless the cache
// evicted the chip in between (the key space churns the 64-entry cache
// hundreds of times a second). Duplicates that reach the server
// concurrently come from the two clients drawing the same key at once.
type mixGen struct {
	mu      sync.Mutex
	rng     *rand.Rand
	tsp     []string
	specs   []scenario.Spec
	pending [2]*scenario.Spec
}

func newMixGen(seed uint64) *mixGen {
	var tsp []string
	for _, k := range servePlatforms() {
		for i := 1; i <= tspSteps; i++ {
			tsp = append(tsp, fmt.Sprintf("node=%d&cores=%d&active=%d", int(k.node), k.cores, i*k.cores/tspSteps))
		}
	}
	return &mixGen{rng: rand.New(rand.NewPCG(seed, 0x5e7e)), tsp: tsp, specs: serveSpecs()}
}

func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := slices.Clone(xs)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// bigLittle is the asymmetric pack's chip with another application and
// budget: 4 big cores (4× area, 2.5× power, 1.8× performance) for the
// serial phases and 84 little cores for the parallel phase.
func bigLittle(app string, tdp float64) scenario.Spec {
	return scenario.Spec{
		Name:   fmt.Sprintf("biglittle-%s-%g", app, tdp),
		NodeNM: int(tech.Node16),
		TDPW:   tdp,
		CoreTypes: []scenario.CoreType{
			{Name: "big", Count: 4, AreaScale: 4, PowerScale: 2.5, PerfScale: 1.8},
			{Name: "little", Count: 84},
		},
		Apps: []scenario.AppMix{
			{App: app, CoreType: "big", Instances: 4, Threads: 1},
			{App: app, CoreType: "little", Instances: 84 / apps.MaxThreadsPerInstance, Threads: apps.MaxThreadsPerInstance},
		},
	}
}

// serveSpecs are the scenario key space: every application at both
// budgets, as a single-type chip at each serving node and as the
// big.LITTLE chip: 42 chips.
func serveSpecs() []scenario.Spec {
	var specs []scenario.Spec
	for _, a := range apps.Catalog() {
		for _, tdp := range serveTDPs {
			for _, n := range serveNodes {
				specs = append(specs, scenario.SymmetricSpec(n, a.Name, tdp))
			}
			specs = append(specs, bigLittle(a.Name, tdp))
		}
	}
	return specs
}

// respell writes the same chip differently: a new display name, and
// either every default spelled out or the collections reversed.
func respell(rng *rand.Rand, s scenario.Spec) ([]byte, error) {
	s.Name = fmt.Sprintf("chip-%d", rng.IntN(1_000_000))
	if rng.IntN(2) == 0 {
		n, err := scenario.Normalize(s)
		if err != nil {
			return nil, err
		}
		s = n
	}
	s.CoreTypes = slices.Clone(s.CoreTypes)
	s.Apps = slices.Clone(s.Apps)
	slices.Reverse(s.CoreTypes)
	slices.Reverse(s.Apps)
	return json.Marshal(s)
}

// next draws client c's next request.
func (g *mixGen) next(c int) (request, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rng := g.rng
	switch rng.IntN(3) {
	case classTSP:
		q := strings.Split(g.tsp[rng.IntN(len(g.tsp))], "&")
		return request{class: classTSP, method: "GET", path: "/v1/tsp?" + strings.Join(shuffled(rng, q), "&")}, nil
	case classScenario:
		spec, repeat := g.pending[c], true
		if spec == nil {
			spec, repeat = &g.specs[rng.IntN(len(g.specs))], false
			g.pending[c] = spec
		} else {
			g.pending[c] = nil
		}
		body, err := respell(rng, *spec)
		return request{class: classScenario, method: "POST", path: "/v1/scenarios", body: body, respelled: repeat}, err
	default:
		return request{class: classExperiment, method: "GET", path: "/v1/experiments/" + staticFigs[rng.IntN(len(staticFigs))]}, nil
	}
}

type serveFixture struct {
	d   *daemon
	gen *mixGen
}

func (f *serveFixture) close() { f.d.close() }

// setupServe starts a daemon with the default configuration over cold
// caches, then builds the shared platforms and their influence
// matrices, as a running daemon has them.
func setupServe(b *bench) (fixture, error) {
	resetCaches()
	d := newDaemon(nil)
	if err := warmServe(); err != nil {
		d.close()
		return nil, err
	}
	if code, _, _, err := d.do("GET", "/healthz", nil, 0); err != nil || code != http.StatusOK {
		d.close()
		return nil, fmt.Errorf("healthz: status %d: %v", code, err)
	}
	return &serveFixture{d: d, gen: newMixGen(b.seed)}, nil
}

// sample is a hit kept for the cold-recompute check.
type sample struct {
	req  request
	body []byte
}

type served struct {
	class int
	hit   bool
	lat   time.Duration
	done  time.Duration // completion, from the window's start
}

// serveSlice is the length of the slices the window is cut into. Each
// end-to-end metric is computed per slice and reported as the median
// over the slices, so a few seconds of host contention move it less
// than they would a whole-window figure.
const serveSlice = time.Second

// runServe drives two closed-loop clients for the window.
func runServe(ctx context.Context, b *bench, f fixture, tr *tracer) (phase, error) {
	fx := f.(*serveFixture)
	d := fx.d
	d.tr.Store(tr)
	defer d.tr.Store(nil)
	plats := servePlatforms()
	before, err := d.snapshot(plats)
	if err != nil {
		return phase{}, err
	}
	var (
		mu       sync.Mutex
		log      []served
		samples  []sample
		failures []string
		genErr   error
		repeats  [2]int // respelled repeats sent, and those that hit
	)
	fail := func(msg string) {
		mu.Lock()
		failures = append(failures, msg)
		mu.Unlock()
	}
	sampleRng := rand.New(rand.NewPCG(b.seed, 0x5a))
	start := time.Now()
	deadline := start.Add(b.window)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r, err := fx.gen.next(c)
				if err != nil {
					mu.Lock()
					genErr = err
					mu.Unlock()
					return
				}
				t0 := time.Now()
				root := tr.reserve("request", classNames[r.class], 0, t0)
				code, hdr, body, err := d.do(r.method, r.path, r.body, root)
				t1 := time.Now()
				tr.finish(root, t1)
				cache := ""
				if hdr != nil {
					cache = hdr.Get("X-Darksim-Cache")
				}
				switch {
				case err != nil:
					fail(fmt.Sprintf("%s %s: %v", r.method, r.path, err))
				case code != http.StatusOK:
					fail(fmt.Sprintf("%s %s: status %d: %s", r.method, r.path, code, body))
				}
				mu.Lock()
				log = append(log, served{r.class, cache == "hit", t1.Sub(t0), t1.Sub(start)})
				if r.respelled {
					repeats[0]++
					if cache == "hit" {
						repeats[1]++
					}
				}
				if err == nil && code == http.StatusOK && cache == "hit" && len(samples) < 12 && sampleRng.Float64() < 0.02 {
					samples = append(samples, sample{r, body})
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if genErr != nil {
		return phase{}, genErr
	}
	after, err := d.snapshot(plats)
	if err != nil {
		return phase{}, err
	}

	b.attempted += len(log)
	for _, f := range failures {
		b.failed++
		b.failures = append(b.failures, f)
	}
	checkColdRecompute(b, samples)
	checkRespelled(b, d, fx.gen.specs, rand.New(rand.NewPCG(b.seed, 0x5b)))

	var hits, misses []float64
	byClass := make([]int, len(classNames))
	for _, s := range log {
		byClass[s.class]++
		if s.hit {
			hits = append(hits, ms(s.lat))
		} else {
			misses = append(misses, ms(s.lat))
		}
	}
	fmt.Fprintf(b.log, "serve-interactive: %d requests in %.2f s (tsp %d, scenario %d, experiment %d), %d hit samples re-checked\n",
		len(log), elapsed.Seconds(), byClass[0], byClass[1], byClass[2], len(samples))
	fmt.Fprintf(b.log, "serve-interactive: %d hits p25/p50/p75 %.3f/%.3f/%.3f ms; %d misses p25/p50/p75 %.3f/%.3f/%.3f ms\n",
		len(hits), quantile(hits, 0.25), median(hits), quantile(hits, 0.75),
		len(misses), quantile(misses, 0.25), median(misses), quantile(misses, 0.75))
	fmt.Fprintf(b.log, "serve-interactive: %d of %d respelled repeats hit (the rest were evicted before the repeat)\n", repeats[1], repeats[0])
	ph := phase{
		e2e:   sliceMedians(log, b.window),
		layer: map[string]float64{},
	}
	d.mu.Lock()
	serviceLayer(before, after, d.hitsUS, ph.layer)
	d.mu.Unlock()
	return ph, nil
}

// sliceMedians computes the end-to-end metrics per serveSlice of the
// window, from the requests completed in it, and returns their medians
// over the slices: throughput, p50 and p99 of all requests, the mean
// latency of the TSP and scenario classes (misses are common in both, so
// a class mean is steady where a class median would sit near the jump
// from hits to misses), and the median latency of the experiment class
// (nearly all hits; its rare misses would swing a mean).
func sliceMedians(log []served, window time.Duration) map[string]float64 {
	n := max(1, int(window/serveSlice))
	slices := make([][]served, n)
	for _, s := range log {
		if i := int(s.done / serveSlice); i < n {
			slices[i] = append(slices[i], s)
		}
	}
	per := map[string][]float64{}
	for _, sl := range slices {
		var all []float64
		byClass := make([][]float64, len(classNames))
		for _, s := range sl {
			all = append(all, ms(s.lat))
			byClass[s.class] = append(byClass[s.class], ms(s.lat))
		}
		per["ops_per_s"] = append(per["ops_per_s"], float64(len(sl))/serveSlice.Seconds())
		per["op_p50_ms"] = append(per["op_p50_ms"], median(all))
		per["op_tail_ms"] = append(per["op_tail_ms"], quantile(all, 0.99))
		per["kind_a_ms"] = append(per["kind_a_ms"], mean(byClass[classTSP]))
		per["kind_b_ms"] = append(per["kind_b_ms"], mean(byClass[classScenario]))
		per["kind_c_ms"] = append(per["kind_c_ms"], median(byClass[classExperiment]))
	}
	out := map[string]float64{}
	for k, v := range per {
		out[k] = median(v)
	}
	return out
}

// checkColdRecompute replays each sampled hit on a fresh server (empty
// result cache) and requires byte-identical tables.
func checkColdRecompute(b *bench, samples []sample) {
	for _, s := range samples {
		body, err := sameDisplayName(s)
		if err != nil {
			b.check(false, "%s %s: %v", s.req.method, s.req.path, err)
			continue
		}
		ref := service.New(service.Config{}, nil)
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest(s.req.method, s.req.path, bytesReader(body)))
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_ = ref.Close(ctx)
		cancel()
		got, err1 := tablesOf(s.body)
		want, err2 := tablesOf(rec.Body.Bytes())
		b.check(rec.Code == http.StatusOK && err1 == nil && err2 == nil && string(got) == string(want),
			"%s %s: cached tables differ from a cold recompute (status %d)", s.req.method, s.req.path, rec.Code)
	}
}

// checkRespelled posts every chip of the key space to the daemon after
// the window, when no other request can evict it, once in one spelling
// and then in another: the second post must be a cache hit with the
// first one's tables.
func checkRespelled(b *bench, d *daemon, specs []scenario.Spec, rng *rand.Rand) {
	for _, spec := range specs {
		var bodies [2][]byte
		for i := range bodies {
			body, err := respell(rng, spec)
			if err != nil {
				b.check(false, "respelling %s: %v", spec.Name, err)
				return
			}
			bodies[i] = body
		}
		code1, _, first, err1 := d.do("POST", "/v1/scenarios", bodies[0], 0)
		code2, hdr, second, err2 := d.do("POST", "/v1/scenarios", bodies[1], 0)
		cache := ""
		if hdr != nil {
			cache = hdr.Get("X-Darksim-Cache")
		}
		t1, _ := tablesOf(first)
		t2, _ := tablesOf(second)
		b.check(err1 == nil && err2 == nil && code1 == http.StatusOK && code2 == http.StatusOK && cache == "hit" && string(t1) == string(t2),
			"%s respelled: status %d then %d, came back %q, want hit with the same tables (%v, %v)", spec.Name, code1, code2, cache, err1, err2)
	}
}

// tablesOf extracts the raw "tables" member of a result response.
func tablesOf(body []byte) (json.RawMessage, error) {
	var r struct {
		Tables json.RawMessage `json:"tables"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	if len(r.Tables) == 0 {
		return nil, fmt.Errorf("no tables")
	}
	return r.Tables, nil
}

// sameDisplayName returns the sample's request body renamed to the
// display name the cached result carries: respelled specs share one
// cache entry, whose tables name the spelling that computed it.
func sameDisplayName(s sample) ([]byte, error) {
	if s.req.class != classScenario {
		return s.req.body, nil
	}
	var r struct {
		Tables []struct {
			Title string `json:"title"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(s.body, &r); err != nil || len(r.Tables) == 0 {
		return nil, fmt.Errorf("unreadable scenario response")
	}
	name, _, ok := strings.Cut(strings.TrimPrefix(r.Tables[0].Title, "Scenario "), ": chip,")
	if !ok {
		return nil, fmt.Errorf("scenario title %q has no display name", r.Tables[0].Title)
	}
	var spec map[string]any
	if err := json.Unmarshal(s.req.body, &spec); err != nil {
		return nil, err
	}
	spec["name"] = name
	return json.Marshal(spec)
}

func warmServe() error {
	ctx := context.Background()
	if err := warm(servePlatforms()); err != nil {
		return err
	}
	for _, k := range servePlatforms() {
		p, err := experiments.PlatformFor(k.node, k.cores)
		if err != nil {
			return err
		}
		if _, err := p.Thermal.InfluenceMatrix(ctx); err != nil {
			return err
		}
	}
	sc, err := scenario.Compile(bigLittle("x264", 220))
	if err != nil {
		return err
	}
	_, err = sc.Evaluate(ctx)
	return err
}
