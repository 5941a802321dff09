// Command perfbench is darksim's end-to-end benchmark. It runs one named
// workload in-process against the repository's packages, checks every
// output, and prints a report whose last line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics declared in the
// repository's BENCHMARK.json; with -trace 1 the workload runs once
// untraced and once traced, followed by per-layer probes, and the metrics
// are the declared per-layer metrics (tracing overhead included).
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload paper-figures --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// declared is the metric contract read from BENCHMARK.json: the program
// emits exactly these names with these units.
type declared struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// bench is one invocation: the seeded inputs, the measuring window and
// the trace flag, plus the counts the final JSON line reports.
type bench struct {
	seed      uint64
	window    time.Duration
	traced    bool
	attempted int
	failed    int
	failures  []string
	log       io.Writer
}

// check records one correctness check; a false ok counts as a failed
// operation and makes the command exit non-zero.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// op records one measured operation (a figure call, a request, a run)
// and whether it failed or was refused.
func (b *bench) op(err error, what string) {
	b.attempted++
	if err != nil {
		b.failed++
		b.failures = append(b.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// phase is the outcome of one workload window: end-to-end values and
// the layer values its counters and spans give.
type phase struct {
	e2e   map[string]float64
	layer map[string]float64
}

// workload is one named traffic mix: prepare (optional, untimed) loads
// what the output checks compare against, setup builds a fixture
// (repeated setups times; setup_s is the median), run measures one
// window over it (with spans when tr is non-nil) and probe times the
// inner layers the window reaches only indirectly.
type workload struct {
	why     string
	setups  int
	prepare func(b *bench) error
	setup   func(b *bench) (fixture, error)
	run     func(ctx context.Context, b *bench, fx fixture, tr *tracer) (phase, error)
	probe   func(ctx context.Context, b *bench, fx fixture, out map[string]float64) error
}

// fixture is a workload's set-up state; close releases it.
type fixture interface{ close() }

var workloads = map[string]workload{
	"paper-figures":     paperFigures,
	"serve-interactive": serveInteractive,
	"async-runs":        asyncRuns,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name (paper-figures, serve-interactive, async-runs)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "measuring window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	refOut := flag.String("write-reference", "", "recompute fig11–fig13 at paper horizon into this file and exit")
	flag.Parse()

	if *refOut != "" {
		if err := writeReference(context.Background(), *refOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	b := &bench{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1, log: os.Stdout}

	header(b, *name, w.why, procs)
	metrics, err := execute(context.Background(), b, w, *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := decl.EndToEnd
	if b.traced {
		want = decl.PerLayer
	}
	out := map[string]any{}
	for _, m := range want {
		v, ok := metrics[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not produce declared metric %s\n", *name, m.Name)
			return 1
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
		fmt.Printf("metric %-36s %14.6g %s\n", m.Name, v, m.Unit)
	}
	fmt.Printf("fail_ratio %.6f (%d failed of %d attempted)\n", ratio(b.failed, b.attempted), b.failed, b.attempted)
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": max(b.attempted, 1),
		"failed":    b.failed,
		"metrics":   out,
	})
	fmt.Println(string(line))
	if b.failed > 0 {
		return 1
	}
	return 0
}

func loadDeclared(path string) (*declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// header records what a later reader needs to reproduce the numbers.
func header(b *bench, name, why string, procs int) {
	fmt.Fprintf(b.log, "perfbench workload=%s seed=%d seconds=%.0f trace=%v\n", name, b.seed, b.window.Seconds(), b.traced)
	fmt.Fprintf(b.log, "why: %s\n", why)
	fmt.Fprintf(b.log, "env go=%s GOMAXPROCS=%d NumCPU=%d commit=%s source_sha256=%s\n",
		runtime.Version(), procs, runtime.NumCPU(), orUnknown("PERFBENCH_COMMIT"), orUnknown("PERFBENCH_SOURCE"))
}

// orUnknown reads an environment variable the wrapper script sets.
func orUnknown(key string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return "unknown"
}

// execute sets the workload up w.setups times, measures it, and in
// traced mode measures it again with spans on and runs the layer probes.
func execute(ctx context.Context, b *bench, w workload, name string) (map[string]float64, error) {
	if w.prepare != nil {
		if err := w.prepare(b); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}
	fx, setupS, err := setupMedian(b, w)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	plain, err := w.run(ctx, b, fx, nil)
	fx.close()
	if err != nil {
		return nil, err
	}
	plain.e2e["setup_s"] = setupS
	plain.e2e["peak_rss_mb"] = peakRSSMB()
	if !b.traced {
		return plain.e2e, nil
	}

	fx, err = w.setup(b)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer fx.close()
	tr := newTracer()
	traced, err := w.run(ctx, b, fx, tr)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, n := range layerNames {
		out[n] = 0
	}
	for k, v := range traced.layer {
		out[k] = v
	}
	if err := w.probe(ctx, b, fx, out); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	for k, v := range plain.e2e {
		if k == "setup_s" || k == "peak_rss_mb" {
			continue
		}
		out["trace.overhead."+k] = traced.e2e[k] - v
	}
	out["trace.uncovered_share"] = max(0, tr.uncoveredShare())
	out["trace.spans"] = float64(tr.len())
	tr.summary(b.log)
	path, err := tr.dump(filepath.Join(outDir(), "trace"), fmt.Sprintf("%s-seed%d.json", name, b.seed))
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.log, "spans written to %s\n", path)
	return out, nil
}

// setupMedian sets the workload up w.setups times and keeps the last
// fixture, reporting the median set-up time in seconds. Each set-up
// starts from a collected heap.
func setupMedian(b *bench, w workload) (fixture, float64, error) {
	var times []float64
	var fx fixture
	for i := 0; i < w.setups; i++ {
		if fx != nil {
			fx.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		fx, err = w.setup(b)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return fx, median(times), nil
}

// outDir is where the benchmark writes: the build directory the wrapper
// script names, inside the checkout.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
