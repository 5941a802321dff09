package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"darksim/internal/experiments"
	"darksim/internal/jobs"
	"darksim/internal/service"
	"darksim/internal/tech"
	"darksim/internal/thermal"
)

// spanHeader carries the client's root span ID to the server-side span.
const spanHeader = "X-Perfbench-Span"

// daemon is darksimd in-process: a service.Server with the daemon's
// default configuration behind a loopback HTTP server, and a client
// limited to two connections.
type daemon struct {
	svc    *service.Server
	hs     *httptest.Server
	client *http.Client
	tr     atomic.Pointer[tracer]

	mu     sync.Mutex
	hitsUS []float64 // server-side handler time of cache hits (traced)
}

// newDaemon starts a server; store may be nil for in-memory runs.
func newDaemon(store jobs.Store) *daemon {
	d := &daemon{svc: service.New(service.Config{RunStore: store}, nil)}
	d.hs = httptest.NewServer(http.HandlerFunc(d.serve))
	// The timeout bounds a request and the whole of an event stream; no
	// operation of the workloads comes near it.
	d.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   2 * time.Minute,
	}
	return d
}

// serve wraps the service handler with the server-side span, a child
// of the client operation named in the span header.
func (d *daemon) serve(w http.ResponseWriter, r *http.Request) {
	tr := d.tr.Load()
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	if tr == nil || parent == 0 {
		d.svc.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	d.svc.ServeHTTP(w, r)
	t1 := time.Now()
	cache := w.Header().Get("X-Darksim-Cache")
	tr.add("service", route(r)+" "+cache, parent, t0, t1)
	if cache == "hit" {
		d.mu.Lock()
		d.hitsUS = append(d.hitsUS, us(t1.Sub(t0)))
		d.mu.Unlock()
	}
}

func (d *daemon) close() {
	d.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = d.svc.Close(ctx)
	d.client.CloseIdleConnections()
}

// do sends one request and reads the whole body.
func (d *daemon) do(method, path string, body []byte, span int) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytesReader(body)
	}
	req, err := http.NewRequest(method, d.hs.URL+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if span > 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// snapshot is /metrics plus the in-process counters it is taken with.
type snapshot struct {
	svc    service.Snapshot
	inf    thermal.CacheStats
	solves solverTotals
}

func (d *daemon) snapshot(plats []platKey) (snapshot, error) {
	code, _, body, err := d.do("GET", "/metrics", nil, 0)
	if err != nil {
		return snapshot{}, err
	}
	if code != http.StatusOK {
		return snapshot{}, fmt.Errorf("/metrics: status %d", code)
	}
	var s snapshot
	if err := json.Unmarshal(body, &s.svc); err != nil {
		return snapshot{}, err
	}
	s.inf = thermal.InfluenceCacheStats()
	s.solves = solverStatsOf(plats)
	return s, nil
}

// serviceLayer turns two snapshots into the service and cache counters.
func serviceLayer(a, b snapshot, hitsUS []float64, out map[string]float64) {
	hits := b.svc.Cache.Hits - a.svc.Cache.Hits
	misses := b.svc.Cache.Misses - a.svc.Cache.Misses
	out["service.hit_ratio"] = hitRatio(uint64(hits), uint64(misses))
	out["service.hit_p50_us"] = median(hitsUS)
	if n := b.svc.Compute.Count - a.svc.Compute.Count; n > 0 {
		out["service.compute_ms_mean"] = (b.svc.Compute.TotalMS - a.svc.Compute.TotalMS) / float64(n)
	}
	out["service.coalesced"] = float64(b.svc.Compute.CoalescedWaiters - a.svc.Compute.CoalescedWaiters)
	out["service.evictions"] = float64(b.svc.Cache.Evictions - a.svc.Cache.Evictions)
	out["jobs.rejected"] = float64(b.svc.Runs.Rejected - a.svc.Runs.Rejected)
	out["thermal.influence.hit_ratio"] = hitRatio(b.inf.Hits-a.inf.Hits, b.inf.Misses-a.inf.Misses)
	solverLayer(b.solves.minus(a.solves), 1, out)
}

// platKey names one shared platform of the experiments cache.
type platKey struct {
	node  tech.Node
	cores int
}

// solverTotals sums SolverStats over a set of shared platforms.
type solverTotals struct {
	solves, sparseSolves, iters uint64
}

func (a solverTotals) minus(b solverTotals) solverTotals {
	return solverTotals{a.solves - b.solves, a.sparseSolves - b.sparseSolves, a.iters - b.iters}
}

func solverStatsOf(plats []platKey) solverTotals {
	var t solverTotals
	for _, k := range plats {
		p, err := experiments.PlatformFor(k.node, k.cores)
		if err != nil {
			continue
		}
		st := p.Thermal.SolverStats()
		t.solves += st.Solves
		t.iters += st.CGIterations
		if st.Path == "sparse" {
			t.sparseSolves += st.Solves
		}
	}
	return t
}

// solverLayer reports solver work per operation (ops = 1 for totals).
func solverLayer(t solverTotals, ops float64, out map[string]float64) {
	out["thermal.solves"] = float64(t.solves) / ops
	out["linalg.cg.iterations"] = float64(t.iters) / ops
	if t.sparseSolves > 0 {
		out["linalg.cg.iters_per_solve"] = float64(t.iters) / float64(t.sparseSolves)
	}
}

// warm builds the shared platforms a daemon serves from, as a running
// daemon has them.
func warm(plats []platKey) error {
	for _, k := range plats {
		if _, err := experiments.PlatformFor(k.node, k.cores); err != nil {
			return err
		}
	}
	return nil
}

// route names the endpoint of a request for span tags.
func route(r *http.Request) string {
	path := r.URL.Path
	switch {
	case strings.HasPrefix(path, "/v1/experiments/"):
		path = "/v1/experiments/{name}"
	case strings.HasSuffix(path, "/events"):
		path = "/v1/runs/{id}/events"
	}
	return r.Method + " " + path
}
