package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Parent is 0 for a root span (one user-visible
// operation); spans of one operation share the root's ID as Op.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Tag    string  `json:"tag,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	selfUS float64
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, which is how untraced windows run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(name, tag string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	op := id
	if parent > 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Tag: tag,
		Start: us(start.Sub(t.t0)), End: us(end.Sub(t.t0)),
	})
	return id
}

// reserve allocates a span ID for a parent whose end is not known yet;
// finish fills it in. Children may be added in between.
func (t *tracer) reserve(name, tag string, parent int, start time.Time) int {
	return t.add(name, tag, parent, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = us(end.Sub(t.t0))
	t.mu.Unlock()
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// computeSelf sets each span's self time: its duration minus the part
// of its interval that its children cover.
func (t *tracer) computeSelf() {
	kids := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.selfUS = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, cur float64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// uncoveredShare is the part of the root spans' time (the user-visible
// operations) that no child span covers.
func (t *tracer) uncoveredShare() float64 {
	t.computeSelf()
	var self, total float64
	for _, s := range t.spans {
		if s.Parent == 0 {
			self += s.selfUS
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return self / total
}

// summary prints per-name span counts with total and self time.
func (t *tracer) summary(w io.Writer) {
	t.computeSelf()
	type agg struct {
		n           int
		total, self float64
	}
	by := map[string]*agg{}
	var keys []string
	for _, s := range t.spans {
		k := s.Name
		if s.Tag != "" {
			k += "[" + s.Tag + "]"
		}
		a := by[k]
		if a == nil {
			a = &agg{}
			by[k] = a
			keys = append(keys, k)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.selfUS
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-40s %8s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, k := range keys {
		a := by[k]
		fmt.Fprintf(w, "%-40s %8d %14.3f %14.3f\n", k, a.n, a.total/1000, a.self/1000)
	}
}

// dump writes every span as JSON under dir.
func (t *tracer) dump(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
