package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one traced interval. Times are nanoseconds since the
// tracer's epoch. Parent 0 means a root. Req groups the spans of one
// request (a seecd job, a core-mix cell); Key is the result key a
// gateway span touched, used to attach it to its job afterwards.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// layer is the span's layer: its name up to the first dot.
func (s Span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer, or
// one switched off, records nothing; every method is safe for
// concurrent use.
type Tracer struct {
	epoch time.Time
	off   atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a recording tracer.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// on reports whether spans are being recorded.
func (t *Tracer) on() bool { return t != nil && !t.off.Load() }

// SetOn switches recording on or off.
func (t *Tracer) SetOn(on bool) {
	if t != nil {
		t.off.Store(!on)
	}
}

// ID reserves a span id, so a parent can be named before it ends.
// It returns 0 when not recording.
func (t *Tracer) ID() int64 {
	if !t.on() {
		return 0
	}
	return t.ids.Add(1)
}

// At converts a wall-clock instant to tracer time.
func (t *Tracer) At(ts time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(ts.Sub(t.epoch))
}

// Add records s (assigning an id when it has none) and returns its id.
func (t *Tracer) Add(s Span) int64 {
	if !t.on() {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// Span records the interval [start, end) under name.
func (t *Tracer) Span(name string, parent, req int64, start, end time.Time) int64 {
	if !t.on() {
		return 0
	}
	return t.Add(Span{Parent: parent, Name: name, Req: req, Start: t.At(start), End: t.At(end)})
}

// passSpanName names a pass span: passes run with recording off are
// kept as one opaque span, so their time is not mistaken for the
// harness's own.
func passSpanName(traced bool, name string) string {
	if traced {
		return name
	}
	return "trace.untraced_pass"
}

// Spans returns a copy of everything recorded.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// unionLen is the total length covered by the intervals, counting
// overlapping stretches once.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	total := int64(0)
	cur := s[0]
	for _, x := range s[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// selfTime is a span's duration minus the part of its interval that
// its children cover. Children run concurrently (two workers), so
// their intervals overlap: the covered part is their union, clipped
// to the parent, never their summed durations.
func selfTime(parent Span, children []Span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	return parent.dur() - unionLen(iv)
}

// attribute splits wall time among layers. At every instant the
// innermost active spans (those with no active child) share the
// instant equally, so the result adds up to the time covered by the
// spans — the root's duration when every span nests inside its
// parent — even with concurrent siblings.
func attribute(spans []Span) map[string]float64 {
	type edge struct {
		t     int64
		start bool
		i     int
	}
	idx := make(map[int64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		if s.End > s.Start {
			edges = append(edges, edge{s.Start, true, i}, edge{s.End, false, i})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].t != edges[b].t {
			return edges[a].t < edges[b].t
		}
		return !edges[a].start && edges[b].start // close before open at a tie
	})
	active := map[int]bool{}
	activeKids := make([]int, len(spans))
	out := map[string]float64{}
	var last int64
	for _, e := range edges {
		if dt := e.t - last; dt > 0 && len(active) > 0 {
			var inner []int
			for i := range active {
				if activeKids[i] == 0 {
					inner = append(inner, i)
				}
			}
			for _, i := range inner {
				out[spans[i].layer()] += float64(dt) / float64(len(inner)) / 1e9
			}
		}
		last = e.t
		p, hasParent := idx[spans[e.i].Parent]
		if e.start {
			active[e.i] = true
			if hasParent {
				activeKids[p]++
			}
		} else {
			delete(active, e.i)
			if hasParent {
				activeKids[p]--
			}
		}
	}
	return out
}

// sumTolerance is how far the layer attribution may drift from the
// root span's own duration before the trace is declared inconsistent:
// a span escaping its parent or a double-counted interval shows up as
// a mismatch larger than timer granularity.
const sumTolerance = 0.01

// checkRootSum verifies that the per-layer self times of every span
// under root add up to the root's duration within sumTolerance.
func checkRootSum(spans []Span, root Span) (map[string]float64, error) {
	kids := map[int64][]Span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	var tree []Span
	var walk func(s Span)
	walk = func(s Span) {
		tree = append(tree, s)
		for _, c := range kids[s.ID] {
			walk(c)
		}
	}
	walk(root)
	byLayer := attribute(tree)
	got := sum(mapValues(byLayer))
	want := float64(root.dur()) / 1e9
	if want <= 0 || got > want*(1+sumTolerance) || got < want*(1-sumTolerance) {
		return byLayer, fmt.Errorf("span %s: layer self times sum to %.6fs, root lasts %.6fs (tolerance %.0f%%)",
			root.Name, got, want, 100*sumTolerance)
	}
	return byLayer, nil
}

func mapValues(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// finishTrace writes the span file and checks every root's layer sum.
func finishTrace(t *Tracer, workload string, seed int64, out *outcome) error {
	spans := t.Spans()
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	roots := 0
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		roots++
		byLayer, err := checkRootSum(spans, s)
		if err != nil {
			out.fail("trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: trace %s: %.3fs by layer %s\n", s.Name, float64(s.dur())/1e9, fmtLayers(byLayer))
	}
	out.attempted += int64(roots)
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(spans), path)
	return nil
}

func fmtLayers(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.3fs", k, m[k])
	}
	return strings.Join(parts, " ")
}
