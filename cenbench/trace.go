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

// span is one timed call into a layer's public API, recorded from the
// benchmark's own files. Spans of one op share Op; Parent is the id of
// the span that caused this one (0 for an op's root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs execute the same code.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its id (0 when untraced).
func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := ms(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := ms(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the closed durations (ms) of every span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// byOp pairs, per op, the first span named a with the first named b,
// for ops that have both.
func (t *tracer) byOp(a, b string) [][2]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	first := map[int]span{}
	for _, s := range t.spans {
		if s.Name == a {
			if _, ok := first[s.Op]; !ok {
				first[s.Op] = s
			}
		}
	}
	var out [][2]span
	seen := map[int]bool{}
	for _, s := range t.spans {
		if f, ok := first[s.Op]; ok && s.Name == b && !seen[s.Op] {
			seen[s.Op] = true
			out = append(out, [2]span{f, s})
		}
	}
	return out
}

// layerRow aggregates every span of one name.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// layers folds the spans into per-name totals. A span's self time is its
// duration minus the part of its interval that its child spans cover.
func (t *tracer) layers() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.Count++
		r.TotalMS += d
		r.SelfMS += d - covered(s, children[s.ID])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, lo, hi := 0.0, 0.0, -1.0
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = s, e
			continue
		}
		hi = max(hi, e)
	}
	if hi > lo {
		total += hi - lo
	}
	return total
}

// writeLayerTable prints the per-name self-time table.
func writeLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-36s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %8d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
}

// dump writes the spans and the layer table to path as JSON.
func (t *tracer) dump(path string) error {
	rows := t.layers()
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(struct {
		Layers []layerRow `json:"layers"`
		Spans  []span     `json:"spans"`
	}{rows, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
