package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by this
// package around its calls into the repository. Times are nanoseconds since
// the tracer started; Parent indexes the enclosing span (-1 for a root) and
// Request is the measured request the span belongs to (-1 for set-up).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced requests run the same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Request: req})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds were observed elsewhere, such as the
// daemon's event-log timestamps (wall clock, same host).
func (t *tracer) record(name string, start, end time.Time, parent, req int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Request: req})
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanSet indexes a finished trace for the per-layer metrics.
type spanSet struct {
	spans    []span
	children [][]int
}

func (t *tracer) finished() spanSet {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return spanSet{spans: spans, children: kids}
}

func (s spanSet) dur(i int) time.Duration { return time.Duration(s.spans[i].End - s.spans[i].Start) }

// total sums the durations of every span with the given name.
func (s spanSet) total(name string) time.Duration {
	var d time.Duration
	for i, sp := range s.spans {
		if sp.Name == name {
			d += s.dur(i)
		}
	}
	return d
}

// self is a span's duration minus the part of it its children cover.
// Children may overlap (experiments run concurrently in the worker pool), so
// the covered part is the union of their intervals clipped to the parent.
func (s spanSet) self(i int) time.Duration {
	p := s.spans[i]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range s.children[i] {
		a, b := max(s.spans[c].Start, p.Start), min(s.spans[c].End, p.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	covered, reach := int64(0), p.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return time.Duration(p.End-p.Start-covered) * time.Nanosecond
}

// selfTotal sums the self time of every span with the given name.
func (s spanSet) selfTotal(name string) time.Duration {
	var d time.Duration
	for i, sp := range s.spans {
		if sp.Name == name {
			d += s.self(i)
		}
	}
	return d
}

// pct is part as a percentage of whole, 0 when whole is empty.
func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
