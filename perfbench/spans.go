package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one sweep or one job share Trace.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Trace  int     `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []*span
	traces int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.origin)) / float64(time.Microsecond) }

func (t *tracer) open(parent *span, name string) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Name: name, Start: t.now()}
	if parent != nil {
		s.Parent, s.Trace = parent.ID, parent.Trace
	} else {
		t.traces++
		s.Trace = t.traces
	}
	t.spans = append(t.spans, s)
	return s
}

// root opens the first span of a new sweep or job.
func (t *tracer) root(name string) *span { return t.open(nil, name) }

// end closes a span.
func (t *tracer) end(s *span) {
	now := t.now()
	t.mu.Lock()
	s.End = now
	t.mu.Unlock()
}

// around runs f inside a child span of parent.
func (t *tracer) around(parent *span, name string, f func()) {
	s := t.open(parent, name)
	f()
	t.end(s)
}

// snapshot returns a copy of every closed span.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End > 0 {
			out = append(out, *s)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of its interval its children cover.
func selfTimes(spans []span) map[string]float64 {
	kids := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start - covered(s, kids[s.ID])) / 1e6
	}
	return out
}

// covered is the length of the union of ivs clipped to s.
func covered(s span, ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, iv := range ivs {
		lo, hi := max(iv[0], s.Start), min(iv[1], s.End)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = lo, hi
		} else if hi > curHi {
			curHi = hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}
