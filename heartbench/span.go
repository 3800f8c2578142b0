package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one traced request share
// the root span they descend from.
type span struct {
	name       string
	parent     int
	start, end time.Duration // offsets from the tracer's base time
}

// tracer records spans in memory for one goroutine. A nil tracer records
// nothing, so untraced code paths pay only a nil check.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.base)})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.base)
}

// stage runs fn inside a span named name under parent.
func (t *tracer) stage(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// selfTimes returns every span's self time in microseconds, grouped by
// span name in recording order. A span's self time is its duration minus
// the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string][]float64 {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string][]float64)
	for i, s := range t.spans {
		self := s.end - s.start - covered(t.spans, children[i])
		out[s.name] = append(out[s.name], float64(self)/float64(time.Microsecond))
	}
	return out
}

// covered is the length of the union of the given spans' intervals.
func covered(spans []span, ids []int) time.Duration {
	iv := make([]span, len(ids))
	for k, id := range ids {
		iv[k] = spans[id]
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].start < iv[b].start })
	var total, reach time.Duration
	for _, s := range iv {
		start := max(s.start, reach)
		if s.end > start {
			total += s.end - start
			reach = s.end
		}
	}
	return total
}
