package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// span is one timed call into the program, recorded by the benchmark
// around a public entry point. Times are offsets from the tracer's epoch.
type span struct {
	name       string
	parent     int // index into tracer.spans, -1 for a root
	start, end time.Duration
}

// tracer keeps spans in memory and writes their aggregate when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil check
// per call site.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of unfinished spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// aggregate is the spans sharing one path from the root.
type aggregate struct {
	path         string
	count        int
	total, child time.Duration
}

// tree folds spans into per-path aggregates in first-seen order. A span's
// self time is its duration minus the time its child spans cover.
func (t *tracer) tree() []*aggregate {
	paths := make([]string, len(t.spans))
	byPath := map[string]*aggregate{}
	var order []*aggregate
	for i, s := range t.spans {
		p := s.name
		if s.parent >= 0 {
			p = paths[s.parent] + "/" + s.name
		}
		paths[i] = p
		a := byPath[p]
		if a == nil {
			a = &aggregate{path: p}
			byPath[p] = a
			order = append(order, a)
		}
		d := s.end - s.start
		a.count++
		a.total += d
		if s.parent >= 0 {
			byPath[paths[s.parent]].child += d
		}
	}
	return order
}

// write prints the span tree: one line per path with its call count,
// total time, and self time.
func (t *tracer) write(w io.Writer) {
	fmt.Fprintf(w, "%-44s %9s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, a := range t.tree() {
		depth := strings.Count(a.path, "/")
		name := a.path[strings.LastIndex(a.path, "/")+1:]
		fmt.Fprintf(w, "%-44s %9d %12.6f %12.6f\n",
			strings.Repeat("  ", depth)+name, a.count, a.total.Seconds(), (a.total - a.child).Seconds())
	}
}
