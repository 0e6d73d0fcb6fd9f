package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// A span is one timed call across a layer boundary, recorded by the
// benchmark around a call into the program's public API. Spans live in
// memory for the whole run and are written out once it ends.
type span struct {
	name   string
	start  int64 // ns since the tracer's epoch
	end    int64
	parent int32 // index of the enclosing span, -1 for a root
	id     int32 // trial or request the span belongs to
}

// tracer records spans. A nil tracer records nothing, so one code path
// serves the untraced and the traced runs. It is safe for concurrent use
// (the daemon's handlers record from the server's goroutines).
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, id int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: now, parent: parent, id: id})
	return int32(len(t.spans) - 1)
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of its interval that its child spans cover (children
// that overlap each other are counted once, and a child reaching outside
// its parent is clipped to it).
func selfTimes(spans []span) map[string]int64 {
	kids := map[int32][][2]int64{}
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		out[s.name] += (s.end - s.start) - covered(s.start, s.end, kids[int32(i)])
	}
	return out
}

// covered returns the length of the union of the intervals iv, clipped to
// [lo, hi]. It sorts iv in place.
func covered(lo, hi int64, iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	cur := lo // everything before cur is already counted
	for _, v := range iv {
		a, b := max(v[0], cur), min(v[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// durations returns the durations, in ns, of the spans with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// writeSpans writes the spans as CSV (name, start_ns, end_ns, parent, id).
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,id")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.id)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
