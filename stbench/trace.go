package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one feedback round or one estimate share a trace id;
// parent links nest calls the benchmark makes from inside another layer's
// callback (the count function a drill asks for sub-region counts).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory; they are written out once the replay
// ends, so writing costs nothing inside a timed call. One goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // indices of open spans
	trace int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span named layer.op as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: t.trace, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id-1)
	return id - 1
}

func (t *tracer) end(i int) {
	t.spans[i].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// timed runs f inside a span.
func (t *tracer) timed(name string, f func()) {
	i := t.begin(name)
	f()
	t.end(i)
}

// durations of every span with this name.
func (t *tracer) durations(name string) []time.Duration { return t.durationsAfter(name, -1) }

// durationsAfter returns the durations of the spans with this name in
// feedback rounds after the first n: the rounds the end-to-end run times.
func (t *tracer) durationsAfter(name string, n int) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.Trace > n {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// layerTotals returns, per layer (the part of a span name before the dot),
// the number of calls and the self time: each span's duration minus the
// part its direct children cover.
func (t *tracer) layerTotals() (calls map[string]int, self map[string]time.Duration) {
	calls, self = map[string]int{}, map[string]time.Duration{}
	childTime := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.dur()
		}
	}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		calls[layer]++
		self[layer] += s.dur() - childTime[s.ID]
	}
	return calls, self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
