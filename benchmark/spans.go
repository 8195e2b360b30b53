package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program under test carries no spans of its own yet). Spans of
// one client-visible op share Op; Parent is the index of the enclosing span
// or -1. Times are nanoseconds since the recorder started.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory and writes them out once, at exit. A
// nil recorder records nothing, which is how the untraced run shares the
// measurement loops.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

func (r *spanRecorder) begin(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, StartNS: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].EndNS = int64(time.Since(r.t0))
}

// selfTimes reports, per span name, the total time not covered by child
// spans, and the span count.
func (r *spanRecorder) selfTimes() (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	children := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for i, s := range r.spans {
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - children[i])
		count[s.Name]++
	}
	return self, count
}

func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
