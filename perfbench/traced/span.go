package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level call
	Run    string `json:"run"`    // the sequence or job the call belongs to
	Name   string `json:"name"`   // layer call, e.g. "ilr.rewrite"
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	// N is the call's unit of work (instructions, bytes, injections, ...)
	// and M a second count where a metric needs one (memory events).
	N uint64 `json:"n,omitempty"`
	M uint64 `json:"m,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory. Calls nest on a stack, so a span's
// parent is the call that was open when it began. A disabled tracer makes
// the same calls and records nothing, which is how the untraced wall time
// is measured.
type tracer struct {
	on    bool
	t0    time.Time
	run   string
	spans []span
	stack []int // indexes into spans
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its index (-1 when disabled).
func (t *tracer) begin(name, tag string) int {
	if !t.on {
		return -1
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run,
		Name: name, Tag: tag, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span, attaching its work counts.
func (t *tracer) end(i int, n, m uint64) {
	if i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.spans[i].N, t.spans[i].M = n, m
	t.stack = t.stack[:len(t.stack)-1]
}

// do traces one call with no work count.
func (t *tracer) do(name, tag string, fn func()) {
	i := t.begin(name, tag)
	fn()
	t.end(i, 0, 0)
}

// selfTimes returns each span's self time: its duration minus the part its
// direct children cover. Children nest inside their parent's interval, so
// that part is the sum of their durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		byID[s.ID] = i
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			self[p] -= s.dur()
		}
	}
	return self
}

// save writes the recorded spans as JSON.
func (t *tracer) save(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
