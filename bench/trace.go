package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Spans are recorded only from
// this directory's files, around the calls into each layer; they are kept in
// memory and written out once, when the child ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the child's start
	EndNS    int64  `json:"end_ns"`
	Calls    int64  `json:"calls,omitempty"` // probe spans: calls timed

	tr *tracer
}

// tracer records spans with a stack-shaped parent relation. A nil tracer is
// the untraced run: begin returns a nil span and end on it is a no-op, so
// the instrumented code reads the same in both runs.
type tracer struct {
	workload string
	t0       time.Time
	spans    []*span
	open     []*span
}

func newTracer(workload string, t0 time.Time) *tracer {
	return &tracer{workload: workload, t0: t0}
}

func (t *tracer) begin(name string) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: len(t.spans) + 1, Name: name, Workload: t.workload,
		StartNS: time.Since(t.t0).Nanoseconds(), tr: t}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1].ID
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s)
	return s
}

// end closes the span, which must be the innermost open one.
func (s *span) end() {
	if s == nil {
		return
	}
	s.EndNS = time.Since(s.tr.t0).Nanoseconds()
	s.tr.open = s.tr.open[:len(s.tr.open)-1]
}

// leaf records an already-measured interval as a child of parent.
func (t *tracer) leaf(parent *span, name string, start, end time.Time) {
	t.spans = append(t.spans, &span{ID: len(t.spans) + 1, Parent: parent.ID, Name: name, Workload: t.workload,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
}

// total returns the summed length, in seconds, of every span with the name.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	return sum
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// quantile returns the q-quantile of vs by linear interpolation.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
