package metrics

import (
	"fmt"
	"strings"
)

// CounterSet is an insertion-ordered collection of named counters. It
// aggregates error/retry/timeout counts from many layers into one record
// whose String() rendering is stable, making two runs directly comparable
// in fault-trace determinism tests.
type CounterSet struct {
	names []string
	vals  map[string]uint64
}

// Add accumulates v into the named counter, registering the name on first
// use.
func (s *CounterSet) Add(name string, v uint64) {
	if s.vals == nil {
		s.vals = make(map[string]uint64)
	}
	if _, ok := s.vals[name]; !ok {
		s.names = append(s.names, name)
	}
	s.vals[name] += v
}

// Get returns the named counter's value (0 if absent).
func (s *CounterSet) Get(name string) uint64 { return s.vals[name] }

// Names returns the counter names in insertion order.
func (s *CounterSet) Names() []string { return append([]string(nil), s.names...) }

// Merge accumulates every counter of other into s, preserving other's
// insertion order for names new to s — aggregating per-run records into
// a campaign total keeps the rendering stable.
func (s *CounterSet) Merge(other *CounterSet) {
	for _, n := range other.names {
		s.Add(n, other.vals[n])
	}
}

// String renders "name=value" pairs in insertion order — a deterministic
// fault-trace fingerprint.
func (s *CounterSet) String() string {
	parts := make([]string, 0, len(s.names))
	for _, n := range s.names {
		parts = append(parts, fmt.Sprintf("%s=%d", n, s.vals[n]))
	}
	return strings.Join(parts, " ")
}
