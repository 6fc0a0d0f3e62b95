package metrics

import "fmt"

// Counter is a monotonically increasing event counter with a snapshot
// helper for windowed rate measurements.
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Summary aggregates throughput and latency results for one workload run;
// it is what every experiment row ultimately reports.
type Summary struct {
	Ops       uint64  // completed operations in the window
	Bytes     uint64  // payload bytes moved in the window
	WindowSec float64 // measurement window in seconds
	Lat       *Histogram
	CPUCores  float64 // average busy cores during the window
}

// iops returns operations per second.
func (s Summary) iops() float64 {
	if s.WindowSec <= 0 {
		return 0
	}
	return float64(s.Ops) / s.WindowSec
}

// KIOPS returns thousands of operations per second (the paper's unit).
func (s Summary) KIOPS() float64 { return s.iops() / 1e3 }

// MBps returns payload megabytes per second.
func (s Summary) MBps() float64 {
	if s.WindowSec <= 0 {
		return 0
	}
	return float64(s.Bytes) / s.WindowSec / 1e6
}

func (s Summary) String() string {
	out := fmt.Sprintf("%.1f kIOPS %.1f MB/s cpu=%.2f", s.KIOPS(), s.MBps(), s.CPUCores)
	if s.Lat != nil && s.Lat.Count() > 0 {
		out += fmt.Sprintf(" p50=%.1fus p99=%.1fus",
			float64(s.Lat.Median())/1e3, float64(s.Lat.P99())/1e3)
	}
	return out
}
