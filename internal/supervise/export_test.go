package supervise

import "nvmetro/internal/sim"

// ConsecutiveFailures returns the current backoff ladder position.
func (s *Supervisor) ConsecutiveFailures() int { return s.consecFails }

// DegradedTime is degradedTime for the external tests.
func (s *Supervisor) DegradedTime() sim.Duration { return s.degradedTime() }
