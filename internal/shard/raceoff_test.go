//go:build !race

package shard_test

// raceDetector reports whether the tests run under the race detector, whose
// instrumentation allocates: allocation budgets are not checked there.
const raceDetector = false
