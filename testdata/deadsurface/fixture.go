// Package fixture is the root of TestDeadSurfaceFixture's module.
package fixture

import "fixture/internal/lib"

var _ lib.Labeler = lib.Impl{}

// Run is reached by cmd/tool's main.
func Run() int {
	lib.Tally()
	lib.Take()
	return lib.Used(lib.Config{Size: 1}) + lib.Walk(lib.Impl{})
}

// Counts names an internal type; no main reaches it, but aliases are
// exempt from (g).
type Counts = lib.Counts

// Probe is (g): only a root test calls it.
func Probe() int { return 6 }
