// Package fixture is the root of TestDeadSurfaceFixture's module.
package fixture

import "fixture/internal/lib"

var _ lib.Labeler = lib.Impl{}

func Run() int {
	lib.Tally()
	lib.Take()
	return lib.Used(lib.Config{Size: 1}) + lib.Walk(lib.Impl{})
}
