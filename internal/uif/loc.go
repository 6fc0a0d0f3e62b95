package uif

import (
	_ "embed"

	"nvmetro/internal/loc"
)

//go:embed framework.go
var frameworkSrc string

// FrameworkLines reports the UIF framework's size for Table I (the paper's
// C++ framework spans ~1100 lines; the routing, parsing, polling and
// io_uring plumbing live here).
func FrameworkLines() int { return loc.Lines(frameworkSrc) }
