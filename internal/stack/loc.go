package stack

import (
	_ "embed"

	"nvmetro/internal/loc"
)

// Source of the golden-image/clone wiring, embedded for Table I (the
// snapshot feature's footprint above the cow layer).

//go:embed snapshots.go
var snapshotsGoSrc string

// SnapshotWiringLines reports the non-empty source line count of the
// solution-level snapshot/clone wiring for Table I.
func SnapshotWiringLines() int { return loc.Lines(snapshotsGoSrc) }
