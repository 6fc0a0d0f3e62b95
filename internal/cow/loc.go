package cow

import (
	_ "embed"

	"nvmetro/internal/loc"
)

// Source of the snapshot/clone layer, embedded for Table I (implementation
// size as evidence of how much machinery the layered store needs below the
// router).

//go:embed cow.go
var cowGoSrc string

// Lines reports non-empty source line counts for Table I rows.
func Lines() map[string]int {
	return map[string]int{"cow-store": loc.Lines(cowGoSrc)}
}
