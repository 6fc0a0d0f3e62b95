//go:build !amd64

package xts

// Without the amd64 kernel every sector takes the Go kernel.
const hasAESNI = false

type niKeys struct{}

func (*niKeys) expand([]byte) {}

func (*niKeys) sectors(dst, src []byte, first uint64, sectorSize int, enc bool) {
	panic("xts: no AES-NI kernel on this architecture")
}
