// Package bufpool recycles payload buffers. A Pool belongs to one owner (a
// UIF attachment, an NVMe-oF initiator) that knows when a buffer's last
// reader is done; there is no reference counting and no locking — the
// simulator runs one process at a time.
package bufpool

import "math/bits"

// Buffers are pooled in power-of-two classes from 512 bytes (one sector) to
// 1 MiB (the largest transfer an NVMe command describes here is well below
// it); anything larger is a plain allocation.
const (
	minShift = 9
	maxShift = 20
)

// Pool is a set of per-class free lists. The zero value is empty and ready.
type Pool struct {
	free [maxShift - minShift + 1][][]byte
}

// class returns the free-list index whose buffers hold n bytes.
func class(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minShift
}

// Get returns a buffer of n bytes. Its contents are whatever the previous
// user left: callers fill it before they read it.
func (p *Pool) Get(n int) []byte {
	if n > 1<<maxShift {
		return make([]byte, n)
	}
	c := class(n)
	if l := p.free[c]; len(l) > 0 {
		b := l[len(l)-1]
		p.free[c] = l[:len(l)-1]
		return b[:n]
	}
	return make([]byte, n, 1<<(c+minShift))
}

// Put takes back a buffer Get handed out, once nothing reads or writes it
// any more. Buffers of other origin (no class has their capacity) are left
// to the garbage collector.
func (p *Pool) Put(b []byte) {
	if c := cap(b); c >= 1<<minShift && c <= 1<<maxShift && c&(c-1) == 0 {
		k := class(c)
		p.free[k] = append(p.free[k], b[:0])
	}
}
