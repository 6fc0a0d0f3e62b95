package cache

import "nvmetro/internal/bufpool"

// listID names the list a slab node is on.
type listID uint8

const (
	t1   listID = iota // resident, seen once
	t2                 // resident, seen at least twice
	b1                 // ghost of a T1 eviction
	b2                 // ghost of a T2 eviction
	free               // on the slab's free list
)

// nilNode ends a chain and the free list.
const nilNode int32 = -1

// node is one slab slot: a tracked key, linked by slab index into the list
// home names. A resident node holds its block's line; a ghost holds none.
type node struct {
	key        uint64
	prev, next int32
	home       listID
	lent       bool // the line is AdoptFill's owner's bytes or the cache's zero line: never recycled
	line       []byte
}

// chain is an intrusive doubly linked list over the slab, MRU at head.
type chain struct {
	head, tail int32
	n          int
}

// arc is one shard's block store under the ARC replacement policy: two
// resident lists (T1 holds blocks seen once, T2 blocks seen at least twice)
// and two ghost lists (B1, B2) remembering recent evictions from each. The
// adaptive target p shifts capacity between recency (T1) and frequency (T2)
// according to which ghost list is being re-hit, so a zipfian re-read mix
// keeps its hot set in T2 while a scan streams through T1 without flushing
// it. The four lists are chains over one slab of nodes with a free list, and
// one index maps a key to its node, so a block costs one lookup and no
// allocation once the slab and its lines exist: a line freed by eviction or
// invalidation waits on spare for the next admission, unless it is lent:
// AdoptFill installed its owner's immutable bytes as the line, or the block
// is all zero and shares the cache's one zero line.
// It is deterministic (the same call sequence always yields the same
// evictions) and not safe for concurrent use: the owning shard serializes
// calls.
type arc struct {
	c, p      int // total resident capacity; target size of T1
	nodes     []node
	free      int32
	l         [free]chain // T1, T2, B1, B2
	idx       map[uint64]int32
	spare     [][]byte
	ghostHits uint64
}

// newARC returns an empty store with the given resident capacity.
func newARC(capacity int) arc {
	a := arc{c: max(capacity, 1), free: nilNode, idx: make(map[uint64]int32)}
	for i := range a.l {
		a.l[i] = chain{nilNode, nilNode, 0}
	}
	return a
}

// resident is the resident block count.
func (a *arc) resident() int { return a.l[t1].n + a.l[t2].n }

// lookup returns key's node if key is resident.
func (a *arc) lookup(key uint64) (int32, bool) {
	n, ok := a.idx[key]
	return n, ok && a.nodes[n].home <= t2
}

func (a *arc) unlink(n int32) {
	nd := &a.nodes[n]
	l := &a.l[nd.home]
	if nd.prev != nilNode {
		a.nodes[nd.prev].next = nd.next
	} else {
		l.head = nd.next
	}
	if nd.next != nilNode {
		a.nodes[nd.next].prev = nd.prev
	} else {
		l.tail = nd.prev
	}
	l.n--
}

func (a *arc) pushMRU(n int32, h listID) {
	nd, l := &a.nodes[n], &a.l[h]
	nd.home, nd.prev, nd.next = h, nilNode, l.head
	if l.head != nilNode {
		a.nodes[l.head].prev = n
	} else {
		l.tail = n
	}
	l.head = n
	l.n++
}

// touch moves a tracked node to T2's MRU position: a hit on a resident, or
// the re-admission of a ghost.
func (a *arc) touch(n int32) {
	a.unlink(n)
	a.pushMRU(n, t2)
}

// release takes node n's line off it, onto spare unless it is lent.
func (a *arc) release(n int32) {
	nd := &a.nodes[n]
	if nd.line != nil && !nd.lent {
		if bufpool.Poison {
			for i := range nd.line {
				nd.line[i] = 0xDB
			}
		}
		a.spare = append(a.spare, nd.line)
	}
	nd.line, nd.lent = nil, false
}

// adopt makes blk resident node n's line, lent: its owner keeps it
// unchanged, and release never poisons or recycles it.
func (a *arc) adopt(n int32, blk []byte) {
	a.release(n)
	nd := &a.nodes[n]
	nd.line, nd.lent = blk, true
}

// drop forgets node n: off its list and the index, onto the free list.
func (a *arc) drop(n int32) {
	a.unlink(n)
	a.release(n)
	nd := &a.nodes[n]
	delete(a.idx, nd.key)
	nd.home, nd.next = free, a.free
	a.free = n
}

// line returns resident node n's line to copy into, giving it a spare or a
// new bs-byte one if it has none or a lent one, which is not the cache's to
// write.
func (a *arc) line(n int32, bs int) []byte {
	nd := &a.nodes[n]
	if nd.lent {
		a.release(n)
	}
	if nd.line == nil {
		if k := len(a.spare) - 1; k >= 0 {
			nd.line = a.spare[k]
			a.spare[k] = nil
			a.spare = a.spare[:k]
		} else {
			nd.line = make([]byte, bs)
		}
	}
	return nd.line
}

// replace demotes one resident block to the matching ghost list and appends
// its key to ev, implementing ARC's REPLACE subroutine.
func (a *arc) replace(hitB2 bool, ev []uint64) []uint64 {
	n1 := a.l[t1].n
	var victim int32
	var ghost listID
	switch {
	case n1 >= 1 && (n1 > a.p || hitB2 && n1 == a.p):
		victim, ghost = a.l[t1].tail, b1
	case a.l[t2].n > 0:
		victim, ghost = a.l[t2].tail, b2
	case n1 > 0:
		victim, ghost = a.l[t1].tail, b1
	default:
		return ev
	}
	a.release(victim)
	a.unlink(victim)
	a.pushMRU(victim, ghost)
	return append(ev, a.nodes[victim].key)
}

func (a *arc) dropLRU(h listID) {
	if n := a.l[h].tail; n != nilNode {
		a.drop(n)
	}
}

// step is ARC's adaptation of p on a ghost hit: other/own when that exceeds
// one, else one.
func step(other, own int) int {
	if own > 0 && other/own > 1 {
		return other / own
	}
	return 1
}

// admit makes key resident and returns its node, appending the keys evicted
// to make room to ev in eviction order. The node has no line unless key was
// already resident.
func (a *arc) admit(key uint64, ev []uint64) (int32, []uint64) {
	if n, ok := a.idx[key]; ok {
		switch a.nodes[n].home {
		case t1, t2:
			// Already resident: treat as a hit.
		case b1:
			// Recency ghost hit: grow the T1 target.
			a.ghostHits++
			a.p = min(a.c, a.p+step(a.l[b2].n, a.l[b1].n))
			ev = a.replace(false, ev)
		default: // b2
			// Frequency ghost hit: shrink the T1 target.
			a.ghostHits++
			a.p = max(0, a.p-step(a.l[b1].n, a.l[b2].n))
			ev = a.replace(true, ev)
		}
		a.touch(n)
		return n, ev
	}
	// Brand-new key.
	l1 := a.l[t1].n + a.l[b1].n
	if l1 == a.c {
		if a.l[t1].n < a.c {
			a.dropLRU(b1)
			ev = a.replace(false, ev)
		} else {
			// B1 is empty and T1 full: evict T1's LRU outright.
			lru := a.l[t1].tail
			ev = append(ev, a.nodes[lru].key)
			a.drop(lru)
		}
	} else if l1 < a.c {
		total := l1 + a.l[t2].n + a.l[b2].n
		if total >= a.c {
			if total == 2*a.c {
				a.dropLRU(b2)
			}
			ev = a.replace(false, ev)
		}
	}
	n := a.free
	if n != nilNode {
		a.free = a.nodes[n].next
	} else {
		n = int32(len(a.nodes))
		a.nodes = append(a.nodes, node{})
	}
	a.nodes[n].key = key
	a.idx[key] = n
	a.pushMRU(n, t1)
	return n, ev
}

// remove forgets key entirely (resident or ghost), e.g. after an
// invalidation, reporting whether it was resident.
func (a *arc) remove(key uint64) bool {
	n, ok := a.idx[key]
	if !ok {
		return false
	}
	was := a.nodes[n].home <= t2
	a.drop(n)
	return was
}
