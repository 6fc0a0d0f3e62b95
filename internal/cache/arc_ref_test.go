package cache

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
)

// The container/list ARC below is the policy the slab store replaced, kept
// as the lockstep reference: TestARCLockstepWithReference holds the slab's
// decisions to it op for op.

// polEntry is one tracked key; home identifies the list it lives on.
type polEntry struct {
	key  uint64
	home *list.List
}

func pushMRU(l *list.List, key uint64) *list.Element {
	return l.PushFront(&polEntry{key: key, home: l})
}

// arcPolicy is the ARC replacement policy: two resident lists (T1 holds
// blocks seen once, T2 blocks seen at least twice) and two ghost lists (B1,
// B2) remembering recent evictions from each. The adaptive target p shifts
// capacity between recency (T1) and frequency (T2) according to which ghost
// list is being re-hit, so a zipfian re-read mix keeps its hot set in T2
// while a scan streams through T1 without flushing it. It is deterministic
// (the same call sequence always yields the same evictions) and not safe for
// concurrent use: the owning shard serializes calls.
type arcPolicy struct {
	c              int // total resident capacity
	p              int // target size of T1
	t1, t2, b1, b2 *list.List
	idx            map[uint64]*list.Element
	ghostHits      uint64
}

// newARCPolicy returns an ARC policy with the given resident capacity.
func newARCPolicy(capacity int) *arcPolicy {
	if capacity < 1 {
		capacity = 1
	}
	return &arcPolicy{
		c:  capacity,
		t1: list.New(), t2: list.New(), b1: list.New(), b2: list.New(),
		idx: make(map[uint64]*list.Element),
	}
}

// Len is the resident count.
func (a *arcPolicy) Len() int { return a.t1.Len() + a.t2.Len() }

// promote moves a tracked key to T2's MRU position. The common case, a hit
// on a T2 resident, moves the element and allocates nothing; a key arriving
// from another list takes its polEntry along.
func (a *arcPolicy) promote(e *list.Element, key uint64) {
	ent := e.Value.(*polEntry)
	if ent.home == a.t2 {
		a.t2.MoveToFront(e)
		return
	}
	ent.home.Remove(e)
	ent.home = a.t2
	a.idx[key] = a.t2.PushFront(ent)
}

// hit notes an access to a resident key.
func (a *arcPolicy) hit(key uint64) {
	e, ok := a.idx[key]
	if !ok {
		return
	}
	home := e.Value.(*polEntry).home
	if home == a.t1 || home == a.t2 {
		a.promote(e, key)
	}
}

// replace demotes one resident block to the matching ghost list and returns
// its key, implementing ARC's REPLACE subroutine.
func (a *arcPolicy) replace(hitB2 bool) []uint64 {
	var victim *list.Element
	var ghost *list.List
	if a.t1.Len() >= 1 && (a.t1.Len() > a.p || (hitB2 && a.t1.Len() == a.p)) {
		victim, ghost = a.t1.Back(), a.b1
	} else if a.t2.Len() > 0 {
		victim, ghost = a.t2.Back(), a.b2
	} else if a.t1.Len() > 0 {
		victim, ghost = a.t1.Back(), a.b1
	} else {
		return nil
	}
	k := victim.Value.(*polEntry).key
	victim.Value.(*polEntry).home.Remove(victim)
	a.idx[k] = pushMRU(ghost, k)
	return []uint64{k}
}

func (a *arcPolicy) dropLRU(l *list.List) {
	if b := l.Back(); b != nil {
		delete(a.idx, b.Value.(*polEntry).key)
		l.Remove(b)
	}
}

// admit makes key resident, returning the keys evicted to make room (in
// eviction order). The returned keys no longer hold data.
func (a *arcPolicy) admit(key uint64) []uint64 {
	if e, ok := a.idx[key]; ok {
		ent := e.Value.(*polEntry)
		switch ent.home {
		case a.t1, a.t2:
			// Already resident: treat as a hit.
			a.promote(e, key)
			return nil
		case a.b1:
			// Recency ghost hit: grow the T1 target.
			a.ghostHits++
			delta := 1
			if a.b1.Len() > 0 && a.b2.Len()/a.b1.Len() > 1 {
				delta = a.b2.Len() / a.b1.Len()
			}
			a.p = min(a.c, a.p+delta)
			ev := a.replace(false)
			a.promote(e, key)
			return ev
		default: // b2
			// Frequency ghost hit: shrink the T1 target.
			a.ghostHits++
			delta := 1
			if a.b2.Len() > 0 && a.b1.Len()/a.b2.Len() > 1 {
				delta = a.b1.Len() / a.b2.Len()
			}
			a.p = max(0, a.p-delta)
			ev := a.replace(true)
			a.promote(e, key)
			return ev
		}
	}
	// Brand-new key.
	var evicted []uint64
	l1 := a.t1.Len() + a.b1.Len()
	if l1 == a.c {
		if a.t1.Len() < a.c {
			a.dropLRU(a.b1)
			evicted = a.replace(false)
		} else {
			// B1 is empty and T1 full: evict T1's LRU outright.
			lru := a.t1.Back()
			k := lru.Value.(*polEntry).key
			a.t1.Remove(lru)
			delete(a.idx, k)
			evicted = append(evicted, k)
		}
	} else if l1 < a.c {
		total := l1 + a.t2.Len() + a.b2.Len()
		if total >= a.c {
			if total == 2*a.c {
				a.dropLRU(a.b2)
			}
			evicted = a.replace(false)
		}
	}
	a.idx[key] = pushMRU(a.t1, key)
	return evicted
}

// remove forgets key entirely (resident or ghost), e.g. after an
// invalidation.
func (a *arcPolicy) remove(key uint64) {
	e, ok := a.idx[key]
	if !ok {
		return
	}
	e.Value.(*polEntry).home.Remove(e)
	delete(a.idx, key)
}

// hitKey is the reference's hit on the slab store: a touch if key is
// resident, else nothing.
func (a *arc) hitKey(key uint64) {
	if n, ok := a.lookup(key); ok {
		a.touch(n)
	}
}

// keys lists a reference list's keys from MRU to LRU.
func (a *arcPolicy) keys(l *list.List) []uint64 {
	var out []uint64
	for e := l.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*polEntry).key)
	}
	return out
}

// keys lists a slab chain's keys from MRU to LRU, checking the back links.
func (a *arc) keys(t *testing.T, h listID) []uint64 {
	var out []uint64
	prev := nilNode
	for n := a.l[h].head; n != nilNode; n = a.nodes[n].next {
		if a.nodes[n].prev != prev || a.nodes[n].home != h {
			t.Fatalf("list %d: node %d has prev %d home %d, want %d and %d", h, n, a.nodes[n].prev, a.nodes[n].home, prev, h)
		}
		out = append(out, a.nodes[n].key)
		prev = n
	}
	if a.l[h].tail != prev || a.l[h].n != len(out) {
		t.Fatalf("list %d: tail %d len %d, walked to %d over %d nodes", h, a.l[h].tail, a.l[h].n, prev, len(out))
	}
	return out
}

// TestARCLockstepWithReference drives the slab store and the container/list
// reference with the same random hit/admit/remove ops, at every capacity
// from 1 to 40, and after every op requires the same evictions in the same
// order, the same p, the same four lists key for key and the same ghost-hit
// count. remove must also report residency as the reference had it.
func TestARCLockstepWithReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var ev []uint64
	for trial := 0; trial < 300; trial++ {
		capacity := 1 + trial%40
		ref, got := newARCPolicy(capacity), newARC(capacity)
		for op := 0; op < 3000; op++ {
			key := uint64(r.Intn(3 * capacity))
			var want []uint64
			ev = ev[:0]
			switch r.Intn(8) {
			case 0, 1:
				ref.hit(key)
				got.hitKey(key)
			case 2:
				e, ok := ref.idx[key]
				wasResident := ok && (e.Value.(*polEntry).home == ref.t1 || e.Value.(*polEntry).home == ref.t2)
				ref.remove(key)
				if got.remove(key) != wasResident {
					t.Fatalf("cap %d trial %d op %d: remove(%d) reported resident=%v, reference %v", capacity, trial, op, key, !wasResident, wasResident)
				}
			default:
				want = ref.admit(key)
				_, ev = got.admit(key, ev)
			}
			if !slices.Equal(want, ev) {
				t.Fatalf("cap %d trial %d op %d: evicted %v, reference %v", capacity, trial, op, ev, want)
			}
			if got.p != ref.p || got.ghostHits != ref.ghostHits {
				t.Fatalf("cap %d trial %d op %d: p %d ghostHits %d, reference %d %d", capacity, trial, op, got.p, got.ghostHits, ref.p, ref.ghostHits)
			}
			for h, l := range []*list.List{ref.t1, ref.t2, ref.b1, ref.b2} {
				if g, w := got.keys(t, listID(h)), ref.keys(l); !slices.Equal(g, w) {
					t.Fatalf("cap %d trial %d op %d: list %d is %v, reference %v", capacity, trial, op, h, g, w)
				}
			}
			if len(got.idx) != len(ref.idx) {
				t.Fatalf("cap %d trial %d op %d: index holds %d keys, reference %d", capacity, trial, op, len(got.idx), len(ref.idx))
			}
		}
	}
}
