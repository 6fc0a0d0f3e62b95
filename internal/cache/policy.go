package cache

import "container/list"

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

// newARC returns an ARC policy with the given resident capacity.
func newARC(capacity int) *arcPolicy {
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

// GhostHits counts admissions of recently evicted keys — the signal that the
// resident set is too small for the reuse distance.
func (a *arcPolicy) GhostHits() uint64 { return a.ghostHits }

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

// Hit notes an access to a resident key.
func (a *arcPolicy) Hit(key uint64) {
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

// Admit makes key resident, returning the keys evicted to make room (in
// eviction order). The returned keys no longer hold data.
func (a *arcPolicy) Admit(key uint64) []uint64 {
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

// Remove forgets key entirely (resident or ghost), e.g. after an
// invalidation.
func (a *arcPolicy) Remove(key uint64) {
	e, ok := a.idx[key]
	if !ok {
		return
	}
	e.Value.(*polEntry).home.Remove(e)
	delete(a.idx, key)
}
