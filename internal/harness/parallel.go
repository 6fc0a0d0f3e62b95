package harness

import (
	"sync"
	"sync/atomic"
)

// forEach runs fn(0..n-1) across up to min(EffectiveWorkers, n)
// goroutines. Every experiment grid point builds its own simulation
// environment and RNG from the seed, so points are independent and results
// do not depend on execution order; callers store results by index so the
// assembled tables come out identical to a serial run (see
// TestParallelMatchesSerial).
func (o Options) forEach(n int, fn func(i int)) {
	workers := o.effectiveWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// shardGroup extends the grid-level fan-out to shard level: a table
// constructor defers every independent cell run — one task per (grid point,
// shard) — and assembles rows only after Run, so the row order (and the
// rendered bytes) is fixed by enqueue order while the runs themselves spread
// across the worker pool. Each shard builds its own simulation environment
// from the seed, so results are position-independent; see
// TestShardedMatchesSerial.
type shardGroup struct {
	o     Options
	tasks []func()
}

// group returns an empty shard group bound to o's worker budget.
func (o Options) group() *shardGroup { return &shardGroup{o: o} }

// shard defers fn as one unit of work in g and returns a pointer that holds
// fn's result once g.Run returns. (A package function only because Go
// methods cannot introduce type parameters.)
func shard[T any](g *shardGroup, fn func() T) *T {
	out := new(T)
	g.tasks = append(g.tasks, func() { *out = fn() })
	return out
}

// run executes every deferred shard across the worker pool and clears the
// group. Reading a shard's result pointer before Run returns is a bug.
func (g *shardGroup) run() {
	tasks := g.tasks
	g.tasks = nil
	g.o.forEach(len(tasks), func(i int) { tasks[i]() })
}
