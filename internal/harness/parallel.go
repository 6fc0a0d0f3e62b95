package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// cells runs fn(0..n-1) across up to min(o.Workers, n) goroutines
// (GOMAXPROCS when Workers <= 0) and returns the results in index order.
// Every experiment cell builds its own simulation environment and RNG from
// the seed, so cells are independent and results do not depend on
// execution order: tables assembled from the slice come out identical to a
// serial run (see TestParallelMatchesSerial and TestShardedMatchesSerial).
func cells[T any](o Options, n int, fn func(i int) T) []T {
	out := make([]T, n)
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
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
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}
