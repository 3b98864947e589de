// Package work provides the bounded worker pool the experiments fan
// independent seeded epochs out on (experiment.Config.Workers). One
// decode never uses it: a decode runs on its calling goroutine, and
// concurrency lives across captures. Do keeps a determinism contract:
// callers pass closures that write only to per-index state, so the
// observable result is identical whether the work runs on one
// goroutine or many.
package work

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Do runs fn(i) for every i in [0, n), using at most workers
// goroutines. fn must confine its writes to state owned by index i;
// under that contract the result is identical at any worker count.
// workers ≤ 1 (or n ≤ 1) runs inline with no goroutines at all, so the
// serial path stays allocation- and scheduler-free. A panic in any fn
// is re-raised on the calling goroutine after the pool drains.
func Do(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, fmt.Sprintf("work: worker panic: %v", r))
				}
			}()
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
	if p := panicked.Load(); p != nil {
		panic(p)
	}
}
