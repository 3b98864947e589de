// Package work provides the bounded worker pools the reader pipeline
// fans out on. It is the only way one decode uses more than one core:
// the differential sweep splits into DoRanges chunks, and the
// per-stream stages (splitting, sequence decoding, SIC reconstruction)
// run under Do and DoRecover. Every helper here preserves a hard
// determinism contract: callers pass closures that write only to
// per-index (or per-range) state, so the observable result is
// bit-identical whether the work runs on one goroutine or many. The
// parallelism knobs lf.DecoderConfig.Parallelism
// (decoder.Config.Parallelism, which edgedetect.Config.Parallelism
// inherits) and experiment.Config.Workers resolve through this
// package.
package work

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lf/internal/obs"
)

// Resolve maps a parallelism knob to a concrete worker count:
// 0 resolves to runtime.GOMAXPROCS(0) (use every available core),
// anything ≥ 1 is taken literally, and negative values clamp to 1.
func Resolve(parallelism int) int {
	if parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if parallelism < 1 {
		return 1
	}
	return parallelism
}

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

// DoRecover is Do with per-index panic isolation: a panic inside fn(i)
// is captured as errs[i] instead of tearing down the pool, so one
// misbehaving work item cannot take down its siblings. Returns nil when
// every index completed cleanly (the common case allocates nothing).
// The same per-index write-confinement contract as Do applies, so the
// captured error set is identical at any worker count.
func DoRecover(workers, n int, fn func(i int)) []error {
	var (
		errs []error
		mu   sync.Mutex
	)
	Do(workers, n, func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if errs == nil {
					errs = make([]error, n)
				}
				errs[i] = fmt.Errorf("panic: %v", r)
				mu.Unlock()
			}
		}()
		fn(i)
	})
	return errs
}

// MinChunk is the smallest per-range work size DoRanges hands a worker.
// Splitting finer than this spends more on scheduling than the chunk's
// own arithmetic: a chunk of 16384 differential evaluations is a few
// hundred µs, comfortably above goroutine handoff cost, so fanning out
// is never slower than the serial path at any worker count. It also
// keeps the streaming detector's small per-push extensions (typically
// one SDR DMA buffer, ≤16 Ki samples) on the inline path with no
// scheduler round-trip at all.
const MinChunk = 16384

// Bounds returns the deterministic chunk boundaries DoRanges uses for a
// length-n series at the given worker count: at most `workers` equal
// ranges, each at least MinChunk long (except possibly the last). The
// boundaries depend only on (workers, n), never on scheduling, so tests
// can plant features exactly on a seam.
func Bounds(workers, n int) []int {
	if n <= 0 {
		return nil
	}
	chunks := Resolve(workers)
	if maxChunks := n / MinChunk; chunks > maxChunks {
		chunks = maxChunks
	}
	if chunks < 1 {
		chunks = 1
	}
	size := (n + chunks - 1) / chunks
	bounds := make([]int, 0, chunks+1)
	for lo := 0; lo < n; lo += size {
		bounds = append(bounds, lo)
	}
	return append(bounds, n)
}

// DoRanges splits [0, n) into the chunks described by Bounds and runs
// fn(lo, hi) for each on the pool. fn must confine its writes to the
// [lo, hi) slice of per-index state it is handed.
func DoRanges(workers, n int, fn func(lo, hi int)) {
	bounds := Bounds(workers, n)
	if len(bounds) < 2 {
		return
	}
	Do(Resolve(workers), len(bounds)-1, func(c int) {
		fn(bounds[c], bounds[c+1])
	})
}

// Meter wraps the pool helpers with pipeline metrics. All three fields
// are ClassRuntime by design — batch counts, task counts, and occupancy
// depend on the worker count and chunking, which vary with Parallelism
// — so metered totals never enter the decode identity. A nil *Meter
// delegates straight through with zero overhead.
type Meter struct {
	// Batches counts pool invocations; Tasks counts the work items
	// dispatched across them.
	Batches, Tasks *obs.Counter
	// Occupancy tracks the high-water effective worker count
	// (min(workers, items) per invocation).
	Occupancy *obs.Gauge
}

func (m *Meter) note(workers, n int) {
	if m == nil || n <= 0 {
		return
	}
	m.Batches.Inc()
	m.Tasks.Add(int64(n))
	w := Resolve(workers)
	if w > n {
		w = n
	}
	m.Occupancy.Max(int64(w))
}

// Do is work.Do with pool metering.
func (m *Meter) Do(workers, n int, fn func(i int)) {
	m.note(workers, n)
	Do(workers, n, fn)
}

// DoRecover is work.DoRecover with pool metering.
func (m *Meter) DoRecover(workers, n int, fn func(i int)) []error {
	m.note(workers, n)
	return DoRecover(workers, n, fn)
}

// DoRanges is work.DoRanges with pool metering; Tasks counts the
// deterministic chunks handed to workers.
func (m *Meter) DoRanges(workers, n int, fn func(lo, hi int)) {
	if m != nil {
		if b := Bounds(workers, n); len(b) >= 2 {
			m.note(workers, len(b)-1)
		}
	}
	DoRanges(workers, n, fn)
}
