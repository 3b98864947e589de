package shard

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestNextTilesExactly(t *testing.T) {
	// Ownership ranges must tile [0, avail) exactly once, in order,
	// regardless of how avail advances between calls.
	const size, min = 100, 25
	covered := int64(0)
	avail := int64(0)
	var got []Range
	for _, push := range []int64{10, 10, 10, 120, 5, 300, 1} {
		avail += push
		for {
			r, ok := Next(covered, avail, size, min, false)
			if !ok {
				break
			}
			got = append(got, r)
			covered = r.Hi
		}
	}
	// EOF flushes the remainder even below min.
	for {
		r, ok := Next(covered, avail, size, min, true)
		if !ok {
			break
		}
		got = append(got, r)
		covered = r.Hi
	}
	if covered != avail {
		t.Fatalf("covered %d != avail %d", covered, avail)
	}
	prev := int64(0)
	for _, r := range got {
		if r.Lo != prev {
			t.Fatalf("gap or overlap: range starts at %d, want %d", r.Lo, prev)
		}
		if r.Len() <= 0 || r.Len() > size {
			t.Fatalf("range %+v has bad length", r)
		}
		prev = r.Hi
	}
	// Pre-EOF, no range shorter than min is ever dispatched.
	for _, r := range got[:len(got)-1] {
		if r.Len() < min && r.Hi != avail {
			t.Fatalf("pre-EOF range %+v shorter than min %d", r, min)
		}
	}
}

func TestNextHoldsBackSmallPreEOF(t *testing.T) {
	if _, ok := Next(0, 10, 100, 25, false); ok {
		t.Fatal("dispatched a sub-min shard before EOF")
	}
	if r, ok := Next(0, 10, 100, 25, true); !ok || r != (Range{0, 10}) {
		t.Fatalf("EOF remainder not flushed: %+v %v", r, ok)
	}
	if _, ok := Next(10, 10, 100, 25, true); ok {
		t.Fatal("dispatched an empty shard")
	}
}

func TestSweepReach(t *testing.T) {
	// Gap=2, Win=3 (the default detector): margin 5, centroid span 4.
	if got := SweepReach(2, 3); got != 9 {
		t.Fatalf("SweepReach(2,3) = %d, want 9", got)
	}
}

func TestPoolRunsAllJobs(t *testing.T) {
	p := NewPool(4, 8)
	defer p.Close()
	var sum atomic.Int64
	tickets := make([]*Ticket, 100)
	for i := range tickets {
		n := int64(i)
		tickets[i] = p.Go(func() { sum.Add(n) })
	}
	for _, tk := range tickets {
		tk.Wait()
		if err := tk.Err(); err != nil {
			t.Fatalf("unexpected job error: %v", err)
		}
	}
	if got := sum.Load(); got != 99*100/2 {
		t.Fatalf("sum = %d, want %d", got, 99*100/2)
	}
}

func TestPoolStragglerDoesNotStall(t *testing.T) {
	// A slow head job must not prevent later jobs from completing:
	// idle workers pull past it.
	p := NewPool(2, 4)
	defer p.Close()
	release := make(chan struct{})
	head := p.Go(func() { <-release })
	tail := p.Go(func() {})
	deadline := time.After(5 * time.Second)
	for !tail.Ready() {
		select {
		case <-deadline:
			t.Fatal("tail job stalled behind straggler head")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if head.Ready() {
		t.Fatal("head finished before release")
	}
	close(release)
	head.Wait()
}

func TestPoolCapturesPanic(t *testing.T) {
	p := NewPool(1, 2)
	defer p.Close()
	bad := p.Go(func() { panic("poisoned shard") })
	bad.Wait()
	if err := bad.Err(); err == nil {
		t.Fatal("panic not captured")
	}
	// The worker survives the panic and keeps pulling.
	ok := p.Go(func() {})
	ok.Wait()
	if err := ok.Err(); err != nil {
		t.Fatalf("worker did not survive panic: %v", err)
	}
}

func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(2, 4)
	var done atomic.Int64
	for i := 0; i < 10; i++ {
		p.Go(func() { done.Add(1) })
	}
	p.Close()
	if got := done.Load(); got != 10 {
		t.Fatalf("Close returned with %d/10 jobs done", got)
	}
}
