package work

import (
	"sync/atomic"
	"testing"
)

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 7, 1000} {
			hits := make([]int32, n)
			Do(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestDoSerialPreservesOrder(t *testing.T) {
	var order []int
	Do(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
}

func TestDoPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	Do(4, 16, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}
