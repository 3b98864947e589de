package experiment

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs sets GOMAXPROCS to n for the rest of the test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestEachCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		withProcs(t, procs)
		for _, n := range []int{0, 1, 7, 1000} {
			hits := make([]int32, n)
			out, err := each(n, func(i int) (int, error) {
				atomic.AddInt32(&hits[i], 1)
				return 2 * i, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != n {
				t.Fatalf("procs=%d n=%d: %d results", procs, n, len(out))
			}
			for i, h := range hits {
				if h != 1 || out[i] != 2*i {
					t.Fatalf("procs=%d n=%d: index %d ran %d times, result %d", procs, n, i, h, out[i])
				}
			}
		}
	}
}

func TestEachSerialPreservesOrder(t *testing.T) {
	withProcs(t, 1)
	var order []int
	if _, err := each(5, func(i int) (struct{}, error) {
		order = append(order, i)
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
}

func TestEachPanicPropagates(t *testing.T) {
	withProcs(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	each(16, func(i int) (int, error) {
		if i == 7 {
			panic("boom")
		}
		return i, nil
	})
}

// The lowest failing index wins even when a higher one fails first.
func TestEachLowestErrorWins(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		_, err := each(32, func(i int) (int, error) {
			if i%5 != 3 {
				return i, nil
			}
			if i == 3 {
				time.Sleep(10 * time.Millisecond)
			}
			return 0, fmt.Errorf("index %d", i)
		})
		if want := "index 3"; err == nil || err.Error() != want {
			t.Fatalf("procs=%d: err = %v, want %s", procs, err, want)
		}
	}
}

// The experiments that fan out must print the same tables at any
// GOMAXPROCS.
func TestTablesIndependentOfGOMAXPROCS(t *testing.T) {
	cfg := Config{Seed: 1, Epochs: 3, Quick: true}
	for _, run := range []func(Config) (*Result, error){AblationRegistration, Fig12} {
		var tables []string
		for _, procs := range []int{1, 4} {
			withProcs(t, procs)
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, res.Table.CSV())
		}
		if tables[0] != tables[1] {
			t.Fatalf("GOMAXPROCS 1 vs 4:\n%s\n%s", tables[0], tables[1])
		}
	}
}
