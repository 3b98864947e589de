// Package experiment reproduces every table and figure of the paper's
// evaluation (§5). Each experiment builds its workload with the public
// lf API (plus internal substrates where the paper instruments below
// the protocol surface), runs it, and returns a stats.Table shaped
// like the corresponding paper result. cmd/lfbench prints them; the
// root bench suite regenerates them under `go test -bench`.
package experiment

import (
	"fmt"
	"runtime"

	"lf/internal/stats"
)

// Config controls experiment scale and reproducibility.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Epochs per measured point (more epochs, tighter estimates).
	Epochs int
	// Quick trims sweeps for use under `go test -bench` where each
	// iteration must stay cheap.
	Quick bool
	// Workers bounds epoch-level parallelism: independent seeded
	// epochs (Fig8/9/10 throughput averaging, the ablations, Fig12's
	// per-population runs) fan out across this many goroutines
	// (0 = all cores, 1 = serial). Every epoch is seeded independently
	// and aggregation preserves epoch order, so results are identical
	// at any setting.
	Workers int
}

// Default returns the configuration used by cmd/lfbench.
func Default() Config { return Config{Seed: 1, Epochs: 3} }

// workers resolves the epoch-level worker count: 0 means
// runtime.GOMAXPROCS(0), and anything below 1 runs serially.
func (c Config) workers() int {
	if c.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(c.Workers, 1)
}

// firstErr returns the first error (lowest epoch index) from a
// fanned-out epoch loop, mirroring the serial loop's error semantics.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// kbps formats a bits/s value in kbps.
func kbps(bps float64) string { return fmt.Sprintf("%.1f", bps/1e3) }

// ms formats seconds as milliseconds.
func ms(s float64) string { return fmt.Sprintf("%.2f", s*1e3) }

// ratio formats a speedup/ratio.
func ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", a/b)
}

// Result bundles a table with the series behind it, for callers that
// plot rather than print.
type Result struct {
	Table  *stats.Table
	Series []stats.Series
}
