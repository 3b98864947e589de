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
	"sync"
	"sync/atomic"

	"lf"
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
}

// Default returns the configuration used by cmd/lfbench.
func Default() Config { return Config{Seed: 1, Epochs: 3} }

// each runs fn(i) for every i in [0, n) on up to GOMAXPROCS goroutines
// and returns the results in index order. fn must draw its randomness
// from its index alone and write only what it returns; then the
// results are identical at any GOMAXPROCS. The error returned is that
// of the lowest failing index, as a serial loop would report it; a
// panic in fn is re-raised on the caller once every goroutine has
// returned.
func each[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	workers := min(runtime.GOMAXPROCS(0), n)
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
					panicked.CompareAndSwap(nil, fmt.Sprintf("experiment: epoch panic: %v", r))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeEpoch runs net's next epoch and decodes it with
// net.DecoderConfig(), adjusted by tweak when tweak is non-nil.
func decodeEpoch(net *lf.Network, tweak func(*lf.DecoderConfig)) (*lf.Epoch, *lf.Result, error) {
	ep, err := net.RunEpoch()
	if err != nil {
		return nil, nil, err
	}
	dcfg := net.DecoderConfig()
	if tweak != nil {
		tweak(&dcfg)
	}
	dec, err := lf.NewDecoder(dcfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := dec.Decode(ep)
	return ep, res, err
}

// decodeNew builds a network from nc and decodes its first epoch as
// decodeEpoch does.
func decodeNew(nc lf.NetworkConfig, tweak func(*lf.DecoderConfig)) (*lf.Epoch, *lf.Result, error) {
	net, err := lf.NewNetwork(nc)
	if err != nil {
		return nil, nil, err
	}
	return decodeEpoch(net, tweak)
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
