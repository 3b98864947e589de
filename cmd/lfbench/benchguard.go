package main

// Bench-regression guard (-benchguard BASELINE). Re-runs the
// micro-benchmark suite and compares the hot-path stages against the
// committed baseline section recorded on a machine of the same shape
// (num_cpu, gomaxprocs), failing on a >15% ns/op or allocs/op
// regression. Only the pipeline stages whose performance this repo
// actively defends are gated (decode, edgedetect, decode/streaming and
// its sharded variant); synthesize and serialization are
// informational. A machine with no recorded section FAILS the guard —
// the old warn-and-skip silently waived the gate on every multi-core
// box because the committed baseline was 1-core only.

import (
	"fmt"
	"os"
	"runtime"
	"strings"
)

// guardThreshold is the fractional regression the guard tolerates
// before failing, covering run-to-run scheduler and allocator noise.
const guardThreshold = 0.15

// statsOverheadLimit caps the instrumented-vs-NoStats streaming decode
// ratio. Unlike the baseline comparison it is measured within one run
// on one machine, so it is gated even when the committed baseline is
// not comparable.
const statsOverheadLimit = 1.03

// sicRedecodeCap is the absolute ceiling on sic_redecode_fraction: one
// incremental cancellation round on the slotted bench capture must cost
// at most this fraction of a from-scratch re-decode. Like the stats
// overhead it is a within-run measurement (both sides of the fraction
// come from the same interleaved timing passes), so it is gated on any
// machine regardless of baseline comparability.
const sicRedecodeCap = 0.40

// sicRedecodeSlack is the absolute room the baseline comparison of
// sic_redecode_fraction allows on top of the relative guardThreshold.
// The fraction divides a difference of two ~20 ms wall-clock timings
// by one of them, so a couple of milliseconds of scheduler noise in
// either term moves it by a tenth — its run-to-run noise is absolute,
// not proportional, and a pure ratio gate on a small baseline value
// would flake on noise the cap gate happily absorbs. Creep within the
// slack is still bounded: the absolute cap fails the run regardless of
// what the baseline recorded.
const sicRedecodeSlack = 0.15

// guardedBenches are the benchmark names the guard gates on.
var guardedBenches = map[string]bool{
	"decode":                   true,
	"edgedetect":               true,
	"decode/streaming":         true,
	"decode/streaming/sharded": true,
}

// shardedRealtimeFloor is the absolute realtime_factor_sharded gate on
// multi-core machines: with cores to fan the sweep across, the sharded
// streaming decode must keep up with a live SDR feed. Single-core
// machines only gate the relative regression — there is no parallelism
// to buy the margin with.
const shardedRealtimeFloor = 1.0

// runBenchGuard loads the committed baseline, re-runs the suite, and
// returns an error describing every gated benchmark that regressed.
func runBenchGuard(baselinePath string, seed int64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	bb, err := loadBaseline(data)
	if err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	// A baseline section recorded on a machine with a different core
	// count (or a restricted GOMAXPROCS) is not comparable: the parallel
	// rungs of its worker sweep measured different real concurrency.
	// The gate therefore compares only against the section matching this
	// machine's shape — and a missing section is a hard failure with
	// re-record guidance, not a skip: skipping silently waived every
	// gated stage on any box the baseline wasn't recorded on.
	ncpu := runtime.NumCPU()
	baseline := bb.section(ncpu, ncpu)
	if baseline == nil {
		have := make([]string, 0, len(bb.Sections))
		for _, s := range bb.Sections {
			have = append(have, fmt.Sprintf("num_cpu=%d/gomaxprocs=%d", s.NumCPU, s.GOMAXPROCS))
		}
		return fmt.Errorf(
			"no baseline section for this machine (num_cpu=%d): %s has [%s]; "+
				"record this machine's section with `lfbench -benchjson %s` and commit it",
			ncpu, baselinePath, strings.Join(have, ", "), baselinePath)
	}
	base := make(map[string]benchResult, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[fmt.Sprintf("%s/w%d", b.Name, b.Workers)] = b
	}

	fresh, err := buildBenchReport(seed)
	if err != nil {
		return err
	}

	var failures []string
	for _, b := range fresh.Benchmarks {
		if !guardedBenches[b.Name] {
			continue
		}
		key := fmt.Sprintf("%s/w%d", b.Name, b.Workers)
		ref, ok := base[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from baseline (regenerate with -benchjson)", key))
			continue
		}
		nsRatio := b.NsPerOp / ref.NsPerOp
		allocRatio := float64(b.AllocsPerOp) / float64(ref.AllocsPerOp)
		status := "ok"
		if nsRatio > 1+guardThreshold {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: ns/op %.0f vs baseline %.0f (%+.1f%%)",
				key, b.NsPerOp, ref.NsPerOp, 100*(nsRatio-1)))
		}
		if allocRatio > 1+guardThreshold {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: allocs/op %d vs baseline %d (%+.1f%%)",
				key, b.AllocsPerOp, ref.AllocsPerOp, 100*(allocRatio-1)))
		}
		fmt.Printf("%-24s ns/op %11.0f (%+6.1f%%)  allocs/op %5d (%+6.1f%%)  %s\n",
			key, b.NsPerOp, 100*(nsRatio-1), b.AllocsPerOp, 100*(allocRatio-1), status)
	}
	// Realtime-factor gates: the streaming decoder's headline throughput
	// metrics must not regress >15% against this machine's baseline
	// section, and on a multi-core machine the sharded decode must
	// additionally clear the absolute realtime floor.
	rtGate := func(name string, b, f float64) {
		if b <= 0 || f <= 0 {
			return
		}
		status := "ok"
		if f < b*(1-guardThreshold) {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf(
				"%s: %.4f vs baseline %.4f (%+.1f%%)", name, f, b, 100*(f/b-1)))
		}
		fmt.Printf("%-24s %11.4f (%+6.1f%% vs %.4f)  %s\n", name, f, 100*(f/b-1), b, status)
	}
	if baseline.Streaming != nil && fresh.Streaming != nil {
		rtGate("realtime-factor", baseline.Streaming.RealtimeFactor, fresh.Streaming.RealtimeFactor)
		rtGate("realtime-factor-sharded", baseline.Streaming.RealtimeFactorSharded, fresh.Streaming.RealtimeFactorSharded)
		rtGate("gateway-frames-per-sec", baseline.Streaming.GatewayFramesPerSec, fresh.Streaming.GatewayFramesPerSec)
	}
	if ncpu >= 2 && fresh.Streaming != nil && fresh.Streaming.RealtimeFactorSharded > 0 &&
		fresh.Streaming.RealtimeFactorSharded < shardedRealtimeFloor {
		failures = append(failures, fmt.Sprintf(
			"realtime_factor_sharded %.4f below the %.1f floor on a %d-core machine",
			fresh.Streaming.RealtimeFactorSharded, shardedRealtimeFloor, ncpu))
	}
	// Incremental-SIC gates. The absolute cap is the §17 acceptance
	// bound: the dirty-span residual pass must stay O(dirty), i.e. cost
	// at most sicRedecodeCap of a full re-decode of the bench capture.
	// The baseline comparison additionally catches creeping regressions
	// below the cap, with absolute slack for timing-difference noise.
	if fresh.SIC != nil {
		f := fresh.SIC.RedecodeFraction
		status := "ok"
		if f > sicRedecodeCap {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf(
				"sic_redecode_fraction %.3f exceeds the %.2f cap: the incremental round re-swept %d of %d samples",
				f, sicRedecodeCap, fresh.SIC.DirtySamples, fresh.SIC.CaptureSamples))
		}
		fmt.Printf("%-24s %11.4f (cap %.2f)  %s\n", "sic-redecode-fraction", f, sicRedecodeCap, status)
		if baseline.SIC != nil {
			b := baseline.SIC.RedecodeFraction
			if b > 0 && f > b*(1+guardThreshold) && f > b+sicRedecodeSlack {
				failures = append(failures, fmt.Sprintf(
					"sic_redecode_fraction %.3f vs baseline %.3f (%+.1f%%)", f, b, 100*(f/b-1)))
			}
		}
	}
	// Instrumentation overhead gate: measured within this run, so it
	// applies regardless of baseline comparability.
	if r := fresh.StatsOverheadRatio; r > 0 {
		status := "ok"
		if r > statsOverheadLimit {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf(
				"stats overhead: instrumented streaming decode %.1f%% slower than NoStats (limit %.0f%%)",
				100*(r-1), 100*(statsOverheadLimit-1)))
		}
		fmt.Printf("%-24s ratio %.3f (limit %.3f)  %s\n", "stats-overhead", r, statsOverheadLimit, status)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchguard: %s\n", f)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%", len(failures), 100*guardThreshold)
	}
	fmt.Println("benchguard: all gated benchmarks within threshold")
	return nil
}
