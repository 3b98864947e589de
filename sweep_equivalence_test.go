package lf_test

import (
	"fmt"
	"reflect"
	"testing"

	"lf"
	"lf/internal/fault"
)

// TestSparseSweepMatchesDense holds the decoder to its one-sweep and
// one-decode-shape contracts (DESIGN.md §12, §14-§16): the deprecated
// ForceDenseSweep, PipelineParallelism, ShardParallelism and
// StripeRunner fields must select nothing — the runner is never even
// called — so for fault-injected captures across every capture-level
// impairment kind the default decode is byte-identical to the decode
// with all four set, batch and streaming; and batch equals streaming at
// block sizes 1, 4096, and whole-capture.
// CalibSamples is set so streaming genuinely runs incrementally (the
// calibration prefix ends mid-capture).
func TestSparseSweepMatchesDense(t *testing.T) {
	blocks := func(n int) []int {
		if testing.Short() {
			return []int{4096}
		}
		return []int{1, 4096, n + 999}
	}
	for _, seed := range []int64{5, 11} {
		ep, cfg := buildEpoch(t, 4, seed)
		cfg.CalibSamples = 32768
		for _, kind := range fault.CaptureKinds() {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, kind), func(t *testing.T) {
				fc := fault.Config{Seed: seed + 100, Injectors: []fault.Injector{
					{Kind: kind, Severity: 0.5},
				}}
				impaired, err := fc.ApplyCapture(ep.Capture)
				if err != nil {
					t.Fatal(err)
				}
				ep2 := &lf.Epoch{Capture: impaired, Emissions: ep.Emissions, Config: ep.Config}

				dcfg := cfg
				dcfg.ForceDenseSweep = true
				dcfg.PipelineParallelism = 2
				dcfg.ShardParallelism = 4
				dcfg.StripeRunner = func(*lf.StripeJob) error {
					t.Error("the deprecated StripeRunner was called")
					return nil
				}
				deprecated := decodeWith(t, ep2, dcfg)
				batch := decodeWith(t, ep2, cfg)
				if !reflect.DeepEqual(deprecated, batch) {
					t.Fatal("batch decode diverged with the deprecated fields set")
				}
				if !reflect.DeepEqual(batch, streamDecode(t, ep2, dcfg, 4096)) {
					t.Fatal("streaming decode diverged with the deprecated fields set")
				}
				for _, block := range blocks(len(impaired.Samples)) {
					streamed := streamDecode(t, ep2, cfg, block)
					if !reflect.DeepEqual(batch, streamed) {
						t.Fatalf("streaming decode at block=%d diverged from batch", block)
					}
				}
			})
		}
	}
}
