package lf_test

import (
	"fmt"
	"reflect"
	"testing"

	"lf"
	"lf/internal/fault"
)

// TestSparseSweepMatchesDense holds the decoder to its one-sweep and
// one-streaming-path contracts (DESIGN.md §12, §14): the deprecated
// ForceDenseSweep and PipelineParallelism fields must select nothing,
// so for fault-injected captures across every capture-level impairment
// kind the default decode is byte-identical to the decode with both
// set, batch and streaming; and batch equals streaming at block sizes
// 1, 4096, and whole-capture.
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
				deprecated := decodeWith(t, ep2, dcfg, 0)
				batch := decodeWith(t, ep2, cfg, 0)
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
