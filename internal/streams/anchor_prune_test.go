package streams_test

import (
	"fmt"
	"testing"

	"lf"
	"lf/internal/edgedetect"
	"lf/internal/experiment"
	"lf/internal/streams"
)

// TestAnchorScanPruneExact pins the frame-head scan's branch-and-bound
// cut (and its perfect-score exit) to the exhaustive scan: equal return
// values on randomized edge sets in both miss-penalty regimes, and on
// the registration edges of slotted bench windows and 16-tag captures,
// scanning from each registered stream's grid with the stream alone,
// with a sibling generator, shadowed and not. The tally guard fails the
// test if the cut never fired in either regime, so it cannot pass
// vacuously.
func TestAnchorScanPruneExact(t *testing.T) {
	var tally streams.PruneTally
	t.Run("random", func(t *testing.T) {
		streams.CheckRandomAnchorScans(t, &tally, 1, 400)
	})
	t.Run("captures", func(t *testing.T) {
		var cases []string
		var eps []*lf.Epoch
		var cfgs []lf.DecoderConfig
		for seed := int64(1); seed <= 2; seed++ {
			ep, cfg, err := experiment.SICBenchEpoch(seed)
			if err != nil {
				t.Fatal(err)
			}
			cases, eps, cfgs = append(cases, fmt.Sprintf("slotted/seed=%d", seed)), append(eps, ep), append(cfgs, cfg)
		}
		for seed := int64(1); seed <= 2; seed++ {
			net, err := lf.NewNetwork(lf.NetworkConfig{NumTags: 16, PayloadSeconds: 2e-3, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			ep, err := net.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			cfg := net.DecoderConfig()
			cfg.CalibSamples = 32768
			cases, eps, cfgs = append(cases, fmt.Sprintf("dense16/seed=%d", seed)), append(eps, ep), append(cfgs, cfg)
		}
		for i, name := range cases {
			t.Run(name, func(t *testing.T) {
				edges, sc := registrationEdges(t, eps[i], cfgs[i])
				sts, err := streams.Register(edges, sc, cfgs[i].PayloadBits)
				if err != nil {
					t.Fatal(err)
				}
				if len(sts) == 0 {
					t.Fatal("no streams registered")
				}
				for j, st := range sts {
					sibling := sts[(j+1)%len(sts)].E
					for _, gens := range [][]complex128{{st.E}, {st.E, sibling}} {
						for _, offset := range []float64{st.Offset, st.Offset + 7*st.Period} {
							for _, shadowed := range []bool{false, true} {
								streams.CheckAnchorScan(t, &tally, edges, offset, st.Period, gens, 0, shadowed, sc)
							}
						}
					}
				}
			})
		}
	})
	for r, name := range []string{"missPenalty=-2", "missPenalty=0"} {
		t.Logf("%s: %d scans (%d found a head), %d positions scored, %d cut",
			name, tally.Calls[r], tally.Found[r], tally.Scored[r], tally.Cut[r])
		if tally.Found[r] == 0 || tally.Cut[r] == 0 {
			t.Errorf("%s: the cut never fired or no head was ever found; the check is vacuous", name)
		}
	}
}

// registrationEdges runs the edge detector over an epoch's capture the
// way a decode does and returns the edges with the streams
// configuration the decoder derives from cfg.
func registrationEdges(t *testing.T, ep *lf.Epoch, cfg lf.DecoderConfig) ([]edgedetect.Edge, streams.Config) {
	t.Helper()
	det, err := edgedetect.NewStream(edgedetect.StreamConfig{Config: edgedetect.DefaultConfig(), CalibSamples: cfg.CalibSamples})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Push(ep.Capture.Samples); err != nil {
		t.Fatal(err)
	}
	if err := det.Close(); err != nil {
		t.Fatal(err)
	}
	sc := streams.DefaultConfig(cfg.SampleRate, cfg.Rates)
	sc.Registration = cfg.Registration
	if cfg.StartWindowSeconds > 0 {
		sc.MaxStart = int64(cfg.StartWindowSeconds * cfg.SampleRate)
	}
	return det.Edges(), sc
}
