package streams_test

import (
	"fmt"
	"testing"

	"lf"
	"lf/internal/experiment"
	"lf/internal/streams"
)

// TestRegistrationGeometryExact pins registration's cursor lookups and
// screened distances to the sort.Search and exact-Dist references:
// equal return values on random point sets and edge lists built to hit
// ties, duplicates, signed zeros, NaN, magnitudes from 1e-150 to 1e150
// and tolerances set exactly on a distance, and on every registration
// region and slot-grid window of the slotted bench windows and 16-tag
// captures.
func TestRegistrationGeometryExact(t *testing.T) {
	var tally streams.GeometryTally
	t.Run("random", func(t *testing.T) {
		streams.CheckRandomGeometry(t, &tally, 1, 600)
	})
	t.Run("captures", func(t *testing.T) {
		for seed := int64(1); seed <= 2; seed++ {
			ep, cfg, err := experiment.SICBenchEpoch(seed)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("slotted/seed=%d", seed), func(t *testing.T) {
				edges, sc := registrationEdges(t, ep, cfg)
				streams.CheckCaptureGeometry(t, &tally, edges, sc, cfg.PayloadBits)
			})
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
			t.Run(fmt.Sprintf("dense16/seed=%d", seed), func(t *testing.T) {
				edges, sc := registrationEdges(t, ep, cfg)
				streams.CheckCaptureGeometry(t, &tally, edges, sc, cfg.PayloadBits)
			})
		}
	})
	t.Logf("%d regions, %d densestMode populations, %d lookups compared", tally.Regions, tally.Modes, tally.Lookups)
}
