// Package edgedetect implements reliable signal-edge extraction from
// the reader's IQ capture (§3.1). Amplitude-only edge detection is
// brittle when many tags chatter in the background, so edges are
// detected on the IQ *differential* ΔS(t) = S(t⁺) − S(t⁻): subtracting
// the received vector after and before a candidate edge cancels the
// contribution of every tag that did not toggle there.
package edgedetect

import "fmt"

// Config tunes the detector.
type Config struct {
	// Gap is the number of samples skipped on each side of a candidate
	// edge before averaging starts; it should cover the edge
	// transition itself (the reader's ~3-sample ramp).
	Gap int64
	// Win is the number of samples averaged on each side for the
	// initial detection sweep. Kept small so that neighbouring tags'
	// edges rarely fall inside the window; the refinement pass then
	// widens windows adaptively up to the actual neighbouring edges,
	// which is the paper's "use the points between the previous edge
	// and the current edge" averaging.
	Win int64
	// MaxWin caps the refinement window width.
	MaxWin int64
	// ThresholdFactor scales the noise floor (median differential
	// magnitude) into the peak detection threshold.
	ThresholdFactor float64
	// MinSpacing is the non-maximum-suppression radius in samples;
	// edges closer than this merge into one (collided) edge.
	MinSpacing int64
	// CoalesceDist groups detected peaks closer than this many samples
	// into a single collided edge whose differential is measured with
	// windows outside the whole group. Peaks nearer than ~2·Gap+Win
	// cannot be measured independently anyway — each one's averaging
	// window overlaps the other's transition ramp, biasing both
	// differentials — so treating them as one collision (and letting
	// the IQ lattice machinery separate the contributions) is both
	// cleaner and faithful to the paper's collision model.
	CoalesceDist int64
	// DenseSweep has no effect.
	//
	// Deprecated: the dense sweep is the only sweep. The field remains
	// only while the benchmark's edgedetect.dense_sweep_rt row sets it,
	// and goes together with that row.
	DenseSweep bool
}

// DefaultConfig returns detector settings matched to the default reader
// (25 Msps, 3-sample edges).
func DefaultConfig() Config {
	return Config{
		Gap:             2,
		Win:             3,
		MaxWin:          32,
		ThresholdFactor: 4.0,
		MinSpacing:      5,
		CoalesceDist:    10,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Gap < 1 || c.Win < 1 || c.MaxWin < c.Win || c.MinSpacing < 1 {
		return fmt.Errorf("edgedetect: invalid config %+v", c)
	}
	if c.ThresholdFactor <= 1 {
		return fmt.Errorf("edgedetect: threshold factor %v must exceed 1", c.ThresholdFactor)
	}
	return nil
}

// Edge is one detected signal edge (possibly a coalesced group of
// transitions too close to measure independently).
type Edge struct {
	// Pos is the sample index of the edge centre (strength-weighted
	// over the group when coalesced).
	Pos int64
	// Diff is the refined IQ differential across the edge. For a
	// single tag toggling, Diff ≈ ±h (the tag's channel coefficient);
	// for k colliding tags it is a ±-combination of their
	// coefficients.
	Diff complex128
	// Strength is |Diff|.
	Strength float64
	// First and Last bound the underlying peak group; Last−First is 0
	// for a lone transition.
	First, Last int64
	// Peaks is the number of underlying detector peaks (≥2 suggests a
	// collision even before IQ analysis).
	Peaks int
}
