// Package reader models the reader front end of the system: the carrier
// epoch controller and the ADC capture synthesis. The reader transmits
// a continuous carrier, chops time into epochs by dropping and
// restarting it (§3.2), and records complex baseband at a sampling rate
// several orders of magnitude above the tag bit rates (25 Msps against
// ≤100 kbps in the paper) — the asymmetry the whole protocol leans on.
package reader

import (
	"fmt"
	"math"

	"lf/internal/channel"
	"lf/internal/iq"
	"lf/internal/pool"
	"lf/internal/tag"
)

// EpochConfig describes one carrier epoch.
type EpochConfig struct {
	// SampleRate of the reader ADC in samples/s (25e6 in the paper).
	SampleRate float64
	// Duration of the epoch in seconds.
	Duration float64
	// EdgeSamples is the width of an antenna state transition in ADC
	// samples (≈3 at 25 Msps per §2.4); transitions ramp linearly.
	EdgeSamples int
}

// Validate checks the epoch configuration.
func (c EpochConfig) Validate() error {
	if c.SampleRate <= 0 {
		return fmt.Errorf("reader: non-positive sample rate %v", c.SampleRate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("reader: non-positive duration %v", c.Duration)
	}
	if c.EdgeSamples < 1 {
		return fmt.Errorf("reader: edge width %d < 1 sample", c.EdgeSamples)
	}
	return nil
}

// NumSamples returns the capture length for the epoch.
func (c EpochConfig) NumSamples() int {
	return int(math.Round(c.SampleRate * c.Duration))
}

// Epoch bundles a synthesized capture with its ground truth, for
// scoring decodes.
type Epoch struct {
	Capture   *iq.Capture
	Emissions []*tag.Emission
	Config    EpochConfig
}

// Blocks replays the epoch's capture through push in blockSize-sample
// blocks, in order — the adapter between a synthesized epoch and a
// streaming decode, mirroring how an SDR front end would hand the
// decoder its DMA buffers. It stops at the first push error.
func (e *Epoch) Blocks(blockSize int, push func([]complex128) error) error {
	if blockSize <= 0 {
		return fmt.Errorf("reader: non-positive block size %d", blockSize)
	}
	samples := e.Capture.Samples
	for lo := 0; lo < len(samples); lo += blockSize {
		hi := lo + blockSize
		if hi > len(samples) {
			hi = len(samples)
		}
		if err := push(samples[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// Synthesize renders the received baseband for one epoch:
//
//	S(t) = Env + Σⱼ hⱼ·sⱼ(t) + n(t)
//
// with each antenna toggle shaped as a linear ramp EdgeSamples wide.
// The synthesis is O(samples + toggles·EdgeSamples) via a difference
// array, so long captures with many concurrent tags stay cheap.
func Synthesize(ch *channel.Model, emissions []*tag.Emission, cfg EpochConfig) (*Epoch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.NumSamples()
	// diff[i] accumulates the per-sample increments of the noiseless
	// signal; the signal is its running sum plus the environment. It is
	// pure scratch, recycled through the shared pool (the samples array
	// escapes into the returned capture and cannot be).
	diff := pool.Complex(n + cfg.EdgeSamples + 1)
	defer pool.PutComplex(diff)
	for _, em := range emissions {
		if em.TagID < 0 || em.TagID >= len(ch.Coeffs) {
			return nil, fmt.Errorf("reader: emission for tag %d but channel has %d coefficients", em.TagID, len(ch.Coeffs))
		}
		h := ch.Coeffs[em.TagID]
		prev := byte(0)
		for _, tg := range em.Toggles {
			idx := int(math.Round(tg.Time * cfg.SampleRate))
			if idx >= n {
				break
			}
			delta := h // rising: add h
			if tg.State == prev {
				continue
			}
			if tg.State == 0 {
				delta = -h // falling: remove h
			}
			prev = tg.State
			if idx < 0 {
				// Toggle before capture start: apply instantly at 0.
				diff[0] += delta
				continue
			}
			step := delta / complex(float64(cfg.EdgeSamples), 0)
			for k := 0; k < cfg.EdgeSamples; k++ {
				diff[idx+k] += step
			}
		}
	}
	samples := make([]complex128, n)
	var acc complex128
	env := ch.Params.EnvReflection
	for i := 0; i < n; i++ {
		acc += diff[i]
		samples[i] = env + acc + ch.Noise()
	}
	cap := &iq.Capture{SampleRate: cfg.SampleRate, Samples: samples}
	return &Epoch{Capture: cap, Emissions: emissions, Config: cfg}, nil
}

// OracleEdgeIndices returns the ground-truth edge sample positions of
// an emission under the epoch's sample rate — used by tests and the
// decoder ablations that bypass edge detection.
func OracleEdgeIndices(em *tag.Emission, cfg EpochConfig) []int64 {
	out := make([]int64, 0, len(em.Toggles))
	for _, tg := range em.Toggles {
		out = append(out, int64(math.Round(tg.Time*cfg.SampleRate)))
	}
	return out
}
