package experiment

import (
	"fmt"
	"reflect"

	"lf"
	"lf/internal/fault"
	"lf/internal/reader"
	"lf/internal/stats"
)

// robustTags is the network size for the robustness sweep: enough tags
// that collisions and SIC are exercised, small enough that the sweep
// over kinds × severities × epochs stays affordable.
const robustTags = 4

// Robustness sweeps the fault injectors across severities and measures
// how gracefully the decoder degrades: FER/BER versus impairment
// severity per fault kind, plus the Dropped bookkeeping the degraded
// path emits. Every point also decodes the impaired capture through
// the streaming path and requires the degraded Result to be identical
// to batch — graceful degradation must not break the streaming
// equivalence contract.
func Robustness(cfg Config) (*Result, error) {
	kinds := []fault.Kind{
		fault.BurstNoise, fault.Dropout, fault.SpuriousEdges, fault.NonFinite,
		fault.DCStep, fault.GainStep, fault.Repeat, fault.Truncate,
		fault.ClockDrift, fault.TagDeath,
	}
	severities := []float64{0, 0.25, 0.5, 0.75, 1}
	blocks := []int{streamBlock, 3331}
	if cfg.Quick {
		kinds = []fault.Kind{fault.BurstNoise, fault.Dropout, fault.SpuriousEdges, fault.NonFinite}
		severities = []float64{0, 0.5, 1}
		blocks = []int{streamBlock}
	}
	table := &stats.Table{
		Title: fmt.Sprintf("Robustness — graceful degradation under injected faults (%d tags, %d epochs/point)",
			robustTags, cfg.Epochs),
		Header: []string{"fault", "severity", "FER", "BER", "dropped", "stream==batch"},
	}
	var series []stats.Series
	for _, kind := range kinds {
		fer := stats.Series{Label: fmt.Sprintf("FER %s", kind)}
		ber := stats.Series{Label: fmt.Sprintf("BER %s", kind)}
		for _, sev := range severities {
			pt, err := robustnessPoint(cfg, kind, sev, blocks)
			if err != nil {
				return nil, fmt.Errorf("experiment: %s at severity %.2f: %w", kind, sev, err)
			}
			table.AddRow(string(kind), fmt.Sprintf("%.2f", sev),
				fmt.Sprintf("%.3f", pt.fer), fmt.Sprintf("%.2e", pt.ber),
				fmt.Sprint(pt.dropped), fmt.Sprint(pt.identical))
			fer.Add(sev, pt.fer)
			ber.Add(sev, pt.ber)
			if !pt.identical {
				return nil, fmt.Errorf("experiment: streaming decode diverged from batch under %s at severity %.2f", kind, sev)
			}
		}
		series = append(series, fer, ber)
	}
	return &Result{Table: table, Series: series}, nil
}

// robustnessPoint measures one (kind, severity) cell averaged over
// cfg.Epochs independently seeded epochs.
type robustPoint struct {
	fer, ber  float64
	dropped   int
	identical bool
}

func robustnessPoint(cfg Config, kind fault.Kind, sev float64, blocks []int) (robustPoint, error) {
	pt := robustPoint{identical: true}
	frames, frameErrs, bits, bitErrs := 0, 0, 0, 0
	for e := 0; e < cfg.Epochs; e++ {
		seed := cfg.Seed + int64(e)*131 + 7
		net, err := lf.NewNetwork(lf.NetworkConfig{
			NumTags:        robustTags,
			PayloadSeconds: 2e-3,
			Seed:           seed,
		})
		if err != nil {
			return pt, err
		}
		ep, err := net.RunEpoch()
		if err != nil {
			return pt, err
		}
		fc := fault.Config{
			Seed:      seed ^ 0x5EED,
			Injectors: []fault.Injector{{Kind: kind, Severity: sev}},
		}
		impaired, err := impairEpoch(net, ep, fc)
		if err != nil {
			return pt, err
		}

		dcfg := net.DecoderConfig()
		streamConfig(&dcfg)
		dec, err := lf.NewDecoder(dcfg)
		if err != nil {
			return pt, err
		}
		batch, err := dec.Decode(impaired)
		if err != nil {
			return pt, err
		}
		pt.dropped += len(batch.Dropped)

		// The degraded result must be block-size independent: replay
		// the impaired capture through the streaming path and compare.
		for _, block := range blocks {
			sd, err := dec.NewStream()
			if err != nil {
				return pt, err
			}
			if err := impaired.Blocks(block, sd.Push); err != nil {
				return pt, err
			}
			streamed, err := sd.Flush()
			if err != nil {
				return pt, err
			}
			if !reflect.DeepEqual(batch, streamed) {
				pt.identical = false
			}
		}

		score := lf.ScoreEpoch(impaired, batch)
		for _, ts := range score.PerTag {
			frames++
			if !ts.Registered || ts.BitErrors > 0 {
				frameErrs++
			}
			bits += ts.PayloadBits
			bitErrs += ts.BitErrors
		}
	}
	if frames > 0 {
		pt.fer = float64(frameErrs) / float64(frames)
	}
	if bits > 0 {
		pt.ber = float64(bitErrs) / float64(bits)
	}
	return pt, nil
}

// impairEpoch applies a fault configuration to a synthesized epoch.
// Tag-level injectors rewrite the emissions and re-synthesize the
// capture (the impairment exists before the ADC); capture-level
// injectors corrupt the recorded samples. The returned epoch keeps the
// original ground-truth bits so scoring measures what the faults cost.
func impairEpoch(net *lf.Network, ep *lf.Epoch, fc fault.Config) (*lf.Epoch, error) {
	capInjs, tagInjs := fault.SplitLevels(fc.Injectors)
	ems := ep.Emissions
	capture := ep.Capture
	if len(tagInjs) > 0 {
		faulted, err := fault.Config{Seed: fc.Seed, RefAmp: fc.RefAmp, Injectors: tagInjs}.ApplyEmissions(ems)
		if err != nil {
			return nil, err
		}
		re, err := reader.Synthesize(net.Channel(), faulted, ep.Config)
		if err != nil {
			return nil, err
		}
		ems, capture = faulted, re.Capture
	}
	if len(capInjs) > 0 {
		var err error
		capture, err = fault.Config{Seed: fc.Seed, RefAmp: fc.RefAmp, Injectors: capInjs}.ApplyCapture(capture)
		if err != nil {
			return nil, err
		}
	}
	return &lf.Epoch{Capture: capture, Emissions: ems, Config: ep.Config}, nil
}
