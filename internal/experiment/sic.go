package experiment

// Incremental SIC characterization (DESIGN.md §17). The paper's reader
// polls the network and then listens for a window long enough to cover
// every tag's slotted response; most of the capture is quiet carrier
// with frames staggered across response slots. That shape is where the
// dirty-span re-decode earns its keep — a cancellation round's
// subtraction touches only the slots that actually carried signal, so
// the residual pass sweeps a fraction of the listening window instead
// of all of it. The experiment here sweeps tag density and cancellation
// rounds over such slotted captures and reports, per cell, how much of
// the capture the rounds re-swept and what the incremental residual
// pass cost against the ForceFullResidual rebuild of the same decode
// (which is byte-identical by contract, and checked here on every
// cell). SICBenchEpoch pins one such capture for the benchmarks.

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"lf"
	"lf/internal/channel"
	"lf/internal/reader"
	"lf/internal/rng"
	"lf/internal/stats"
	"lf/internal/tag"
)

const (
	// sicSampleRate matches the paper's reader ADC.
	sicSampleRate = 25e6
	// sicPayloadBits keeps each response frame well under a slot.
	sicPayloadBits = 50
	// sicSlots is the occupied prefix of the response schedule; tag i
	// responds in slot i mod sicSlots, so populations past sicSlots
	// double up slots and collide deliberately.
	sicSlots = 6
	// sicScheduleSlots is the full response schedule the reader listens
	// across. The listening window is fixed by the schedule, not by
	// where tags happen to answer — a population that packs (and
	// collides) in the early slots leaves the tail quiet carrier, which
	// is precisely the regime the dirty-span re-decode targets: the
	// first pass must sweep the whole window, a cancellation round only
	// the slots that carried signal.
	sicScheduleSlots = 16
	// sicSlotPitch spaces the slots far enough apart that a frame
	// (≈0.6 ms at 100 kbps) plus the comparator fire-time spread stays
	// inside its slot.
	sicSlotPitch = 1.5e-3
	// sicFirstSlot delays the first response past the decoder's
	// calibration window (sicCalibSamples at sicSampleRate ≈ 1.3 ms),
	// the way a real reader's query precedes the response window.
	sicFirstSlot = 1.4e-3
	// sicCalibSamples bounds threshold calibration to the pre-response
	// quiet interval.
	sicCalibSamples = 32768
)

// sicWindow is the full listening window: query gap, the complete slot
// schedule, and a tail margin for late comparators and clock drift.
func sicWindow() float64 {
	return sicFirstSlot + sicScheduleSlots*sicSlotPitch + 0.6e-3
}

// sicSlotEpoch synthesizes one slotted-response epoch: tags tags at
// 100 kbps, tag i's emission shifted into response slot i mod sicSlots.
// The channel, comparator jitter, clock drift, and payloads come from
// the usual models; only the slot offset is added on top, so every
// other statistic matches the dense epochs the rest of the suite uses.
func sicSlotEpoch(seed int64, tags int) (*lf.Epoch, lf.DecoderConfig, error) {
	src := rng.New(seed)
	geoms := channel.PlaceRing(tags, 2, src.Split("placement"))
	ch := channel.NewModel(channel.DefaultParams(), geoms, src.Split("noise"))
	comp := tag.DefaultComparator()
	emissions := make([]*tag.Emission, tags)
	for i := 0; i < tags; i++ {
		tc := tag.Config{
			ID:         i,
			BitRate:    100e3,
			ClockPPM:   150,
			Comparator: comp,
			Payload:    src.Bits(sicPayloadBits),
		}
		em := tag.Emit(tc, src)
		shift := sicFirstSlot + float64(i%sicSlots)*sicSlotPitch
		em.Start += shift
		for j := range em.Toggles {
			em.Toggles[j].Time += shift
		}
		emissions[i] = em
	}
	ep, err := reader.Synthesize(ch, emissions, reader.EpochConfig{
		SampleRate:  sicSampleRate,
		Duration:    sicWindow(),
		EdgeSamples: 3,
	})
	if err != nil {
		return nil, lf.DecoderConfig{}, err
	}
	cfg := lf.DecoderConfig{
		SampleRate:   sicSampleRate,
		Rates:        []float64{100e3},
		PayloadBits:  func(float64) int { return sicPayloadBits },
		Stages:       lf.AllStages(),
		CalibSamples: sicCalibSamples,
		// Frames start throughout the occupied slots, not just in the
		// carrier-on jitter window.
		StartWindowSeconds: sicFirstSlot + sicSlots*sicSlotPitch,
		Seed:               seed + 1,
	}
	return ep, cfg, nil
}

// SICBenchEpoch is the fixed slotted capture the benchmarks decode
// (lfperf's slotted_replay, the root SIC benchmarks): 8 tags packed into the first six slots of
// the 16-slot schedule, so two slots carry deliberate 2-tag collisions
// and four carry clean singles, inside a ~26 ms listening window the
// frames occupy roughly a tenth of.
func SICBenchEpoch(seed int64) (*lf.Epoch, lf.DecoderConfig, error) {
	return sicSlotEpoch(seed, 8)
}

// sicDecode runs one batch decode and returns the result, its stats,
// and the wall time.
func sicDecode(ep *lf.Epoch, cfg lf.DecoderConfig) (*lf.Result, *lf.Stats, time.Duration, error) {
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	res, err := dec.Decode(ep)
	if err != nil {
		return nil, nil, 0, err
	}
	return res, dec.Stats(), time.Since(start), nil
}

// sicTimings is one cell's interleaved min-of-rounds measurement of
// the three decode variants the redecode fraction is built from.
type sicTimings struct {
	// Off is a decode with cancellation disabled (the first pass).
	Off time.Duration
	// Incremental and Full are decodes with the given rounds enabled,
	// in dirty-span and ForceFullResidual mechanics respectively.
	Incremental time.Duration
	Full        time.Duration
}

// RedecodeFraction is the incremental residual passes' marginal cost
// as a fraction of a full re-decode of the capture:
// (incremental − off) / off. Off — the decode with cancellation
// disabled — is exactly what re-running detection over the whole
// capture costs, so this is the O(dirty)-vs-O(capture) claim measured
// directly: the dirty-span rounds add a fraction of a from-scratch
// pass instead of a whole one. (Full is kept for the byte-identity
// check and reported alongside; it is not the denominator — the ForceFullResidual rebuild shares the detection
// mask, so inc/full would only measure the lane and buffer carry-over,
// not the dirty-span machinery.)
func (t sicTimings) RedecodeFraction() float64 {
	if t.Off <= 0 {
		return math.NaN()
	}
	inc := t.Incremental - t.Off
	if inc < 0 {
		inc = 0
	}
	return float64(inc) / float64(t.Off)
}

// measureSIC times the three variants interleaved (off, incremental,
// full, repeated passes times) and keeps each variant's minimum — the
// low-noise estimator for a deterministic workload; interleaving
// cancels thermal and frequency-scaling drift. It also verifies the
// incremental and full decodes are byte-identical, which is the §17
// contract the equivalence tests pin more broadly.
func measureSIC(ep *lf.Epoch, cfg lf.DecoderConfig, rounds, passes int) (sicTimings, *lf.Stats, error) {
	offCfg, incCfg, fullCfg := cfg, cfg, cfg
	offCfg.CancellationRounds = -1
	incCfg.CancellationRounds = rounds
	fullCfg.CancellationRounds = rounds
	fullCfg.ForceFullResidual = true

	incRes, incStats, _, err := sicDecode(ep, incCfg)
	if err != nil {
		return sicTimings{}, nil, err
	}
	fullRes, _, _, err := sicDecode(ep, fullCfg)
	if err != nil {
		return sicTimings{}, nil, err
	}
	if !reflect.DeepEqual(incRes, fullRes) {
		return sicTimings{}, nil, fmt.Errorf("experiment: incremental SIC decode diverged from ForceFullResidual at rounds=%d", rounds)
	}

	min := sicTimings{Off: math.MaxInt64, Incremental: math.MaxInt64, Full: math.MaxInt64}
	if passes < 1 {
		passes = 1
	}
	for p := 0; p < passes; p++ {
		if _, _, d, err := sicDecode(ep, offCfg); err != nil {
			return sicTimings{}, nil, err
		} else if d < min.Off {
			min.Off = d
		}
		if _, _, d, err := sicDecode(ep, incCfg); err != nil {
			return sicTimings{}, nil, err
		} else if d < min.Incremental {
			min.Incremental = d
		}
		if _, _, d, err := sicDecode(ep, fullCfg); err != nil {
			return sicTimings{}, nil, err
		} else if d < min.Full {
			min.Full = d
		}
	}
	return min, incStats, nil
}

// SIC sweeps tag density × cancellation rounds over slotted-response
// epochs and reports, per cell, the capture fraction the rounds marked
// dirty, the streams carried over instead of re-subtracted, the
// per-round residual-pass cost (stage.sic_ns), and the redecode
// fraction against the ForceFullResidual rebuild.
func SIC(cfg Config) (*Result, error) {
	populations := []int{2, 4, 8, 12}
	roundsSweep := []int{1, 2, 3}
	passes := 4
	if cfg.Quick {
		populations = []int{4, 8}
		roundsSweep = []int{1, 2}
		passes = 2
	}
	table := &stats.Table{
		Title: fmt.Sprintf("Incremental SIC — dirty-span re-decode vs full residual rebuild (%d slots, pitch %.1f ms, window %.1f ms)",
			sicSlots, sicSlotPitch*1e3, sicWindow()*1e3),
		Header: []string{"tags", "rounds", "recovered", "dirty %", "carried", "sic ms/round", "redecode frac"},
	}
	series := []stats.Series{{Label: "redecode fraction (1 round)"}, {Label: "dirty % (1 round)"}}
	for _, tags := range populations {
		ep, dcfg, err := sicSlotEpoch(cfg.Seed+int64(tags)*31, tags)
		if err != nil {
			return nil, err
		}
		dcfg.Parallelism = cfg.Workers
		captureLen := ep.Capture.Len()
		for _, rounds := range roundsSweep {
			t, snap, err := measureSIC(ep, dcfg, rounds, passes)
			if err != nil {
				return nil, err
			}
			ranRounds := snap.Counter("sic.rounds")
			dirtyPct := 0.0
			if ranRounds > 0 {
				dirtyPct = 100 * float64(snap.Counter("sic.dirty_samples")) /
					(float64(ranRounds) * float64(captureLen))
			}
			perRoundMS := 0.0
			if tm, ok := snap.Timings["stage.sic_ns"]; ok && tm.Count > 0 {
				perRoundMS = float64(tm.TotalNs) / float64(tm.Count) / 1e6
			}
			frac := t.RedecodeFraction()
			table.AddRow(
				fmt.Sprint(tags), fmt.Sprintf("%d/%d", ranRounds, rounds),
				fmt.Sprint(snap.Counter("sic.recovered")),
				fmt.Sprintf("%.1f", dirtyPct),
				fmt.Sprint(snap.Counter("sic.carried_streams")),
				fmt.Sprintf("%.2f", perRoundMS),
				fmt.Sprintf("%.2f", frac),
			)
			if rounds == 1 {
				series[0].Add(float64(tags), frac)
				series[1].Add(float64(tags), dirtyPct)
			}
		}
	}
	return &Result{Table: table, Series: series}, nil
}
