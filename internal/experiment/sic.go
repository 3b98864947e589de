package experiment

// Slotted-response captures for the incremental SIC benchmarks
// (DESIGN.md §17). The paper's reader polls the network and then
// listens for a window long enough to cover every tag's slotted
// response; most of the capture is quiet carrier with frames staggered
// across response slots. That shape is where the dirty-span re-decode
// earns its keep — a cancellation round's subtraction touches only the
// slots that actually carried signal, so the residual pass sweeps a
// fraction of the listening window instead of all of it.
// SICBenchEpoch pins one such capture; lfperf's slotted_replay workload
// reports its SIC cost (decoder.sic_ms and decoder.sic_dirty_frac).

import (
	"lf"
	"lf/internal/channel"
	"lf/internal/reader"
	"lf/internal/rng"
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
