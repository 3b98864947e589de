package decoder

import (
	"errors"
	"math"
	"sort"

	"lf/internal/dsp"
	"lf/internal/edgedetect"
	"lf/internal/iq"
	"lf/internal/obs"
	"lf/internal/pool"
	"lf/internal/streams"
	"lf/internal/viterbi"
)

// Successive interference cancellation (SIC). A tag that failed to
// register — because its preamble collided, or its phase sat inside a
// dense multi-tag chain — is invisible to the first decode pass, yet
// its signal is still in the capture. Reconstructing every decoded
// stream's waveform from its decoded edge states and subtracting it
// from the raw samples leaves a residual in which the missed tags
// stand nearly alone, so a second pass of the ordinary pipeline picks
// them up. This is an engineering extension beyond the paper (which
// cites SIC/ZigZag as related work); it is ablatable via
// Config.CancellationRounds.
//
// The rounds re-decode only what they change (DESIGN.md §17). Each
// round reconstructs the streams trusted since the previous round;
// their non-zero extents, widened and closed over the decoded streams
// they collide with (dirtyClosure), are the round's detection mask,
// and the mask padded by the walker/window reach (laneRegions) is all
// the residual pass can read. So the round rebuilds its residual over
// those regions only — the retained capture minus every trusted
// reconstruction so far, in results order — and hands the detector a
// masked capture (edgedetect.MaskedCapture) that folds its prefix sums
// over each region from its own zero base: every lane read is a
// within-region difference, so the per-region base cancels. The pass
// carries the first pass's calibration — the noise floor is a channel
// property; subtracting decoded signal does not change it. A round
// with no new trusted stream is skipped outright: its residual would
// be byte-unchanged, so the re-decode could only return streams that
// deduplicate against themselves.

// refineE re-estimates a stream's edge vector from its cleanly locked
// slots: the registration estimate comes from a handful of early
// edges, while the clean locks average over the whole frame — a
// noticeably better subtraction vector.
func refineE(sr *StreamResult) complex128 {
	reg := sr.Stream.E
	var sum complex128
	count := 0
	for k, slot := range sr.Slots {
		if slot.Kind != streams.MatchClean || k >= len(sr.States) {
			continue
		}
		switch sr.States[k] {
		case viterbi.Up:
			sum += slot.Obs
			count++
		case viterbi.Down:
			sum -= slot.Obs
			count++
		}
	}
	if count < 8 {
		return reg
	}
	return sum / complex(float64(count), 0)
}

// reconSeg is one run of a reconstructed waveform: the per-sample
// values dense[0:hi-lo] over [lo, hi) when dense is non-nil, else the
// constant val. A stream's reconstruction is a position-sorted,
// non-overlapping cover of [0, n).
type reconSeg struct {
	lo, hi int
	val    complex128
	dense  []complex128
}

// reconstruct renders one decoded stream's baseband contribution — a
// ±E step at every decoded edge slot, ramped over rampSamples — as a
// run-length segment list instead of a dense n-sample buffer.
//
// The reference semantics are the former dense form: an n-sample
// difference array receiving each slot's ramp steps in slot order,
// then a running prefix accumulation out[i] = Σ diff[0..i]. Between
// ramp regions diff[i] is exactly +0.0 (the zeroed buffer only ever
// accumulated values into ramp positions, and x + (+0.0) == x bitwise
// for every float64 including ±0 and NaN), so the accumulator is
// bitwise constant there — a run-length representation loses nothing.
// Inside ramp regions the same accumulation runs densely, with each
// position's ramp contributions added in slot order exactly as the
// dense loop did. The result is O(slots) space and time instead of
// O(capture), and bit-identical sample for sample.
func reconstruct(sr *StreamResult, n int, rampSamples int) []reconSeg {
	e := refineE(sr)
	type event struct {
		idx  int
		step complex128
	}
	var events []event
	for k, st := range sr.States {
		if k >= len(sr.Slots) {
			break
		}
		var delta complex128
		switch st {
		case viterbi.Up:
			delta = e
		case viterbi.Down:
			delta = -e
		default:
			continue
		}
		// Centre the ramp on the slot position, as the synthesizer and
		// detector do.
		idx := sr.Slots[k].Pos - int64(rampSamples/2)
		if idx < 0 {
			idx = 0
		}
		if idx >= int64(n) {
			continue
		}
		events = append(events, event{int(idx), delta / complex(float64(rampSamples), 0)})
	}

	// Merge the ramp intervals [idx, idx+ramp) ∩ [0, n) into a sorted
	// disjoint cover of the "active" positions; everything outside is a
	// constant run.
	type span struct{ lo, hi int }
	spans := make([]span, len(events))
	for i, ev := range events {
		hi := ev.idx + rampSamples
		if hi > n {
			hi = n
		}
		spans[i] = span{ev.idx, hi}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	merged := spans[:0]
	for _, sp := range spans {
		if sp.lo >= sp.hi {
			continue
		}
		if m := len(merged); m > 0 && sp.lo <= merged[m-1].hi {
			if sp.hi > merged[m-1].hi {
				merged[m-1].hi = sp.hi
			}
			continue
		}
		merged = append(merged, sp)
	}

	// One scratch buffer holds every active interval's diff values;
	// offsets[i] is interval i's slice start. Ramp steps are added in
	// slot (event) order, so a position covered by overlapping ramps
	// accumulates them in exactly the dense loop's order.
	total := 0
	offsets := make([]int, len(merged))
	for i, sp := range merged {
		offsets[i] = total
		total += sp.hi - sp.lo
	}
	diff := make([]complex128, total)
	for _, ev := range events {
		si := sort.Search(len(merged), func(i int) bool { return merged[i].hi > ev.idx })
		sp := merged[si]
		base := offsets[si] + ev.idx - sp.lo
		hi := ev.idx + rampSamples
		if hi > sp.hi {
			// The event's ramp runs past this interval only when clipped
			// at the capture end; positions ≥ n are never read.
			hi = sp.hi
		}
		for r := 0; r < hi-ev.idx; r++ {
			diff[base+r] += ev.step
		}
	}

	// Prefix accumulation over the active intervals; the gaps between
	// them carry the accumulator value unchanged.
	segs := make([]reconSeg, 0, 2*len(merged)+1)
	var acc complex128
	pos := 0
	for i, sp := range merged {
		if sp.lo > pos {
			segs = append(segs, reconSeg{lo: pos, hi: sp.lo, val: acc})
		}
		dense := diff[offsets[i] : offsets[i]+sp.hi-sp.lo]
		for j := range dense {
			acc += dense[j]
			dense[j] = acc
		}
		segs = append(segs, reconSeg{lo: sp.lo, hi: sp.hi, dense: dense})
		pos = sp.hi
	}
	if pos < n {
		segs = append(segs, reconSeg{lo: pos, hi: n, val: acc})
	}
	return segs
}

// sicTrust is the quality score a decoded stream needs before its
// reconstruction is subtracted into the residual: a mixture or
// mistracked stream would inject its errors instead of removing
// signal.
const sicTrust = 0.45

// sicState is what one SIC epoch's rounds share besides the trusted
// reconstructions: the latched push-path decision (residualDecode).
type sicState struct {
	pushPath bool // a masked fold met an inadmissible sample
}

// runCancellation drives the SIC rounds at flush. Each round selects
// the trusted streams decoded since the previous round, reconstructs
// them, re-decodes the residual left by every trusted stream so far,
// and keeps any genuinely new streams (deduplicated against the
// existing set, and required to carry at least a real edge's worth of
// signal — the residue of an imperfectly cancelled stream otherwise
// re-registers as a phantom; the gate derives from the original
// capture's noise floor).
func (sd *StreamDecoder) runCancellation() {
	n := len(sd.retain)
	if n == 0 {
		return
	}
	cfg := sd.cfg
	minE := 3 * sd.det.NoiseFloor()
	// Carry the first pass's calibration into every residual pass: the
	// noise floor is a property of the channel and receiver chain, and
	// subtraction removes signal, not noise — recalibrating on the
	// residual would only bias the floor low (the calibration window's
	// signal content is gone) and let cancellation residue register as
	// phantom peaks. A degenerate first pass (zero floor or threshold)
	// keeps the historical recalibrate-on-residual semantics.
	var calib *edgedetect.CalibPreset
	if f, th := sd.det.NoiseFloor(), sd.det.Threshold(); f > 0 && th > 0 &&
		!math.IsInf(f, 1) && !math.IsInf(th, 1) {
		calib = &edgedetect.CalibPreset{Floor: f, Threshold: th}
	}
	reach := edgedetect.SweepReach(cfg.Edge.Gap, cfg.Edge.Win)
	ramp := int(cfg.Edge.Gap)
	if ramp < 1 {
		ramp = 3
	}
	var st sicState
	// contribs holds every trusted stream's reconstruction so far, in
	// results order; seen is how many results have been scanned for
	// trusted candidates.
	var contribs [][]reconSeg
	seen := 0
	for round := 0; round < cfg.CancellationRounds; round++ {
		var newTrusted []*StreamResult
		for _, sr := range sd.results[seen:] {
			if quality(sr) >= sicTrust {
				newTrusted = append(newTrusted, sr)
			}
		}
		seen = len(sd.results)
		if len(newTrusted) == 0 && minE > 0 {
			// Empty dirty-span set: nothing new would be subtracted, so
			// the residual is byte-unchanged and the (deterministic)
			// re-decode could only return the previous round's streams —
			// each already deduplicates against itself in results (a
			// stream past the minE gate has |E| ≥ minE > 0, so zero
			// grid-phase distance and Dist(E,E) = 0 < 0.5·|E| make it
			// its own duplicate). Skipping the decode is provably
			// output-identical. (minE = 0 — a degenerate zero-floor
			// capture — breaks the self-dedup argument, so it keeps the
			// historical re-decode.)
			break
		}
		// Reconstruct the new streams; their non-zero extents are the
		// samples whose residual this round changes.
		fresh := make([][]reconSeg, len(newTrusted))
		for i, sr := range newTrusted {
			fresh[i] = reconstruct(sr, n, ramp)
		}
		// The detection mask for this round's residual pass: the touched
		// spans widened by the sweep's cut distance, closed over the
		// extents of already-decoded streams they interact with.
		active := sd.dirtyClosure(touchedRanges(fresh), reach, n)
		dirty := int64(n)
		if active != nil {
			dirty = 0
			for _, r := range active {
				dirty += r.Len()
			}
		}
		sd.m.SIC.Rounds.Inc()
		sd.m.SIC.ResidualDecodes.Inc()
		sd.m.SIC.CarriedStreams.Add(int64(len(contribs)))
		sd.m.SIC.DirtySamples.Add(dirty)
		contribs = append(contribs, fresh...)
		res2, err := sd.residualDecode(&st, contribs, active, calib)
		var found []*StreamResult
		if err == nil {
			found = res2.Streams
		}
		var kept []*StreamResult
		for _, nr := range found {
			if dsp.Abs(nr.Stream.E) < minE {
				continue // cancellation residue, not a tag
			}
			if isDuplicateStream(nr, sd.results, cfg) {
				continue
			}
			nr.Recovered = true
			kept = append(kept, nr)
		}
		if sd.tracer != nil {
			sd.tracer.Trace(obs.SpanEvent{Stage: "sic", Stream: -1,
				Pos: sd.det.Front(), N: int64(len(kept))})
		}
		if len(kept) == 0 {
			break
		}
		sd.m.SIC.Recovered.Add(int64(len(kept)))
		sd.results = append(sd.results, kept...)
		sd.res.RecoveredStreams += len(kept)
	}
}

// laneReach returns how far outside a detection-mask span the residual
// pass can read the prefix-sum lanes. Every windowed read — the sweep's
// differentials, the walker's MeasureAt/MeasureAtClean, group
// refinement — extends at most Gap+MaxWin past the position it probes.
// Positions probed outside the mask itself come from slot walking: a
// stream can only register where its edges are (inside the mask), its
// anchor can sit at most a preamble's worth of slots below its first
// detected edge, and the walk runs at most a full frame — overhead,
// payload, and commit slack slots at the slowest rate, under worst-case
// clock drift — past its anchor.
func (sd *StreamDecoder) laneReach() (left, right int64) {
	winPad := sd.cfg.Edge.Gap + sd.cfg.Edge.MaxWin + 1
	var maxPeriod float64
	maxBits := 0
	for _, rate := range sd.cfg.Streams.Rates {
		if p := sd.cfg.Streams.SampleRate / rate; p > maxPeriod {
			maxPeriod = p
		}
		if b := sd.cfg.PayloadBits(rate); b > maxBits {
			maxBits = b
		}
	}
	drift := 1 + sd.cfg.Streams.DriftPPM*1e-6
	head := float64(sd.cfg.Streams.PreambleLen+2) * maxPeriod * drift
	frame := float64(sd.cfg.Streams.PreambleLen+1+maxBits+12) * maxPeriod * drift
	left = winPad + int64(head) + 2*sd.cfg.Streams.PosTol + 64
	right = winPad + int64(frame) + 2*sd.cfg.Streams.PosTol + 64
	return left, right
}

// laneRegions is the set of lane index ranges the residual decode can
// read under the given detection mask: each mask span padded by the
// walker/window reach on both sides, clamped and merged. A nil mask
// (sweep everything) folds the whole capture.
func (sd *StreamDecoder) laneRegions(active []edgedetect.Span, n int) []edgedetect.Span {
	if active == nil {
		return []edgedetect.Span{{Lo: 0, Hi: int64(n)}}
	}
	left, right := sd.laneReach()
	regions := make([]edgedetect.Span, 0, len(active))
	for _, r := range active {
		lo, hi := r.Lo-left, r.Hi+right
		if lo < 0 {
			lo = 0
		}
		if hi > int64(n) {
			hi = int64(n)
		}
		if lo < hi {
			regions = append(regions, edgedetect.Span{Lo: lo, Hi: hi})
		}
	}
	return mergeRanges(regions)
}

// residualDecode runs one inner pipeline pass over the residual left
// by every trusted reconstruction in contribs. The pass decodes a
// masked capture: the residual is rebuilt into one pooled buffer over
// the lane regions only (fillResidual), detection runs under the
// round's mask, and prefix sums fold over those regions. It fills and
// pushes the whole residual instead when there is no calibration to
// carry (a masked detector cannot take its own calibration median),
// and from the first masked fold that meets an inadmissible sample on:
// the push path owns hold-last-finite replacement, and latching it for
// the rest of the epoch keeps a round's decode from depending on
// whether its mask happens to contain the bad sample. Metering or
// tracing the pass would double-count every stage, so recovered
// streams surface only through the SIC counters; its wall time is
// recorded against stage.sic_ns (runtime-class).
func (sd *StreamDecoder) residualDecode(st *sicState, contribs [][]reconSeg, active []edgedetect.Span, calib *edgedetect.CalibPreset) (*Result, error) {
	n := len(sd.retain)
	residual := pool.ComplexUninit(n)
	// The residual pass copies everything it keeps (slot observations,
	// edge differentials, stream vectors), so the buffer can go back to
	// the pool as soon as the decode returns.
	defer pool.PutComplex(residual)
	resCap := &iq.Capture{SampleRate: sd.sampleRate, Samples: residual}
	sub := sd.cfg
	sub.CancellationRounds = 0
	sub.Metrics = nil
	sub.Tracer = nil
	sub.OnFrame = nil
	sub.sicCalib = calib
	ts := sd.now()
	defer sd.observe(sd.m.Stage.SIC, ts)
	if calib != nil && !st.pushPath {
		regions := sd.laneRegions(active, n)
		fillResidual(residual, sd.retain, contribs, regions)
		sub.sicMasked = &edgedetect.MaskedCapture{Samples: residual, Active: active, Regions: regions}
		res, err := Decode(resCap, sub)
		if !errors.Is(err, edgedetect.ErrInadmissible) {
			return res, err
		}
		st.pushPath = true
		sub.sicMasked = nil
	}
	fillResidual(residual, sd.retain, contribs, []edgedetect.Span{{Lo: 0, Hi: int64(n)}})
	return Decode(resCap, sub)
}

// fillResidual writes retain minus every contribution, subtracted in
// contribution order, into dst over each span; dst outside the spans
// is left as it was. Every sample sees the same subtraction sequence
// whatever the spans, so a region-local fill is bitwise equal, inside
// its regions, to a fill of the whole capture.
func fillResidual(dst, retain []complex128, contribs [][]reconSeg, spans []edgedetect.Span) {
	for _, r := range spans {
		copy(dst[r.Lo:r.Hi], retain[r.Lo:r.Hi])
		subtractSegs(dst, contribs, int(r.Lo), int(r.Hi))
	}
}

// subtractSegs subtracts every contribution's segments overlapping
// [lo, hi) from the residual, in contribution order: each sample sees
// the exact same subtraction sequence as the serial stream-major loop,
// so the residual is bit-identical at any range tiling. A constant
// segment whose value is exactly (+0, +0) is skipped: x - (+0.0) == x
// bitwise for every float64 (including ±0; NaN payloads are
// irrelevant downstream, which only tests IsNaN), and most of a
// capture lies in such segments — the pre-preamble and post-frame
// stretches of every reconstruction.
func subtractSegs(residual []complex128, contribs [][]reconSeg, lo, hi int) {
	for _, segs := range contribs {
		si := sort.Search(len(segs), func(i int) bool { return segs[i].hi > lo })
		for ; si < len(segs) && segs[si].lo < hi; si++ {
			seg := segs[si]
			clo, chi := seg.lo, seg.hi
			if clo < lo {
				clo = lo
			}
			if chi > hi {
				chi = hi
			}
			if seg.dense != nil {
				d := seg.dense[clo-seg.lo:]
				for i := clo; i < chi; i++ {
					residual[i] -= d[i-clo]
				}
				continue
			}
			v := seg.val
			if real(v) == 0 && imag(v) == 0 &&
				!math.Signbit(real(v)) && !math.Signbit(imag(v)) {
				continue
			}
			for i := clo; i < chi; i++ {
				residual[i] -= v
			}
		}
	}
}

// touchedRanges merges the exact extents of every non-zero
// reconstruction segment — the samples this round's subtraction
// modifies — into a sorted disjoint edgedetect.Span tiling. Constant
// (+0, +0) segments leave the residual bitwise unchanged and are
// excluded, exactly mirroring subtractSegs's skip. A segment that
// overlaps or touches the last collected span is joined into it, which
// leaves the union — and so the maximal-interval cover mergeRanges
// returns — unchanged. A reconstruction is a position-sorted cover of
// [0, n), so this one linear pass leaves one span per run of adjacent
// non-zero segments, and mergeRanges sorts those instead of one span
// per ramp.
func touchedRanges(contribs [][]reconSeg) []edgedetect.Span {
	var spans []edgedetect.Span
	for _, segs := range contribs {
		for _, seg := range segs {
			if seg.dense == nil && real(seg.val) == 0 && imag(seg.val) == 0 &&
				!math.Signbit(real(seg.val)) && !math.Signbit(imag(seg.val)) {
				continue
			}
			lo, hi := int64(seg.lo), int64(seg.hi)
			if m := len(spans) - 1; m >= 0 && lo <= spans[m].Hi && hi >= spans[m].Lo {
				spans[m] = edgedetect.Span{Lo: min(lo, spans[m].Lo), Hi: max(hi, spans[m].Hi)}
				continue
			}
			spans = append(spans, edgedetect.Span{Lo: lo, Hi: hi})
		}
	}
	return mergeRanges(spans)
}

// mergeRanges sorts spans by Lo and merges overlapping or adjacent
// ones into a disjoint cover.
func mergeRanges(spans []edgedetect.Span) []edgedetect.Span {
	if len(spans) == 0 {
		return nil
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Lo < spans[j].Lo })
	merged := spans[:0]
	for _, sp := range spans {
		if sp.Lo >= sp.Hi {
			continue
		}
		if m := len(merged); m > 0 && sp.Lo <= merged[m-1].Hi {
			if sp.Hi > merged[m-1].Hi {
				merged[m-1].Hi = sp.Hi
			}
			continue
		}
		merged = append(merged, sp)
	}
	return merged
}

// dirtyClosure is the residual pass's detection mask: the touched
// spans widened by the sweep's cut distance (edgedetect.SweepReach —
// beyond it every windowed differential reads byte-identical input,
// DESIGN.md §17), then closed over the widened extents of decoded
// streams they overlap. A stream straddling a dirty span must stay
// fully visible to the residual pass — masking half of it would
// re-register the visible half as a phantom partial — and its extent
// can in turn overlap further streams, so the union iterates to a
// fixpoint (collision chains). Returns nil (sweep everything) when
// there are no touched spans.
func (sd *StreamDecoder) dirtyClosure(touched []edgedetect.Span, reach int64, n int) []edgedetect.Span {
	active := widenRanges(touched, reach, n)
	if len(active) == 0 {
		return nil
	}
	exts := make([]edgedetect.Span, 0, len(sd.results))
	for _, sr := range sd.results {
		if len(sr.Slots) == 0 {
			continue
		}
		lo, hi := sr.Slots[0].Pos-reach, sr.Slots[len(sr.Slots)-1].Pos+1+reach
		if lo < 0 {
			lo = 0
		}
		if hi > int64(n) {
			hi = int64(n)
		}
		if lo < hi {
			exts = append(exts, edgedetect.Span{Lo: lo, Hi: hi})
		}
	}
	for changed := true; changed; {
		changed = false
		kept := exts[:0]
		for _, e := range exts {
			if overlapsRanges(active, e) {
				active = mergeRanges(append(active, e))
				changed = true
			} else {
				kept = append(kept, e)
			}
		}
		exts = kept
	}
	return active
}

// widenRanges pads each span by pad samples, clamps to [0, n), and
// merges the result into a sorted disjoint cover.
func widenRanges(spans []edgedetect.Span, pad int64, n int) []edgedetect.Span {
	widened := make([]edgedetect.Span, 0, len(spans))
	for _, r := range spans {
		lo, hi := r.Lo-pad, r.Hi+pad
		if lo < 0 {
			lo = 0
		}
		if hi > int64(n) {
			hi = int64(n)
		}
		if lo < hi {
			widened = append(widened, edgedetect.Span{Lo: lo, Hi: hi})
		}
	}
	return mergeRanges(widened)
}

// overlapsRanges reports whether e intersects any of rs.
func overlapsRanges(rs []edgedetect.Span, e edgedetect.Span) bool {
	for _, r := range rs {
		if r.Lo < e.Hi && e.Lo < r.Hi {
			return true
		}
	}
	return false
}

// isDuplicateStream reports whether a residual-pass stream re-detects
// an already decoded one: same rate, grid phase within a collision
// window, and a matching (±) vector.
func isDuplicateStream(nr *StreamResult, existing []*StreamResult, cfg Config) bool {
	period := cfg.Streams.SampleRate / nr.Stream.Rate
	for _, sr := range existing {
		if sr.Stream.Rate != nr.Stream.Rate {
			continue
		}
		dph := math.Mod(math.Abs(sr.Stream.Offset-nr.Stream.Offset), period)
		if dph > period/2 {
			dph = period - dph
		}
		if dph > float64(cfg.Edge.CoalesceDist) {
			continue
		}
		scale := math.Max(dsp.Abs(sr.Stream.E), dsp.Abs(nr.Stream.E))
		if dsp.Dist(sr.Stream.E, nr.Stream.E) < 0.5*scale ||
			dsp.Dist(sr.Stream.E, -nr.Stream.E) < 0.5*scale {
			return true
		}
	}
	return false
}

// quality scores a decoded stream for SIC reliability: the fraction of
// clean walker locks among slots that decoded as edges. Mixture
// decodes (wrong vector, wrong grid) lock rarely and score low.
func quality(sr *StreamResult) float64 {
	edges, locks := 0, 0
	for k, st := range sr.States {
		if st != viterbi.Up && st != viterbi.Down {
			continue
		}
		edges++
		if k < len(sr.Slots) && sr.Slots[k].Kind == streams.MatchClean {
			locks++
		}
	}
	if edges == 0 {
		return 0
	}
	return float64(locks) / float64(edges)
}
