// Package streams groups detected edges into per-tag streams (§3.2).
// Tags transmit periodically at a multiple of the network base rate,
// starting at a comparator-jittered offset after carrier-on, and open
// each frame with an all-ones preamble. Under toggle-on-1 modulation
// the preamble appears at the reader as PreambleLen edges of
// alternating polarity spaced exactly one bit period apart — a
// signature this package searches for at every candidate rate. Once a
// stream is registered, a drift-tracking walker visits its bit slots
// and associates (or fails to find) an edge at each.
package streams

import (
	"fmt"
	"math"
	"sort"

	"lf/internal/dsp"
	"lf/internal/edgedetect"
	"lf/internal/rng"
)

// Config tunes stream registration and slot walking.
type Config struct {
	// SampleRate of the capture, samples/s.
	SampleRate float64
	// Rates are the valid tag bit rates in bits/s (multiples of the
	// base rate). Registration searches them in descending order.
	Rates []float64
	// PreambleLen is the number of leading 1-bits per frame.
	PreambleLen int
	// MinPreambleEdges is the minimum number of preamble edges that
	// must match for registration (tolerates collided/missed preamble
	// edges). Must be ≥ 3 and ≤ PreambleLen.
	MinPreambleEdges int
	// PosTol is the base position tolerance in samples when matching
	// an edge to an expected slot.
	PosTol int64
	// VecTol is the relative tolerance when matching edge differential
	// vectors during preamble registration (fraction of |e|).
	VecTol float64
	// DriftPPM is the worst-case tag clock drift the walker budgets
	// for when widening its search window between locks.
	DriftPPM float64
	// MaxStart is the latest sample index at which a frame may begin
	// (the comparator jitter window). Candidate preamble starts beyond
	// it are ignored, which prevents runs of payload 1-bits from
	// masquerading as preambles.
	MaxStart int64
	// DriftGain is the EWMA gain for the walker's period tracking.
	DriftGain float64
	// Registration selects which registration passes run.
	Registration RegistrationMode
	// Seed drives registration-internal randomness (k-means restarts
	// in the eye pass's merged-peak analysis).
	Seed int64
}

// RegistrationMode selects the stream registration strategy.
type RegistrationMode int

const (
	// RegisterEyeOnly (default) uses eye-pattern folding (the paper's
	// detector): robust in dense deployments where preambles collide.
	RegisterEyeOnly RegistrationMode = iota
	// RegisterBoth runs the preamble matcher first, then the
	// eye-pattern pass over leftovers.
	RegisterBoth
	// RegisterPreambleOnly uses only the preamble matcher (the naive
	// baseline of the ablation study).
	RegisterPreambleOnly
)

// DefaultConfig returns settings matched to the default reader and tag
// models (25 Msps, 150 ppm crystals, ≤ ~0.5 ms comparator jitter).
func DefaultConfig(sampleRate float64, rates []float64) Config {
	return Config{
		SampleRate:       sampleRate,
		Rates:            rates,
		PreambleLen:      6,
		MinPreambleEdges: 5,
		PosTol:           9,
		VecTol:           0.5,
		DriftPPM:         300,
		MaxStart:         int64(0.25e-3 * sampleRate),
		DriftGain:        0.25,
		Seed:             1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SampleRate <= 0 {
		return fmt.Errorf("streams: non-positive sample rate %v", c.SampleRate)
	}
	if len(c.Rates) == 0 {
		return fmt.Errorf("streams: no candidate rates")
	}
	for _, r := range c.Rates {
		if r <= 0 {
			return fmt.Errorf("streams: non-positive rate %v", r)
		}
	}
	if c.PreambleLen < 3 {
		return fmt.Errorf("streams: preamble length %d too short", c.PreambleLen)
	}
	if c.MinPreambleEdges < 3 || c.MinPreambleEdges > c.PreambleLen {
		return fmt.Errorf("streams: MinPreambleEdges %d out of range", c.MinPreambleEdges)
	}
	return nil
}

// DelimiterSlots is the single 0-bit between preamble and payload (see
// the tag package's frame layout).
const DelimiterSlots = 1

// FrameSlots returns the total slot count of a frame with the given
// payload size.
func FrameSlots(cfg Config, payloadBits int) int {
	return cfg.PreambleLen + DelimiterSlots + payloadBits
}

// Stream is a registered per-tag transmission.
type Stream struct {
	// ID is the registration index (not the tag ID; the harness maps
	// decoded streams back to tags by offset/rate when scoring).
	ID int
	// Rate is the nominal bit rate matched, bits/s.
	Rate float64
	// Period is the refined bit period in samples (fractional).
	Period float64
	// Offset is the refined sample position of the first preamble
	// edge (the anchor; rising by construction).
	Offset float64
	// E is the rising-edge IQ vector estimated from the preamble.
	E complex128
	// PreambleEdges are indices (into the detector's edge slice) of
	// the preamble edges consumed at registration.
	PreambleEdges []int
	// Source records which registration path produced the stream.
	Source Source
}

// Source identifies a stream's registration path.
type Source int

// Registration sources.
const (
	SourcePreamble Source = iota
	SourceEye
	SourceSplit
)

func (s Source) String() string {
	switch s {
	case SourcePreamble:
		return "preamble"
	case SourceEye:
		return "eye"
	case SourceSplit:
		return "split"
	}
	return "?"
}

// Register finds streams among the detected edges. payloadBits maps a
// rate to the frame payload size so each accepted stream's own payload
// edges can be consumed (otherwise a run of payload 1-bits looks
// exactly like another preamble). Candidates are gathered across all
// rates, then accepted greedily in start-time order; acceptance
// consumes the preamble edges and every payload-grid edge matching the
// stream's ±e vector. Streams are returned ordered by offset.
func Register(edges []edgedetect.Edge, cfg Config, payloadBits func(rate float64) int) ([]*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rates := append([]float64(nil), cfg.Rates...)
	sort.Sort(sort.Reverse(sort.Float64Slice(rates)))
	used := make([]bool, len(edges))
	var streams []*Stream
	// Greedy time-ordered acceptance: earlier frames claim their edges
	// before later (possibly spurious) candidates are considered.
	for cfg.Registration != RegisterEyeOnly {
		var best *Stream
		for _, rate := range rates {
			period := cfg.SampleRate / rate
			for i := range edges {
				if used[i] || edges[i].Pos > cfg.MaxStart {
					continue
				}
				if !silentBefore(edges, used, i, period, cfg) {
					continue
				}
				// The first preamble edge may itself have collided;
				// also try interpreting this edge as preamble index 1.
				for _, startK := range []int{0, 1} {
					st := tryPreamble(edges, used, i, startK, period, cfg)
					if st == nil {
						continue
					}
					st.Rate = rate
					if best == nil || st.Offset < best.Offset {
						best = st
					}
					break
				}
			}
		}
		if best == nil {
			break
		}
		best.ID = len(streams)
		streams = append(streams, best)
		for _, ei := range best.PreambleEdges {
			used[ei] = true
		}
		consumePayloadEdges(edges, used, best, payloadBits(best.Rate), cfg)
	}
	// Second pass: eye-pattern registration for streams whose preambles
	// were too collided for the matcher (§3.2's folding detector).
	if cfg.Registration != RegisterPreambleOnly {
		src := rng.New(cfg.Seed)
		for _, rate := range rates {
			found := eyeRegister(edges, used, rate, cfg, payloadBits(rate), src)
			streams = append(streams, found...)
		}
	}
	streams = dedupe(streams, cfg)
	sort.Slice(streams, func(a, b int) bool { return streams[a].Offset < streams[b].Offset })
	for i := range streams {
		streams[i].ID = i
	}
	return streams, nil
}

// dedupe drops duplicate registrations of the same physical stream:
// same rate, nearly the same grid phase, and a matching (±) edge
// vector — and retires combo registrations whose vector is a (±) sum
// or difference of two other same-phase streams' vectors (the
// co-toggle cluster of a merged pair occasionally survives as its own
// phantom stream). Genuine merged-pair constituents share a phase but
// have distinct vectors, so they survive. Earlier registrations win.
func dedupe(sts []*Stream, cfg Config) []*Stream {
	samePhase := func(a, b *Stream) bool {
		if a.Rate != b.Rate {
			return false
		}
		period := cfg.SampleRate / a.Rate
		dph := math.Mod(math.Abs(a.Offset-b.Offset), period)
		if dph > period/2 {
			dph = period - dph
		}
		return dph <= float64(cfg.PosTol)+2
	}
	var out []*Stream
	for _, st := range sts {
		dup := false
		for _, prev := range out {
			if !samePhase(prev, st) {
				continue
			}
			scale := math.Max(dsp.Abs(prev.E), dsp.Abs(st.E))
			if dsp.Dist(prev.E, st.E) < 0.4*scale || dsp.Dist(prev.E, -st.E) < 0.4*scale {
				dup = true
				break
			}
			// Near-parallel with comparable magnitude: one physical
			// stream measured at two window qualities (or two tags the
			// IQ plane cannot tell apart regardless).
			cross := real(prev.E)*imag(st.E) - imag(prev.E)*real(st.E)
			ratio := dsp.Abs(prev.E) / math.Max(dsp.Abs(st.E), 1e-18)
			if ratio < 1 {
				ratio = 1 / ratio
			}
			if math.Abs(cross) < 0.2*dsp.Abs(prev.E)*dsp.Abs(st.E) && ratio < 2.2 {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, st)
		}
	}
	// Combo retirement pass: a stream can only be explained away by
	// *earlier* (higher-confidence) registrations, otherwise every
	// lattice member explains every other and all of them retire.
	var pure []*Stream
	for i, st := range out {
		combo := false
		for a := 0; a < i && !combo; a++ {
			if !samePhase(out[a], st) {
				continue
			}
			for b := a + 1; b < i; b++ {
				if !samePhase(out[b], st) {
					continue
				}
				for _, sum := range []complex128{out[a].E + out[b].E, out[a].E - out[b].E} {
					if dsp.Dist(st.E, sum) < 0.3*dsp.Abs(st.E) || dsp.Dist(st.E, -sum) < 0.3*dsp.Abs(st.E) {
						combo = true
						break
					}
				}
				if combo {
					break
				}
			}
		}
		if !combo {
			pure = append(pure, st)
		}
	}
	return pure
}

// silentBefore checks that no unused edge with a compatible vector sits
// on the candidate's slot grid in the few bit periods before its start
// — a real frame is preceded by silence from its own tag (the tag only
// starts toggling at carrier-on plus its comparator delay), whereas a
// run of payload 1-bits masquerading as a preamble usually has earlier
// same-grid, same-vector edges. Only grid-aligned positions are
// examined so that unrelated tags' edges (which can match the vector by
// chance in a dense deployment) cannot veto a legitimate candidate.
func silentBefore(edges []edgedetect.Edge, used []bool, start int, period float64, cfg Config) bool {
	e := edges[start].Diff
	vecTol := cfg.VecTol * dsp.Abs(e)
	for k := 1; k <= 3; k++ {
		expect := float64(edges[start].Pos) - float64(k)*period
		if expect < 0 {
			break
		}
		tol := float64(cfg.PosTol)
		if findEdge(edges, used, expect, tol, e, vecTol) >= 0 ||
			findEdge(edges, used, expect, tol, -e, vecTol) >= 0 {
			return false
		}
	}
	return true
}

// consumePayloadEdges marks as used every remaining edge that falls on
// the stream's payload slot grid, so payload 1-runs cannot later
// register as fresh preambles. Vector-matching edges anywhere in the
// slot window are consumed; non-matching edges are consumed only when
// they sit dead-centre on the grid (they are then either this stream's
// edges collided with another tag's, or — when the registered stream
// is itself a fully-merged pair — the solo edges of its constituents).
func consumePayloadEdges(edges []edgedetect.Edge, used []bool, st *Stream, numSlots int, cfg Config) {
	vecTol := cfg.VecTol * dsp.Abs(st.E)
	pos := st.Offset
	sinceLock := 1
	for k := 0; k < numSlots; k++ {
		// Drift allowance grows only since the last resync; an
		// unbounded window would swallow unrelated tags' edges.
		tol := float64(cfg.PosTol) + st.Period*float64(sinceLock)*cfg.DriftPPM/1e6
		idx := findEdge(edges, used, pos, tol, st.E, vecTol)
		if idx < 0 {
			idx = findEdge(edges, used, pos, tol, -st.E, vecTol)
		}
		if idx < 0 {
			// Tight window only: stray edges of unrelated streams must
			// stay available for their own registration.
			idx = findAnyEdge(edges, used, pos, float64(cfg.PosTol))
		}
		if idx >= 0 {
			used[idx] = true
			// Resync the grid to the found edge to track drift.
			pos = float64(edges[idx].Pos)
			sinceLock = 1
		} else {
			sinceLock++
		}
		pos += st.Period
	}
}

// findAnyEdge returns the closest unused edge within tol of expect
// regardless of vector, or -1.
func findAnyEdge(edges []edgedetect.Edge, used []bool, expect, tol float64) int {
	lo := sort.Search(len(edges), func(i int) bool {
		return float64(edges[i].Pos) >= expect-tol
	})
	best, bestDist := -1, math.Inf(1)
	for i := lo; i < len(edges) && float64(edges[i].Pos) <= expect+tol; i++ {
		if used[i] {
			continue
		}
		d := math.Abs(float64(edges[i].Pos) - expect)
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// tryPreamble tests whether a preamble at nominal period has its
// preamble edge number startK at edge index start (startK 0 is the
// anchor; startK 1 tolerates a collided first edge). On success it
// returns a refined stream; otherwise nil.
func tryPreamble(edges []edgedetect.Edge, used []bool, start, startK int, period float64, cfg Config) *Stream {
	e := edges[start].Diff
	if startK%2 == 1 {
		e = -e // odd preamble edges are falling ⇒ rising vector is the negation
	}
	scale := dsp.Abs(e)
	if scale == 0 {
		return nil
	}
	matched := []int{start}
	positions := []float64{float64(edges[start].Pos)}
	ks := []int{startK}
	missing := startK // edges before the start are unobserved
	for k := startK + 1; k < cfg.PreambleLen; k++ {
		expect := float64(edges[start].Pos) + float64(k-startK)*period
		tol := float64(cfg.PosTol) + expect*cfg.DriftPPM/1e6
		want := e
		if k%2 == 1 {
			want = -e
		}
		idx := findEdge(edges, used, expect, tol, want, cfg.VecTol*scale)
		if idx < 0 {
			missing++
			if cfg.PreambleLen-missing < cfg.MinPreambleEdges {
				return nil
			}
			continue
		}
		matched = append(matched, idx)
		positions = append(positions, float64(edges[idx].Pos))
		ks = append(ks, k)
	}
	if len(matched) < cfg.MinPreambleEdges {
		return nil
	}
	offset, refined := fitLine(ks, positions)
	// Guard against pathological fits (e.g. all matches at k=0).
	if refined <= 0 || math.Abs(refined-period) > period*0.01+float64(cfg.PosTol) {
		refined = period
	}
	// Rising-edge vector: average the matched differentials with
	// alternating sign.
	var sum complex128
	for j, idx := range matched {
		d := edges[idx].Diff
		if ks[j]%2 == 1 {
			d = -d
		}
		sum += d
	}
	eVec := sum / complex(float64(len(matched)), 0)
	return &Stream{Offset: offset, Period: refined, E: eVec, PreambleEdges: matched}
}

// findEdge returns the index of an unused edge within tol samples of
// expect whose differential is within vecTol of want, or -1. When
// multiple qualify the closest in position wins.
func findEdge(edges []edgedetect.Edge, used []bool, expect, tol float64, want complex128, vecTol float64) int {
	lo := sort.Search(len(edges), func(i int) bool {
		return float64(edges[i].Pos) >= expect-tol
	})
	best, bestDist := -1, math.Inf(1)
	for i := lo; i < len(edges) && float64(edges[i].Pos) <= expect+tol; i++ {
		if used[i] {
			continue
		}
		if dsp.Dist(edges[i].Diff, want) > vecTol {
			continue
		}
		d := math.Abs(float64(edges[i].Pos) - expect)
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// fitLine least-squares fits positions ≈ offset + k·period.
func fitLine(ks []int, positions []float64) (offset, period float64) {
	n := float64(len(ks))
	var sx, sy, sxx, sxy float64
	for i, k := range ks {
		x := float64(k)
		sx += x
		sy += positions[i]
		sxx += x * x
		sxy += x * positions[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return positions[0], 0
	}
	period = (n*sxy - sx*sy) / den
	offset = (sy - period*sx) / n
	return offset, period
}

// MatchKind classifies what the walker found at a slot.
type MatchKind int8

const (
	// MatchNone: no edge within the slot's search window.
	MatchNone MatchKind = iota
	// MatchClean: an edge whose differential matches ±e — confidently
	// this stream's own toggle. Only clean matches update the drift
	// tracker.
	MatchClean
	// MatchForeign: an edge sits in the slot window but its
	// differential matches neither +e nor −e. Either another tag's
	// edge strayed into the window, or this stream's edge collided
	// with another tag's (the merged differential is a ±-combination
	// that matches no single tag). The decoder's collision stage sorts
	// these out.
	MatchForeign
)

// SlotObs is the walker's observation at one bit slot.
type SlotObs struct {
	// Slot is the payload bit index (0 = first bit after preamble).
	Slot int
	// Pos is the sample position the observation was taken at (the
	// matched edge's position, or the expected slot position).
	Pos int64
	// EdgeIdx indexes the detector's edge slice, or -1 if no edge was
	// found at this slot.
	EdgeIdx int
	// Kind classifies the match.
	Kind MatchKind
	// Obs is the IQ differential observed at the slot.
	Obs complex128
}

// EdgeSource is what the slot walker needs from an edge detector: the
// position-ordered edge list found so far and soft IQ differential
// measurements at arbitrary positions. The incremental detector stream
// satisfies it: Edges() grows between walker steps (append-only, never
// reordered) and MeasureAt is valid for any position the caller has
// confirmed is inside the retained sample window.
type EdgeSource interface {
	Edges() []edgedetect.Edge
	MeasureAt(pos int64) complex128
}

// pickEdgeSpan is the slack pickEdge adds below its search window so
// coalesced edge groups spanning several samples still match by their
// [First, Last] interval.
const pickEdgeSpan = 16

// Walker visits a registered stream's bit slots one Step at a time,
// tracking clock drift exactly like the batch walk: whenever an edge
// locks cleanly to a slot it resynchronizes its phase and nudges its
// period estimate; slots without an edge get a soft differential
// measurement at the predicted position. The incremental decoder calls
// Step only once Horizon() falls inside the detector's finalized-edge
// prefix, which makes the walk independent of how the capture was
// blocked.
type Walker struct {
	st        *Stream
	cfg       Config
	numSlots  int
	obs       []SlotObs
	period    float64
	pos       float64
	sinceLock int
	vecTol    float64
	// Long-baseline period estimation: individual edge positions carry
	// a couple samples of localization noise, so the per-lock
	// innovation is only partially trusted (DriftGain), while the
	// slope from the first clean lock to the current one — whose noise
	// shrinks as 1/baseline — takes over once the baseline is long
	// enough to beat the registration fit.
	firstSlot int
	firstPos  float64
	k         int
}

// NewWalker starts a slot walk at the stream's anchor. Slot 0 is the
// first preamble edge; the decoder aligns the payload downstream using
// the delimiter bit.
func NewWalker(st *Stream, cfg Config, numSlots int) *Walker {
	return &Walker{
		st:        st,
		cfg:       cfg,
		numSlots:  numSlots,
		obs:       make([]SlotObs, 0, numSlots),
		period:    st.Period,
		pos:       st.Offset,
		sinceLock: 1,
		vecTol:    cfg.VecTol * dsp.Abs(st.E),
		firstSlot: -1,
	}
}

// Done reports whether every slot has been visited.
func (w *Walker) Done() bool { return w.k >= w.numSlots }

// Obs returns the observations collected so far (all of them once Done).
func (w *Walker) Obs() []SlotObs { return w.obs }

// tol is the current slot's position tolerance: the drift allowance
// grows with the number of slots since the last clean lock.
func (w *Walker) tol() float64 {
	return float64(w.cfg.PosTol) + w.period*float64(w.sinceLock)*w.cfg.DriftPPM/1e6
}

// Horizon returns the highest sample position the next Step may read an
// edge at. Once the detector's finalized-edge front passes this (and
// the sample window covers it), Step's outcome can no longer change.
func (w *Walker) Horizon() int64 {
	if w.Done() {
		return int64(math.Round(w.pos))
	}
	return int64(math.Round(w.pos)) + int64(math.Ceil(w.tol())) + pickEdgeSpan + 1
}

// MeasurePos returns the lowest sample position the walker may still
// need to measure, used by the incremental decoder to bound how far the
// detector's sample window can be trimmed.
func (w *Walker) MeasurePos() int64 { return int64(math.Round(w.pos)) }

// LowWater returns a sample position no future step of this walker can
// read below. The predicted position only ever moves forward (a resync
// shifts it by 0.6·err + period with |err| ≤ tol < period), so the
// current prediction minus the tolerance window — less one period of
// slack for the long-baseline refit — floors every future edge pick
// and soft measurement.
func (w *Walker) LowWater() int64 {
	return int64(w.pos-w.tol()-w.period) - pickEdgeSpan
}

// Step visits one slot.
func (w *Walker) Step(src EdgeSource) {
	if w.Done() {
		return
	}
	tol := w.tol()
	edges := src.Edges()
	idx, clean := pickEdge(edges, int64(math.Round(w.pos)), int64(math.Ceil(tol)), w.st.E, w.vecTol)
	o := SlotObs{Slot: w.k, EdgeIdx: idx}
	if idx >= 0 {
		edge := edges[idx]
		o.Pos = edge.Pos
		o.Obs = edge.Diff
		if clean {
			o.Kind = MatchClean
			// Resync phase and track period on clean locks only;
			// foreign edges would pull the tracker off frequency.
			err := float64(edge.Pos) - w.pos
			if w.firstSlot < 0 {
				w.firstSlot, w.firstPos = w.k, float64(edge.Pos)
				w.period += w.cfg.DriftGain * err / float64(w.sinceLock)
			} else if w.k-w.firstSlot >= 8 {
				w.period = (float64(edge.Pos) - w.firstPos) / float64(w.k-w.firstSlot)
			} else {
				w.period += w.cfg.DriftGain * err / float64(w.sinceLock)
			}
			// Partial phase correction: the edge position itself
			// is noisy, so blend it with the prediction.
			w.pos = w.pos + 0.6*err + w.period
			w.sinceLock = 1
		} else {
			o.Kind = MatchForeign
			w.pos += w.period
			w.sinceLock++
		}
	} else {
		o.Kind = MatchNone
		o.Pos = int64(math.Round(w.pos))
		o.Obs = src.MeasureAt(o.Pos)
		w.pos += w.period
		w.sinceLock++
	}
	w.obs = append(w.obs, o)
	w.k++
}

// Walk visits numSlots payload bit slots of the stream in one go — the
// batch form of the Walker, used when every edge is already final.
func Walk(st *Stream, src EdgeSource, cfg Config, numSlots int) []SlotObs {
	w := NewWalker(st, cfg, numSlots)
	for !w.Done() {
		w.Step(src)
	}
	return w.Obs()
}

// RegistrationHorizon returns the sample position by which every edge
// that stream registration can read — or consume — is known: the
// preamble matcher looks no further than MaxStart plus a preamble, the
// eye fold stops at its per-rate folding window, and accepting a stream
// consumes payload-grid edges across its whole frame (which can mask
// edges from a slower rate's fold). Once the detector's finalized-edge
// front passes this horizon, Register over the finalized prefix equals
// Register over the eventual full edge list, so the incremental decoder
// can register streams before end of capture.
func RegistrationHorizon(cfg Config, payloadBits func(rate float64) int) int64 {
	horizon := 0.0
	for _, rate := range cfg.Rates {
		period := cfg.SampleRate / rate
		slots := float64(FrameSlots(cfg, payloadBits(rate)) + 2)
		extent := float64(cfg.MaxStart) + slots*period*(1+cfg.DriftPPM/1e6)
		if extent > horizon {
			horizon = extent
		}
	}
	return int64(horizon) + cfg.PosTol + pickEdgeSpan + 64
}

// WalkHorizon returns the last sample position the commit stage can
// read for one registered stream: a frame of slots payload slots (plus
// the delimiter pair) walked from offset at period under worst-case
// drift, widened by the edge-pick tolerance and localization slack.
// It is the per-stream member of the provably-final cut family —
// RegistrationHorizon bounds registration globally, WalkHorizon bounds
// one stream's re-walk during commit.
func WalkHorizon(cfg Config, offset, period float64, slots int) int64 {
	drift := 1 + cfg.DriftPPM/1e6
	return int64(offset+float64(slots+2)*period*drift) + cfg.PosTol + 64
}

// pickEdge chooses an edge for a slot window: the closest edge whose
// differential matches ±e (clean), or — when none matches — the
// closest edge of any vector (foreign). Preferring the vector match
// keeps a stream locked to its own edges when another tag's edge has
// drifted into the window.
func pickEdge(edges []edgedetect.Edge, pos, maxDist int64, e complex128, vecTol float64) (idx int, clean bool) {
	// Coalesced groups can span several samples; match against the
	// group interval [First, Last], not just the centre.
	lo := sort.Search(len(edges), func(i int) bool { return edges[i].Pos >= pos-maxDist-pickEdgeSpan })
	bestClean, bestCleanDist := -1, maxDist+1
	bestAny, bestAnyDist := -1, maxDist+1
	for i := lo; i < len(edges) && edges[i].First <= pos+maxDist; i++ {
		var d int64
		switch {
		case pos < edges[i].First:
			d = edges[i].First - pos
		case pos > edges[i].Last:
			d = pos - edges[i].Last
		}
		if d > maxDist {
			continue
		}
		if d < bestAnyDist {
			bestAny, bestAnyDist = i, d
		}
		if dsp.Dist(edges[i].Diff, e) <= vecTol || dsp.Dist(edges[i].Diff, -e) <= vecTol {
			if d < bestCleanDist {
				bestClean, bestCleanDist = i, d
			}
		}
	}
	if bestClean >= 0 {
		return bestClean, true
	}
	return bestAny, false
}
