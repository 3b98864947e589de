// Package decoder orchestrates the full LF-Backscatter reader pipeline
// of §3: edge detection on IQ differentials, preamble-based stream
// registration, drift-tracked slot walking, IQ cluster-based collision
// detection and separation, and Viterbi error correction. Every stage
// is individually toggleable so the Fig. 9 ablation (Edge / Edge+IQ /
// Edge+IQ+Error) runs through the same code.
package decoder

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"slices"

	"lf/internal/cluster"
	"lf/internal/collide"
	"lf/internal/edgedetect"
	"lf/internal/epc"
	"lf/internal/iq"
	"lf/internal/obs"
	"lf/internal/rng"
	"lf/internal/streams"
	"lf/internal/viterbi"
)

// SeparationMode selects how two-tag collisions are separated.
type SeparationMode int

const (
	// SeparationHybrid (default): blind nine-cluster parallelogram
	// separation when a colliding pair recurs often enough to populate
	// the lattice, anchored classification otherwise.
	SeparationHybrid SeparationMode = iota
	// SeparationAnchored always classifies against the preamble-derived
	// edge vectors.
	SeparationAnchored
	// SeparationBlind always attempts the paper's blind parallelogram;
	// pairs with too few observations stay unresolved.
	SeparationBlind
)

// Stages toggles pipeline stages for the Fig. 9 breakdown. Edge-based
// concurrency is always on — it is the substrate the rest builds on.
type Stages struct {
	// IQSeparation enables collision detection and separation in the
	// IQ plane (§3.3–3.4).
	IQSeparation bool
	// ErrorCorrection enables the Viterbi decoder (§3.5); without it
	// slots are hard-decided independently.
	ErrorCorrection bool
}

// AllStages enables the full pipeline.
func AllStages() Stages { return Stages{IQSeparation: true, ErrorCorrection: true} }

// Config configures the decoder.
type Config struct {
	// Edge configures edge detection.
	Edge edgedetect.Config
	// Streams configures registration and slot walking.
	Streams streams.Config
	// PayloadBits returns the frame payload length (in bits) for a
	// stream at the given rate. The harness knows frame sizes; a
	// deployed system would carry a length field.
	PayloadBits func(rate float64) int
	// Stages toggles pipeline stages.
	Stages Stages
	// Separation selects the collision separation strategy.
	Separation SeparationMode
	// MinBlindPoints is the minimum number of recurring collision
	// observations required before blind separation is attempted.
	MinBlindPoints int
	// CancellationRounds enables successive interference cancellation:
	// after each decode pass, decoded streams are subtracted from the
	// capture and the pipeline re-runs on the residual to recover tags
	// whose registration the interference masked. 0 disables.
	CancellationRounds int
	// Seed drives the decoder's internal randomness (k-means restarts).
	Seed int64
	// CalibSamples bounds the edge detector's noise calibration to the
	// first CalibSamples differential magnitudes, which is what lets
	// the streaming decoder start detecting — and bound its memory —
	// before end of capture. 0 calibrates over the whole capture at
	// Flush (the historical batch semantics), deferring all detection
	// to end of capture. Batch Decode honours the same knob, so batch
	// and streaming stay bit-identical at any setting.
	CalibSamples int64
	// ViterbiWindow is the sliding trellis window of the sequence
	// decoder: survivor paths commit as they merge and are truncated at
	// this depth, bounding per-stream decoder state. 0 selects
	// viterbi.DefaultWindow. Merge commits are exact, so results match
	// the unwindowed recursion for any realistic capture.
	ViterbiWindow int
	// OnFrame, when non-nil, is invoked once per decoded stream as soon
	// as its frame commits — before end of capture on the streaming
	// path — in the same order the frames appear in Result.Streams.
	// Callbacks run on the pushing goroutine; the *StreamResult is the
	// same object later returned in the Result.
	OnFrame func(*StreamResult)
	// Metrics, when non-nil, receives per-stage pipeline counters,
	// histograms, and timings (see obs.Pipeline for the determinism
	// contract). nil decodes record nothing and pay one predictable
	// branch per record site. SIC residual passes always run with nil
	// Metrics so a recovered stream's internal re-decode never double
	// counts.
	Metrics *obs.Pipeline
	// Tracer, when non-nil, receives structured span events —
	// calibrate, register, commit, per-frame, sic, flush — emitted on
	// the pushing goroutine at deterministic points, mirroring OnFrame.
	// The event sequence is identical at any block size. SIC residual
	// passes run untraced.
	Tracer obs.Tracer

	// testStreamHook, when non-nil, runs against each stream result
	// just before sequence decoding — the seam the quarantine tests use
	// to poison a single stream's decode.
	testStreamHook func(*StreamResult)

	// sicCalib, when non-nil, presets the edge detector's noise
	// calibration — SIC residual passes carry the first pass's
	// floor/threshold instead of recalibrating on the signal-subtracted
	// residual (sic.go, DESIGN.md §17). Internal: set only by the
	// cancellation loop on its sub-decode configs.
	sicCalib *edgedetect.CalibPreset
	// sicMasked, when non-nil, decodes the residual under the round's
	// detection mask, folding its prefix sums over the mask's padded
	// regions only instead of pushing the whole capture. Internal:
	// requires sicCalib; set only by the cancellation loop.
	sicMasked *edgedetect.MaskedCapture
}

// metrics returns the configured pipeline or the shared disabled one,
// so record sites never nil-check the Config field.
func (cfg *Config) metrics() *obs.Pipeline {
	if cfg.Metrics != nil {
		return cfg.Metrics
	}
	return obs.Nop()
}

// DefaultConfig assembles a full-pipeline decoder for captures at the
// given sample rate, tag rate set, and fixed payload size.
func DefaultConfig(sampleRate float64, rates []float64, payloadBits int) Config {
	return Config{
		Edge:               edgedetect.DefaultConfig(),
		Streams:            streams.DefaultConfig(sampleRate, rates),
		PayloadBits:        func(float64) int { return payloadBits },
		Stages:             AllStages(),
		Separation:         SeparationHybrid,
		MinBlindPoints:     24,
		CancellationRounds: 3,
		Seed:               1,
	}
}

// StreamResult is the decode of one registered stream.
type StreamResult struct {
	// Stream is the registered stream (rate, offset, anchor vector).
	Stream *streams.Stream
	// Slots are the walker observations, post collision cancellation.
	Slots []streams.SlotObs
	// States is the decoded edge-state sequence.
	States []viterbi.State
	// Bits is the decoded payload.
	Bits []byte
	// CollidedSlots counts slots that went through collision
	// separation.
	CollidedSlots int
	// PayloadStart is the slot index of the first payload bit inside
	// Slots/States (after the delimiter located by frame alignment).
	PayloadStart int
	// BlindSeparated reports whether any of this stream's collisions
	// were resolved with the blind parallelogram method.
	BlindSeparated bool
	// Recovered reports that the stream was found on a cancellation
	// residual rather than in the first pass.
	Recovered bool
	// PathMargin is the Viterbi survivor-score margin (best minus
	// runner-up end-state log-likelihood, normalised per slot). 0 when
	// error correction is off.
	PathMargin float64
	// CRCOK reports whether Bits ends in a valid EPC CRC-16 — only
	// meaningful when the tag appends one (see epc.CRC16Bits).
	CRCOK bool
	// Confidence scores the frame in [0, 1]: the fraction of cleanly
	// locked edge slots, attenuated by how decisively the Viterbi
	// trellis preferred this sequence. CRC-less deployments can gate on
	// it instead of a checksum; CRC-framed ones (internal/reliable) use
	// it to rank retransmission candidates.
	Confidence float64
}

// Result is a full-capture decode.
type Result struct {
	// Streams holds one entry per registered stream, ordered by start
	// offset.
	Streams []*StreamResult
	// EdgeCount is the number of edges the detector extracted.
	EdgeCount int
	// NoiseFloor is the detector's background differential magnitude.
	NoiseFloor float64
	// Collisions2 and Collisions3 count two-way and ≥three-way
	// collision groups resolved.
	Collisions2, Collisions3 int
	// MergedSplits counts fully merged registrations that were split
	// into two streams.
	MergedSplits int
	// RecoveredStreams counts streams found on cancellation residuals.
	RecoveredStreams int
	// Dropped records graceful-degradation events — non-finite sample
	// spans, quarantined streams, truncated frames — in deterministic
	// order (capture-level spans first, then per-stream drops by stream
	// ID). Empty on a clean decode.
	Dropped []Dropped
}

// Decode runs the pipeline over one epoch's capture. It is a thin
// wrapper over StreamDecoder — the capture is pushed as a single block
// and flushed — so batch and streaming decode are one pipeline and
// bit-identical by construction.
//
// The whole decode runs on the calling goroutine; concurrent Decode
// calls share nothing but pooled scratch. Decoder-internal randomness
// is split into one labelled source per stream (and one for collision
// resolution) in a fixed order, so the decode is a pure function of
// the capture and the configuration.
func Decode(capture *iq.Capture, cfg Config) (*Result, error) {
	if cfg.PayloadBits == nil {
		return nil, errAt(StageInput, -1, fmt.Errorf("decoder: PayloadBits is required"))
	}
	// Deliberately lighter than capture.Validate: non-finite samples
	// are degraded per-window by the edge detector (recorded in
	// Result.Dropped), identically on the batch and streaming paths,
	// instead of rejecting the capture outright.
	if capture.SampleRate <= 0 {
		return nil, errAt(StageInput, -1, fmt.Errorf("decoder: non-positive sample rate %v", capture.SampleRate))
	}
	if len(capture.Samples) == 0 {
		return nil, errAt(StageInput, -1, fmt.Errorf("decoder: capture has no samples"))
	}
	sd, err := NewStreamDecoder(capture.SampleRate, cfg)
	if err != nil {
		return nil, err
	}
	// SIC can subtract directly from the caller's capture; no retained
	// copy needed on the batch path.
	sd.retain = capture.Samples
	sd.retainExt = true
	// A masked decode (SIC residual pass) folded the residual's prefix
	// sums at construction; there is nothing to push — Flush closes the
	// detector and drives detection end to end.
	if cfg.sicMasked != nil {
		return sd.Flush()
	}
	if err := sd.Push(capture.Samples); err != nil {
		return nil, err
	}
	return sd.Flush()
}

// decodeStates runs the sequence-decoding stage for one stream:
// Viterbi (or the ablation fallbacks) over the slot observations, then
// payload alignment. It touches only sr, so calls for distinct streams
// are safe to run concurrently.
func decodeStates(sr *StreamResult, cfg Config, sigma2 float64) {
	emissions := make([]viterbi.Emission, len(sr.Slots))
	for k, slot := range sr.Slots {
		s2 := sigma2
		if slot.Kind == streams.MatchForeign {
			// Residual interference after cancellation (or none at
			// all if the collision was unresolvable): down-weight.
			s2 *= 4
		}
		emissions[k] = viterbi.Emission{Obs: slot.Obs, E: sr.Stream.E, Sigma2: s2}
	}
	switch {
	case !cfg.Stages.IQSeparation:
		// Edge-only ablation: bit 1 wherever an edge matched.
		sr.States = edgeOnlyStates(sr.Slots)
	case cfg.Stages.ErrorCorrection:
		// Slot 0 is (near) the anchor; the antenna is detuned
		// before the frame, so the implicit previous edge is a
		// falling one. The windowed recursion bounds survivor-path
		// state at cfg.ViterbiWindow (0 = viterbi.DefaultWindow).
		vm := cfg.metrics().Viterbi
		var margin float64
		sr.States, margin = viterbi.NewDecoder(0.5, viterbi.Down).
			DecodeWindowedMarginObs(emissions, cfg.ViterbiWindow, viterbi.Metrics{
				Slots:         vm.Slots,
				MergeCommits:  vm.MergeCommits,
				ForcedCommits: vm.ForcedCommits,
			})
		if n := len(emissions); n > 0 {
			margin /= float64(n)
		}
		if margin > 1e9 || math.IsInf(margin, 1) {
			margin = 1e9 // single live survivor path
		}
		sr.PathMargin = margin
	default:
		sr.States = viterbi.HardDecode(emissions)
	}
	frameBits := viterbi.Bits(sr.States)
	sr.PayloadStart = alignPayload(frameBits, cfg.Streams.PreambleLen)
	sr.Bits = clampSlice(frameBits, sr.PayloadStart, cfg.PayloadBits(sr.Stream.Rate))
	sr.CRCOK = len(sr.Bits) > 16 && epc.CheckCRC16(sr.Bits)
	sr.Confidence = quality(sr)
	if cfg.Stages.ErrorCorrection {
		sr.Confidence *= 1 - math.Exp(-sr.PathMargin)
	}
}

// alignSlack is the number of extra slots walked past the nominal
// frame end, to cover anchor misestimation of a few slots.
const alignSlack = 4

// alignPayload locates the payload start inside a decoded frame: the
// frame opens with a run of preamble 1s terminated by the 0 delimiter,
// so the payload starts right after the longest 1-run in the frame
// head. Falls back to the nominal position when the decoded preamble
// is too corrupted to find.
func alignPayload(frameBits []byte, preambleLen int) int {
	limit := preambleLen + alignSlack + 1
	if limit > len(frameBits) {
		limit = len(frameBits)
	}
	run, bestRun, bestEnd := 0, 0, -1
	for i := 0; i < limit; i++ {
		if frameBits[i] == 1 {
			run++
			if run > bestRun {
				bestRun, bestEnd = run, i
			}
			continue
		}
		run = 0
	}
	if bestRun >= 3 {
		// bestEnd is the last 1 of the preamble; +1 is the delimiter.
		return bestEnd + 2
	}
	return preambleLen + 1
}

func clampSlice(bits []byte, start, n int) []byte {
	if start >= len(bits) {
		return nil
	}
	end := start + n
	if end > len(bits) {
		end = len(bits)
	}
	return bits[start:end]
}

// edgeOnlyStates implements the "Edge" ablation: any matched edge is a
// 1 bit; polarity bookkeeping follows blindly.
func edgeOnlyStates(slots []streams.SlotObs) []viterbi.State {
	states := make([]viterbi.State, len(slots))
	level := byte(0)
	for i, s := range slots {
		if s.Kind != streams.MatchNone {
			if level == 0 {
				states[i] = viterbi.Up
				level = 1
			} else {
				states[i] = viterbi.Down
				level = 0
			}
		} else {
			if level == 1 {
				states[i] = viterbi.HoldAfterUp
			} else {
				states[i] = viterbi.HoldAfterDown
			}
		}
	}
	return states
}

// obsNoiseVariance converts the detector's median differential
// magnitude (the noise floor) to the complex variance of a slot
// observation: |d| under pure noise is Rayleigh, whose median is
// σ·√(ln 4)/√2 ≈ 0.8326·σ.
func obsNoiseVariance(floor float64) float64 {
	s := floor / 0.8326
	v := s * s
	if v <= 0 {
		v = 1e-18
	}
	return v
}

// claim locates one stream slot that references an edge.
type claim struct {
	stream, slot int
}

// edgeClaim is one slot→edge reference.
type edgeClaim struct {
	edge int
	claim
}

// edgeClaims collects every slot→edge reference into one flat list
// ordered by (edge, stream, slot): runs of equal edge index are that
// edge's claimant set, already in stream order. A single ordered slice
// replaces a map of per-edge lists on this per-slot hot path. Claims
// are visited in (stream, slot) order, so a stable counting sort on the
// edge index yields exactly that order; its buckets span the claimed
// edge range [lo, hi] of the committed window, not the absolute edge
// index, which grows with the capture.
func edgeClaims(results []*StreamResult) []edgeClaim {
	n, lo, hi := 0, math.MaxInt, -1
	for _, sr := range results {
		for _, slot := range sr.Slots {
			if e := slot.EdgeIdx; e >= 0 {
				n++
				lo, hi = min(lo, e), max(hi, e)
			}
		}
	}
	if n == 0 {
		return nil
	}
	// next[e-lo] is where edge e's next claim goes: the number of
	// claims on lower edges, then advanced as they are placed.
	next := make([]int, hi-lo+2)
	for _, sr := range results {
		for _, slot := range sr.Slots {
			if e := slot.EdgeIdx; e >= 0 {
				next[e-lo+1]++
			}
		}
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	all := make([]edgeClaim, n)
	for si, sr := range results {
		for ki, slot := range sr.Slots {
			if e := slot.EdgeIdx; e >= 0 {
				all[next[e-lo]] = edgeClaim{e, claim{si, ki}}
				next[e-lo]++
			}
		}
	}
	return all
}

// resolveCollisions finds edges referenced by two or more streams'
// slots, groups the recurring observations per colliding stream set,
// separates them (blind or anchored), and rewrites each participant's
// slot observation with the other tags' contributions cancelled.
func resolveCollisions(results []*StreamResult, cfg Config, src *rng.Source, res *Result) {
	all := edgeClaims(results)
	// Group collision observations by the set of streams involved so a
	// recurring pair accumulates lattice points.
	type group struct {
		streams []int   // stream indices, ascending
		edges   []int   // edge indices (one per recurrence)
		cls     []claim // all claims, in edge order
	}
	groups := make(map[string]*group)
	var keyBuf []byte // reused per edge; map lookups on string(keyBuf) do not allocate
	for lo := 0; lo < len(all); {
		hi := lo + 1
		for hi < len(all) && all[hi].edge == all[lo].edge {
			hi++
		}
		cl := all[lo:hi]
		lo = hi
		if len(cl) < 2 {
			continue
		}
		keyBuf = keyBuf[:0]
		for _, c := range cl {
			keyBuf = binary.BigEndian.AppendUint32(keyBuf, uint32(c.stream))
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			ss := make([]int, len(cl))
			for i, c := range cl {
				ss[i] = c.stream
			}
			g = &group{streams: ss}
			groups[string(keyBuf)] = g
		}
		g.edges = append(g.edges, cl[0].edge)
		for _, c := range cl {
			g.cls = append(g.cls, c.claim)
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	// One warm-start cache across the (serial, sorted) group loop:
	// recurring collision pairs present near-identical lattice
	// populations, so each separation seeds the next.
	warm := &cluster.Warm{}
	cm := cfg.metrics().Collide
	for _, k := range keys {
		g := groups[k]
		switch {
		case len(g.streams) == 2:
			res.Collisions2++
			cm.GroupsPair.Inc()
			separatePair(results, g.streams[0], g.streams[1], g.cls, cfg, src, warm)
		default:
			res.Collisions3++
			cm.GroupsJoint.Inc()
			separateJoint(results, g.cls, cm)
		}
	}
}

// separatePair resolves a recurring two-stream collision. cls holds
// the claims of both streams in matching order (pairs share the same
// underlying edge).
func separatePair(results []*StreamResult, sa, sb int, cls []claim, cfg Config, src *rng.Source, warm *cluster.Warm) {
	a, b := results[sa], results[sb]
	// Collect one observation per collided edge (claims come in pairs
	// referencing the same edge; slot Obs is the edge differential,
	// identical for both claimants).
	type pairSlot struct{ ka, kb int }
	byEdge := make(map[int64][2]int, len(cls)/2) // edge pos -> {slotA, slotB}
	for _, c := range cls {
		sr := results[c.stream]
		pos := sr.Slots[c.slot].Pos
		e := byEdge[pos]
		if c.stream == sa {
			e[0] = c.slot + 1 // +1 so zero means unset
		} else {
			e[1] = c.slot + 1
		}
		byEdge[pos] = e
	}
	positions := make([]int64, 0, len(byEdge))
	for pos := range byEdge {
		positions = append(positions, pos)
	}
	slices.Sort(positions)
	pairs := make([]pairSlot, 0, len(positions))
	points := make([]complex128, 0, len(positions))
	for _, pos := range positions {
		e := byEdge[pos]
		if e[0] == 0 || e[1] == 0 {
			continue
		}
		ka, kb := e[0]-1, e[1]-1
		pairs = append(pairs, pairSlot{ka, kb})
		points = append(points, a.Slots[ka].Obs)
	}
	// Disposition counters fire exactly once per pair group: blind,
	// anchored, or unresolved (no shared observations, or blind-only
	// mode with degenerate geometry).
	cm := cfg.metrics().Collide
	if len(points) == 0 {
		cm.PairUnresolved.Inc()
		return
	}
	eA, eB := a.Stream.E, b.Stream.E
	useBlind := cfg.Separation != SeparationAnchored && len(points) >= cfg.MinBlindPoints
	var sep *collide.Separation
	if useBlind {
		s, err := collide.SeparateBlindWarmObs(points, src, warm, collide.Metrics{
			BlindAttempts:   cm.BlindAttempts,
			BlindDegenerate: cm.BlindDegenerate,
		})
		if err == nil {
			// Align the blind vectors with the preamble anchors so
			// states are attributed to the right physical stream with
			// the right sign.
			e1, e2 := s.E1, s.E2
			if !collide.MatchVectors(e1, e2, eA, eB) {
				e1, e2 = e2, e1
				for i := range s.States {
					s.States[i][0], s.States[i][1] = s.States[i][1], s.States[i][0]
				}
			}
			if real(e1*cmplx.Conj(eA)) < 0 {
				e1 = -e1
				for i := range s.States {
					s.States[i][0] = -s.States[i][0]
				}
			}
			if real(e2*cmplx.Conj(eB)) < 0 {
				e2 = -e2
				for i := range s.States {
					s.States[i][1] = -s.States[i][1]
				}
			}
			s.E1, s.E2 = e1, e2
			sep = s
			a.BlindSeparated, b.BlindSeparated = true, true
			cm.PairBlind.Inc()
		}
	}
	if sep == nil {
		if cfg.Separation == SeparationBlind {
			cm.PairUnresolved.Inc()
			return // leave unresolved, as the pure-blind mode demands
		}
		sep = collide.SeparateAnchored(points, eA, eB)
		cm.PairAnchored.Inc()
	}
	cm.CancelledSlots.Add(int64(2 * len(pairs)))
	for i, ps := range pairs {
		st := sep.States[i]
		d := points[i]
		// Cancel the other stream's separated contribution and hand
		// each stream a soft residual observation.
		a.Slots[ps.ka].Obs = d - complex(float64(st[1]), 0)*sep.E2
		b.Slots[ps.kb].Obs = d - complex(float64(st[0]), 0)*sep.E1
		a.CollidedSlots++
		b.CollidedSlots++
	}
}

// separateJoint resolves ≥3-way collisions by joint nearest-lattice
// classification over all claimants' anchor vectors.
func separateJoint(results []*StreamResult, cls []claim, cm obs.CollideMetrics) {
	byEdge := make(map[int64][]claim)
	for _, c := range cls {
		pos := results[c.stream].Slots[c.slot].Pos
		byEdge[pos] = append(byEdge[pos], c)
	}
	positions := make([]int64, 0, len(byEdge))
	for pos := range byEdge {
		positions = append(positions, pos)
	}
	slices.Sort(positions)
	for _, pos := range positions {
		group := byEdge[pos]
		if len(group) < 2 {
			continue
		}
		es := make([]complex128, len(group))
		for i, c := range group {
			es[i] = results[c.stream].Stream.E
		}
		d := results[group[0].stream].Slots[group[0].slot].Obs
		states := collide.ClassifyJoint(d, es)
		for i, c := range group {
			other := d
			for j := range group {
				if j != i {
					other -= complex(float64(states[j]), 0) * es[j]
				}
			}
			results[c.stream].Slots[c.slot].Obs = other
			results[c.stream].CollidedSlots++
		}
		cm.CancelledSlots.Add(int64(len(group)))
	}
}

// BitErrors compares decoded bits to the ground truth and returns the
// Hamming distance over the common prefix plus one error per length
// mismatch position.
func BitErrors(decoded, truth []byte) int {
	n := len(decoded)
	if len(truth) < n {
		n = len(truth)
	}
	errs := 0
	for i := 0; i < n; i++ {
		if decoded[i] != truth[i] {
			errs++
		}
	}
	if len(decoded) > n {
		errs += len(decoded) - n
	}
	if len(truth) > n {
		errs += len(truth) - n
	}
	return errs
}
