package obs

// Pipeline bundles the decode pipeline's pre-registered metrics, one
// instance per StreamDecoder (batch Decode wraps one). Hot-path stages
// hold the typed pointers directly — no map lookups after construction.
// The zero value (and the shared Nop instance) is fully disabled: every
// field is a nil metric, so each record site costs one branch.
//
// Metric classification (see Class) decides what enters the decode
// identity:
//
//   - Edge, Walk, Collide, Viterbi, SIC, Frames, Drops: ClassDecode.
//     Incremented from the decode's own stages, which all run on its
//     calling goroutine, so totals are bit-identical at any block
//     size.
//   - Stage timings: ClassRuntime. Wall time never feeds a decode
//     decision (DESIGN.md §13).
type Pipeline struct {
	// Registry backs Snapshot; nil on a disabled pipeline.
	Registry *Registry

	Edge    EdgeMetrics
	Walk    WalkMetrics
	Collide CollideMetrics
	Viterbi ViterbiMetrics
	SIC     SICMetrics
	Frames  FrameMetrics
	Drops   DropMetrics
	Stage   StageTimings
}

// EdgeMetrics instruments the edge detector. Conservation invariants:
// RawPeaks == Kept + Suppressed, Edges == Groups, and at end of decode
// Edges == Claimed + Unclaimed.
type EdgeMetrics struct {
	// RawPeaks counts above-threshold local maxima found by the scan.
	RawPeaks *Counter
	// Kept and Suppressed partition the raw peaks by the non-maximum
	// suppression outcome.
	Kept, Suppressed *Counter
	// Groups counts coalesced peak groups; each becomes exactly one
	// edge, so Groups == Edges once the capture closes.
	Groups *Counter
	// Edges counts finalized edges.
	Edges *Counter
	// Claimed and Unclaimed partition the detected edges by whether a
	// committed first-pass stream slot referenced them (recorded at
	// flush; SIC-recovered streams index a residual capture's own edge
	// list and are excluded from the disposition).
	Claimed, Unclaimed *Counter
	// DropSamples counts non-finite input samples replaced by the
	// hold-last-finite rule.
	DropSamples *Counter
}

// WalkMetrics instruments slot walking, recorded at flush from the
// committed results. Slots == Clean + Foreign + Empty.
type WalkMetrics struct {
	Slots *Counter
	// Clean / Foreign / Empty partition slots by match kind:
	// confidently this stream's edge, a colliding or foreign edge, or
	// no edge in the window.
	Clean, Foreign, Empty *Counter
}

// CollideMetrics instruments collision separation. GroupsPair ==
// PairBlind + PairAnchored + PairUnresolved.
type CollideMetrics struct {
	// GroupsPair / GroupsJoint count collision groups by arity (two
	// streams vs three or more).
	GroupsPair, GroupsJoint *Counter
	// PairBlind / PairAnchored / PairUnresolved partition pair groups
	// by how they were separated.
	PairBlind, PairAnchored, PairUnresolved *Counter
	// BlindAttempts / BlindDegenerate count nine-cluster parallelogram
	// attempts and the ones that failed on degenerate geometry.
	BlindAttempts, BlindDegenerate *Counter
	// CancelledSlots counts slot observations rewritten with another
	// stream's contribution cancelled.
	CancelledSlots *Counter
}

// ViterbiMetrics instruments the windowed sequence decoder, one
// per-stream decoder after another.
type ViterbiMetrics struct {
	// Slots counts trellis steps pushed (first-pass streams only; SIC
	// residual decodes run unmetered).
	Slots *Counter
	// MergeCommits / ForcedCommits count window commits by kind: exact
	// survivor-path merges vs truncation at window depth.
	MergeCommits, ForcedCommits *Counter
	// PathMargin is the per-frame normalized survivor-score margin,
	// recorded at flush.
	PathMargin *Histogram
}

// SICMetrics instruments successive interference cancellation.
type SICMetrics struct {
	// Rounds counts cancellation rounds executed.
	Rounds *Counter
	// ResidualDecodes counts full pipeline passes over residuals.
	ResidualDecodes *Counter
	// Recovered counts streams recovered from residuals.
	Recovered *Counter
	// DirtySamples totals, over executed rounds, the size of the
	// round's detection mask: the newly cancelled streams' extents
	// widened by the sweep's cut distance and closed over the decoded
	// streams they interact with (DESIGN.md §17). A pure function of
	// the decode, so decode-class despite measuring the incremental
	// win.
	DirtySamples *Counter
	// CarriedStreams totals, over executed rounds, the trusted streams
	// from earlier rounds that the round subtracted again when it
	// rebuilt its residual.
	CarriedStreams *Counter
}

// FrameMetrics instruments frame commit, recorded at flush in result
// order. Committed == CRCOK + CRCFail.
type FrameMetrics struct {
	Committed *Counter
	// CRCOK / CRCFail partition committed frames by EPC CRC-16.
	CRCOK, CRCFail *Counter
	// Recovered counts committed frames that came from SIC residuals.
	Recovered *Counter
	// MergedSplits counts fully merged registrations split in two.
	MergedSplits *Counter
	// Quarantined counts streams dropped by per-stream panic isolation.
	Quarantined *Counter
	// Confidence is the per-frame confidence distribution.
	Confidence *Histogram
}

// DropMetrics instruments graceful degradation, recorded at flush from
// Result.Dropped. Events == NonFinite + Panics + Truncated.
type DropMetrics struct {
	Events *Counter
	// NonFinite / Panics / Truncated partition drop events by reason.
	NonFinite, Panics, Truncated *Counter
	// SpanSamples totals the sample lengths of dropped spans.
	SpanSamples *Counter
}

// StageTimings holds per-stage wall-time accumulators. Timing is
// measurement only — no decode decision ever reads a clock.
type StageTimings struct {
	// Push covers the whole StreamDecoder.Push call: incremental edge
	// detection, stream registration, walker stepping and any frame
	// commit the new samples unlock.
	Push *Timing
	// Commit covers the frame-commit stage (splitting, collision
	// resolution, sequence decoding).
	Commit *Timing
	// Cancel covers the SIC rounds at flush.
	Cancel *Timing
	// SIC covers each residual sub-decode inside a cancellation round
	// (a subset of Cancel; per-round rather than per-flush).
	SIC *Timing
	// Flush covers the whole Flush call.
	Flush *Timing
}

// pathMarginBounds buckets the normalized Viterbi path margin: fractions
// of a nat per slot at the low end, saturating at the single-survivor
// sentinel scale.
var pathMarginBounds = []float64{0.1, 0.25, 0.5, 1, 2, 4, 8, 16, 64, 256}

// confidenceBounds buckets per-frame confidence in tenths.
var confidenceBounds = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// NewPipeline registers a full metric set in a fresh registry.
func NewPipeline() *Pipeline {
	r := NewRegistry()
	return &Pipeline{
		Registry: r,
		Edge: EdgeMetrics{
			RawPeaks:    r.Counter("edge.raw_peaks", ClassDecode),
			Kept:        r.Counter("edge.kept", ClassDecode),
			Suppressed:  r.Counter("edge.suppressed", ClassDecode),
			Groups:      r.Counter("edge.groups", ClassDecode),
			Edges:       r.Counter("edge.edges", ClassDecode),
			Claimed:     r.Counter("edge.claimed", ClassDecode),
			Unclaimed:   r.Counter("edge.unclaimed", ClassDecode),
			DropSamples: r.Counter("edge.drop_samples", ClassDecode),
		},
		Walk: WalkMetrics{
			Slots:   r.Counter("walk.slots", ClassDecode),
			Clean:   r.Counter("walk.slots_clean", ClassDecode),
			Foreign: r.Counter("walk.slots_foreign", ClassDecode),
			Empty:   r.Counter("walk.slots_empty", ClassDecode),
		},
		Collide: CollideMetrics{
			GroupsPair:      r.Counter("collide.groups_pair", ClassDecode),
			GroupsJoint:     r.Counter("collide.groups_joint", ClassDecode),
			PairBlind:       r.Counter("collide.pair_blind", ClassDecode),
			PairAnchored:    r.Counter("collide.pair_anchored", ClassDecode),
			PairUnresolved:  r.Counter("collide.pair_unresolved", ClassDecode),
			BlindAttempts:   r.Counter("collide.blind_attempts", ClassDecode),
			BlindDegenerate: r.Counter("collide.blind_degenerate", ClassDecode),
			CancelledSlots:  r.Counter("collide.cancelled_slots", ClassDecode),
		},
		Viterbi: ViterbiMetrics{
			Slots:         r.Counter("viterbi.slots", ClassDecode),
			MergeCommits:  r.Counter("viterbi.commits_merge", ClassDecode),
			ForcedCommits: r.Counter("viterbi.commits_forced", ClassDecode),
			PathMargin:    r.Histogram("viterbi.path_margin", ClassDecode, pathMarginBounds),
		},
		SIC: SICMetrics{
			Rounds:          r.Counter("sic.rounds", ClassDecode),
			ResidualDecodes: r.Counter("sic.residual_decodes", ClassDecode),
			Recovered:       r.Counter("sic.recovered", ClassDecode),
			DirtySamples:    r.Counter("sic.dirty_samples", ClassDecode),
			CarriedStreams:  r.Counter("sic.carried_streams", ClassDecode),
		},
		Frames: FrameMetrics{
			Committed:    r.Counter("frames.committed", ClassDecode),
			CRCOK:        r.Counter("frames.crc_ok", ClassDecode),
			CRCFail:      r.Counter("frames.crc_fail", ClassDecode),
			Recovered:    r.Counter("frames.recovered", ClassDecode),
			MergedSplits: r.Counter("frames.merged_splits", ClassDecode),
			Quarantined:  r.Counter("frames.quarantined", ClassDecode),
			Confidence:   r.Histogram("frames.confidence", ClassDecode, confidenceBounds),
		},
		Drops: DropMetrics{
			Events:      r.Counter("drop.events", ClassDecode),
			NonFinite:   r.Counter("drop.nonfinite", ClassDecode),
			Panics:      r.Counter("drop.panic", ClassDecode),
			Truncated:   r.Counter("drop.truncated", ClassDecode),
			SpanSamples: r.Counter("drop.span_samples", ClassDecode),
		},
		Stage: StageTimings{
			Push:   r.Timing("stage.push_ns"),
			Commit: r.Timing("stage.commit_ns"),
			Cancel: r.Timing("stage.cancel_ns"),
			SIC:    r.Timing("stage.sic_ns"),
			Flush:  r.Timing("stage.flush_ns"),
		},
	}
}

// nop is the shared disabled pipeline: every metric nil, every record a
// no-op. Safe to share — it has no mutable state.
var nop = &Pipeline{}

// Nop returns the shared disabled pipeline.
func Nop() *Pipeline { return nop }

// Snapshot freezes the pipeline's registry (empty snapshot when
// disabled).
func (p *Pipeline) Snapshot() *Snapshot {
	if p == nil {
		return (*Registry)(nil).Snapshot()
	}
	return p.Registry.Snapshot()
}
