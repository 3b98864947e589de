package edgedetect

import (
	"errors"
	"fmt"
	"math"

	"lf/internal/dsp"
	"lf/internal/obs"
	"lf/internal/pool"
	"lf/internal/shard"
	"lf/internal/work"
)

// StreamConfig tunes the incremental detector.
type StreamConfig struct {
	Config
	// CalibSamples bounds noise-floor calibration: the detection
	// threshold is derived from the first CalibSamples differential
	// magnitudes, and edge extraction starts as soon as they have
	// streamed in. 0 defers calibration to Close and computes the
	// threshold over the whole capture — the batch semantics, which
	// necessarily retains the whole magnitude series until Close.
	CalibSamples int64
	// Metrics, when populated, receives stage counters (raw peaks,
	// NMS outcomes, groups, edges, dropped samples). Every counter is
	// recorded from the detector's serial stages — never from inside
	// the parallel sweep kernels — so the counts are a pure function
	// of the sample sequence. The zero value records nothing.
	Metrics obs.EdgeMetrics
	// Meter, when non-nil, meters the differential sweep's worker-pool
	// dispatch (runtime-class; see work.Meter).
	Meter *work.Meter
	// ShardWorkers ≥ 2 runs the differential sweep in shard mode: the
	// sweep is carved into seam-safe stripes computed concurrently on a
	// pull-based worker pool while the owner goroutine keeps pushing
	// (see stripe.go). The detected edge set stays bit-identical at any
	// worker count. 0 and 1 keep the serial in-push sweep.
	ShardWorkers int
	// Shards, when populated, receives shard-mode stripe counters
	// (runtime-class). The zero value records nothing.
	Shards obs.ShardMetrics
	// StripeRunner, when non-nil in shard mode, executes each stripe
	// job instead of the in-process kernel: the distributed coordinator
	// hooks here to ship jobs to remote workers. The runner must fill
	// job.Dst with exactly the bytes job.Run would produce (or return an
	// error, which poisons the stripe like an in-process panic). Ignored
	// when ShardWorkers < 2.
	StripeRunner func(*StripeJob) error
	// Calib, when non-nil, presets noise calibration: the stream starts
	// calibrated with the given floor and threshold, and no calibration
	// median is taken. SIC residual decodes use this to carry the first
	// pass's calibration — the noise floor is a property of the channel
	// and receiver chain, and subtracting decoded signal from the
	// capture does not change it (DESIGN.md §17). Both values must be
	// finite and positive. CalibSamples is ignored when set.
	Calib *CalibPreset
	// Seed, when non-nil, adopts a pre-folded capture instead of pushed
	// blocks: the stream aliases the caller's from-origin prefix-sum
	// lanes directly — no sample ingest, no fold — and Close drives
	// detection end to end. Push is an error on a seeded stream. The
	// caller keeps ownership of the arrays: the stream never compacts,
	// mutates, or pool-recycles them (Release simply drops the alias),
	// so a SIC round cache can repair and re-seed the same arrays
	// across rounds. Every folded sample must have been admissible
	// (finite, below the overflow bound — see MaxSampleMag); captures
	// with replaced samples must take the push path, which owns the
	// hold-last-finite semantics. Requires Calib.
	Seed *SweepSeed
}

// CalibPreset fixes the noise floor and detection threshold a stream
// starts with instead of deriving them from its own capture.
type CalibPreset struct {
	Floor, Threshold float64
}

// SweepSeed hands a stream pre-folded prefix-sum lanes, both len n+1
// for an n-sample capture. Fully folded lanes hold
// SumsRe[j]/SumsIm[j] = componentwise sum of samples [0, j); under an
// Active mask the caller may instead fold each padded mask region from
// its own zero base and leave the entries between regions unspecified.
// Every read the stream performs is a windowed difference
// sums[hi]−sums[lo] with both endpoints inside one region — sweep and
// refinement windows reach at most Gap+MaxWin outside a probed
// position, and the caller owns padding the regions to cover every
// position its own measurement calls (MeasureAt/MeasureAtClean) probe
// — so any per-region base cancels and the detection is identical to
// one over from-origin lanes. See StreamConfig.Seed for the ownership
// and admissibility contract (admissibility applies to the folded
// regions).
type SweepSeed struct {
	SumsRe, SumsIm []float64
	// Active, when non-nil, restricts detection to the given spans:
	// sorted, disjoint, half-open sample ranges within [0, n].
	// Differential magnitudes outside them are don't-care values the
	// local-maximum scan never visits. The caller owns the soundness
	// argument that out-of-mask positions carry nothing it wants
	// detected (the SIC dirty-span closure: DESIGN.md §17). nil sweeps
	// the whole capture.
	Active []shard.Range
}

// Stream is an incremental edge detector: IQ samples are pushed in
// arbitrary blocks and edges appear in Edges() as soon as they are
// final. The sequence of detected edges is a pure function of the
// sample sequence — block boundaries never influence the result —
// because every stage either works on from-origin prefix sums
// (identical float operation order at any block size) or defers its
// decision until the input that could still change it has provably
// passed (see flushPeaks and finalizeGroups for the cut arguments).
//
// Memory is bounded by the calibration window plus the caller's
// low-water mark: once calibrated, sample-proportional state is
// trimmed up to the point that pending detection work — or a
// measurement the caller may still request (SetLowWater) — could
// touch. With CalibSamples = 0 (or the default low-water of 0)
// nothing is trimmed and the stream degenerates to the batch
// detector's footprint.
type Stream struct {
	cfg     Config
	calib   int64
	workers int
	em      obs.EdgeMetrics
	meter   *work.Meter

	// From-origin prefix sums of the pushed samples, split into
	// structure-of-arrays real/imaginary components so the differential
	// sweep kernel (dsp.DiffSweep) streams over plain float64 lanes.
	// sumsRe[j]/sumsIm[j] hold the componentwise sum of samples
	// [0, sumBase+j); len == front-sumBase+1. Complex
	// addition is componentwise, so the split accumulation is bitwise
	// identical to the former []complex128 prefix.
	sumsRe  []float64
	sumsIm  []float64
	sumBase int64
	accRe   float64
	accIm   float64
	front   int64 // samples pushed so far

	// Differential magnitudes for positions [magBase, magDone).
	mag     []float64
	magBase int64
	magDone int64

	// Shard mode (stripe.go): the pull-based stripe pool, the FIFO of
	// in-flight stripes, the next position to stripe (stripeFront ≥
	// magDone; [magDone, stripeFront) is covered by pending stripes),
	// and the in-flight stripe-buffer bytes for RetainedBytes.
	shards       *shard.Pool
	shardWorkers int
	stripes      []*stripe
	stripeFront  int64
	stripeBytes  int64
	sm           obs.ShardMetrics
	stripeRun    func(*StripeJob) error

	calibrated bool
	floor      float64
	threshold  float64

	scanned  int64          // local-maximum scan is complete for positions < scanned
	raw      []dsp.Peak     // raw maxima awaiting a safe NMS/coalesce cut
	nms      dsp.Suppressor // reusable NMS scratch for suppressChunk
	kept     []dsp.Peak     // scratch for suppressChunk
	groups   []group        // coalesced groups awaiting refinement; head at ghead
	ghead    int
	prevLast int64 // last peak position of the previously refined group
	havePrev bool

	edges []Edge

	// Graceful degradation of non-finite input: bad samples are
	// replaced with the last finite value in the prefix-sum
	// accumulation (never in the caller's block), their positions
	// recorded as merged spans, and every differential magnitude whose
	// windows touch a span blanked so no phantom edge forms.
	lastFinite complex128
	dropSpans  []Span

	eof      bool
	total    int64
	lowWater int64 // caller promises no MeasureAt below this position
	err      error
	released bool

	// extSums marks caller-owned (seeded) prefix-sum arrays: never
	// compacted in place, never recycled to the pool, and Push is
	// rejected (see StreamConfig.Seed).
	extSums bool
	// active, when non-nil, is the seeded detection mask (sorted
	// disjoint sample spans); the sweep and the local-maximum scan
	// visit only these ranges (SweepSeed.Active).
	active []shard.Range
}

// Span is a half-open range [Lo, Hi) of absolute sample positions.
type Span struct{ Lo, Hi int64 }

// maxSampleMag bounds accepted sample magnitudes: components beyond it
// could overflow the running prefix sums to Inf and poison every
// downstream differential, so such samples are treated exactly like
// NaN/Inf — dropped and blanked. Real IQ front ends sit ~150 orders of
// magnitude below this.
const maxSampleMag = 1e150

// MaxSampleMag exports the admission bound for callers that pre-fold
// seeded prefix sums (the maxMag argument of dsp.RepairPrefix): a
// seeded capture must contain no sample a Push would have replaced.
const MaxSampleMag = maxSampleMag

// maxDropSpans caps the recorded span list so adversarial NaN floods
// cannot grow unbounded state: past the cap, new drops widen the last
// span (conservative over-blanking).
const maxDropSpans = 512

// NewStream builds an incremental detector. Push blocks of samples,
// then Close; Edges/EdgeComplete may be consulted at any point.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CalibSamples < 0 {
		return nil, fmt.Errorf("edgedetect: negative CalibSamples %d", cfg.CalibSamples)
	}
	if cfg.Calib != nil {
		f, th := cfg.Calib.Floor, cfg.Calib.Threshold
		if !(f > 0) || !(th > 0) || math.IsInf(f, 1) || math.IsInf(th, 1) {
			return nil, fmt.Errorf("edgedetect: calibration preset (%v, %v) must be finite and positive", f, th)
		}
	}
	if cfg.Seed != nil {
		if cfg.Calib == nil {
			return nil, errors.New("edgedetect: Seed requires Calib")
		}
		if len(cfg.Seed.SumsRe) < 2 || len(cfg.Seed.SumsRe) != len(cfg.Seed.SumsIm) {
			return nil, fmt.Errorf("edgedetect: seed prefix lanes len %d/%d (want equal, ≥ 2)",
				len(cfg.Seed.SumsRe), len(cfg.Seed.SumsIm))
		}
		prev := int64(0)
		for _, r := range cfg.Seed.Active {
			if r.Lo < prev || r.Hi <= r.Lo || r.Hi > int64(len(cfg.Seed.SumsRe)-1) {
				return nil, fmt.Errorf("edgedetect: seed active span [%d, %d) not sorted, disjoint, and within the capture", r.Lo, r.Hi)
			}
			prev = r.Hi
		}
	}
	s := &Stream{cfg: cfg.Config, calib: cfg.CalibSamples, workers: work.Resolve(cfg.Parallelism),
		em: cfg.Metrics, meter: cfg.Meter, sm: cfg.Shards, stripeRun: cfg.StripeRunner}
	if cfg.Seed != nil {
		s.sumsRe, s.sumsIm = cfg.Seed.SumsRe, cfg.Seed.SumsIm
		s.active = cfg.Seed.Active
		s.extSums = true
		s.front = int64(len(s.sumsRe) - 1)
		s.accRe = s.sumsRe[len(s.sumsRe)-1]
		s.accIm = s.sumsIm[len(s.sumsIm)-1]
	} else {
		s.sumsRe = append(pool.Float(0), 0)
		s.sumsIm = append(pool.Float(0), 0)
	}
	if cfg.Calib != nil {
		s.calibrated = true
		s.floor = cfg.Calib.Floor
		s.threshold = cfg.Calib.Threshold
	}
	s.mag = pool.Float(0)
	// A seeded stream's sweep runs once, at Close, over the (typically
	// small) active mask; striping it buys nothing and the mask is an
	// inline-sweep feature, so shard mode stays off.
	if cfg.ShardWorkers >= 2 && cfg.Seed == nil {
		s.shardWorkers = cfg.ShardWorkers
		s.shards = shard.NewPool(s.shardWorkers, maxStripesInFlight*s.shardWorkers)
	}
	return s, nil
}

// Reset rewinds the stream for a fresh capture, retaining every
// internal buffer at its grown capacity so steady-state reuse does not
// allocate. Edges returned before the Reset are invalidated.
func (s *Stream) Reset() {
	if s.released || s.extSums {
		// Seeded arrays stay with their owner; a reset stream starts
		// over on its own pooled lanes (and drops any calibration
		// preset with the rest of the calibration state).
		if s.released {
			s.mag = pool.Float(0)
		}
		s.sumsRe = pool.Float(0)
		s.sumsIm = pool.Float(0)
		s.released, s.extSums = false, false
		s.active = nil
	}
	s.sumsRe = append(s.sumsRe[:0], 0)
	s.sumsIm = append(s.sumsIm[:0], 0)
	s.sumBase, s.accRe, s.accIm, s.front = 0, 0, 0, 0
	s.mag = s.mag[:0]
	s.magBase, s.magDone = 0, 0
	if len(s.stripes) > 0 {
		s.closeShards() // a mid-capture reset must not orphan workers
	}
	s.stripeFront = 0
	if s.shardWorkers >= 2 && s.shards == nil {
		// Close retired the pool; a reused stream gets a fresh one.
		s.shards = shard.NewPool(s.shardWorkers, maxStripesInFlight*s.shardWorkers)
	}
	s.calibrated, s.floor, s.threshold = false, 0, 0
	s.scanned = 0
	s.raw, s.kept = s.raw[:0], s.kept[:0]
	s.groups, s.ghead = s.groups[:0], 0
	s.prevLast, s.havePrev = 0, false
	s.edges = s.edges[:0]
	s.lastFinite, s.dropSpans = 0, s.dropSpans[:0]
	s.eof, s.total, s.lowWater = false, 0, 0
	s.err = nil
}

// Push appends a block of IQ samples and advances detection as far as
// the new samples allow.
func (s *Stream) Push(block []complex128) error {
	if s.err != nil {
		return s.err
	}
	if s.released {
		return errors.New("edgedetect: push on released stream")
	}
	if s.extSums {
		return errors.New("edgedetect: push on seeded stream")
	}
	if s.eof {
		return errors.New("edgedetect: push after close")
	}
	// Extend all prefix arrays once per block, then fill by index: the
	// per-sample append bounds-and-growth checks are measurable at epoch
	// scale with four accumulation lanes.
	base := len(s.sumsRe)
	s.sumsRe = extendFloats(s.sumsRe, len(block))
	s.sumsIm = extendFloats(s.sumsIm, len(block))
	re := s.sumsRe[base:]
	im := s.sumsIm[base:]
	for i, v := range block {
		if !sampleOK(v) {
			s.noteDrop(s.front + int64(i))
			s.em.DropSamples.Inc()
			v = s.lastFinite
		} else {
			s.lastFinite = v
		}
		s.accRe += real(v)
		s.accIm += imag(v)
		re[i] = s.accRe
		im[i] = s.accIm
	}
	s.front += int64(len(block))
	s.advance()
	s.trim()
	// Shard mode can surface a poisoned stripe's error at adoption.
	return s.err
}

// Close marks end of capture, drains every pending stage, and frees
// the magnitude series (measurement via the prefix sums stays valid
// until Release).
func (s *Stream) Close() error {
	if s.err != nil {
		return s.err
	}
	if s.released {
		return errors.New("edgedetect: close on released stream")
	}
	if s.eof {
		return nil
	}
	if s.front == 0 {
		s.closeShards()
		s.err = errors.New("edgedetect: capture has no samples")
		return s.err
	}
	s.eof = true
	s.total = s.front
	s.advance()
	s.closeShards() // advance drained every stripe; retire the workers
	if s.err != nil {
		return s.err
	}
	if s.mag != nil {
		pool.PutFloat(s.mag)
		s.mag = nil
		s.magBase = s.magDone
	}
	s.raw = s.raw[:0]
	s.groups, s.ghead = s.groups[:0], 0
	return nil
}

// Release recycles the sample-proportional buffers into the shared
// scratch pool. The stream must not be used for measurement after.
func (s *Stream) Release() {
	if s.released {
		return
	}
	s.released = true
	s.closeShards()
	if !s.extSums {
		pool.PutFloat(s.sumsRe)
		pool.PutFloat(s.sumsIm)
	}
	s.sumsRe, s.sumsIm = nil, nil
	if s.mag != nil {
		pool.PutFloat(s.mag)
		s.mag = nil
	}
}

// Edges returns the edges finalised so far, in increasing position.
// The slice is appended to by subsequent pushes; callers must not
// retain it across Push/Reset.
func (s *Stream) Edges() []Edge { return s.edges }

// NoiseFloor returns the calibrated background differential magnitude
// (0 before calibration).
func (s *Stream) NoiseFloor() float64 { return s.floor }

// Threshold returns the calibrated detection threshold (0 before
// calibration) — the floor scaled by ThresholdFactor, with the
// noiseless-capture guard applied. Exposed so a SIC residual pass can
// carry the first pass's calibration verbatim (StreamConfig.Calib).
func (s *Stream) Threshold() float64 { return s.threshold }

// Calibrated reports whether the detection threshold has been fixed.
func (s *Stream) Calibrated() bool { return s.calibrated }

// Front returns the number of samples pushed so far.
func (s *Stream) Front() int64 { return s.front }

// Closed reports whether Close has been called.
func (s *Stream) Closed() bool { return s.eof }

// EdgeComplete returns the detection horizon: every edge whose Pos is
// below it is present and final in Edges(), and no future edge can
// appear below it. It is monotone non-decreasing across pushes and
// reaches past the capture end once Close has drained the pipeline.
func (s *Stream) EdgeComplete() int64 {
	if !s.calibrated {
		return 0
	}
	if s.eof {
		return s.total
	}
	m := s.futureFirstMin()
	if s.ghead < len(s.groups) && s.groups[s.ghead].first < m {
		m = s.groups[s.ghead].first
	}
	if m < 0 {
		m = 0
	}
	return m
}

// SetLowWater promises that no MeasureAt/MeasureAtClean call will ever
// target a position below pos, allowing the prefix-sum window to slide
// forward. The mark is monotone: lowering it is ignored.
func (s *Stream) SetLowWater(pos int64) {
	if pos > s.lowWater {
		s.lowWater = pos
		s.trim()
	}
}

// RetainedBytes reports the sample-proportional window currently live
// (prefix sums, magnitude series, and detection scratch). The edge
// list itself — output, not window state — is excluded, as is buffer
// capacity beyond the live window: the backing arrays come from the
// shared pool and may carry slack amortized across unrelated decodes.
func (s *Stream) RetainedBytes() int64 {
	return int64(len(s.sumsRe)+len(s.sumsIm)+len(s.mag))*8 + s.stripeBytes +
		int64(len(s.raw)+len(s.kept))*16 + s.nms.RetainedBytes() +
		int64(len(s.groups)-s.ghead)*32
}

// MeasureAt returns the IQ differential at an arbitrary position with
// the default detection windows. The position's windows must lie above
// the low-water mark and (before Close) within the pushed samples.
func (s *Stream) MeasureAt(pos int64) complex128 {
	after := s.meanRange(pos+s.cfg.Gap, pos+s.cfg.Gap+s.cfg.Win)
	before := s.meanRange(pos-s.cfg.Gap-s.cfg.Win, pos-s.cfg.Gap)
	return after - before
}

// MeasureAtClean is MeasureAt with the widened refinement windows.
func (s *Stream) MeasureAtClean(pos int64) complex128 {
	after := s.meanRange(pos+s.cfg.Gap, pos+s.cfg.Gap+s.cfg.MaxWin)
	before := s.meanRange(pos-s.cfg.Gap-s.cfg.MaxWin, pos-s.cfg.Gap)
	return after - before
}

// limit is the exclusive upper bound of known sample positions: the
// capture length once closed, else the pushed front.
func (s *Stream) limit() int64 {
	if s.eof {
		return s.total
	}
	return s.front
}

// meanRange is the clamped windowed mean, bit-identical to the batch
// detector's prefix Mean: identical clamping, then the componentwise
// subtraction and division of from-origin sums. (Go's complex quotient
// with a real divisor reduces to exactly these two float divisions, so
// the SoA form equals the former complex128 one bit for bit.)
func (s *Stream) meanRange(lo, hi int64) complex128 {
	if lo < 0 {
		lo = 0
	}
	if n := s.limit(); hi > n {
		hi = n
	}
	if lo >= hi {
		return 0
	}
	jlo, jhi := lo-s.sumBase, hi-s.sumBase
	if jlo < 0 {
		panic("edgedetect: stream prefix window underrun (SetLowWater too aggressive?)")
	}
	fn := float64(hi - lo)
	return complex((s.sumsRe[jhi]-s.sumsRe[jlo])/fn, (s.sumsIm[jhi]-s.sumsIm[jlo])/fn)
}

func (s *Stream) magAt(i int64) float64 { return s.mag[i-s.magBase] }

// sampleOK reports whether a sample may enter the prefix sums: finite
// and small enough that no realistic capture length can overflow the
// running accumulation.
func sampleOK(v complex128) bool {
	re, im := real(v), imag(v)
	return !math.IsNaN(re) && !math.IsNaN(im) &&
		re < maxSampleMag && re > -maxSampleMag &&
		im < maxSampleMag && im > -maxSampleMag
}

// noteDrop records a dropped (non-finite) sample position, merging
// contiguous positions into spans and coarsening past maxDropSpans.
func (s *Stream) noteDrop(pos int64) {
	if n := len(s.dropSpans); n > 0 {
		last := &s.dropSpans[n-1]
		if pos < last.Hi {
			return
		}
		if pos == last.Hi || n >= maxDropSpans {
			last.Hi = pos + 1
			return
		}
	}
	s.dropSpans = append(s.dropSpans, Span{pos, pos + 1})
}

// Dropped returns the non-finite sample spans replaced so far, in
// position order. The slice is appended to by subsequent pushes;
// callers must not retain it across Push/Reset.
func (s *Stream) Dropped() []Span { return s.dropSpans }

// blankDropped zeroes the just-computed magnitudes [lo, hi) whose
// differential windows (±margin) touch a dropped span: the substituted
// hold values would otherwise read as a phantom edge at the span
// boundary. Spans are recorded before the magnitudes their windows
// cover are computed (a drop at p affects positions ≥ p−margin, none
// of which can be final before p is pushed), so blanking each chunk as
// it is computed covers every affected position at any block size.
func (s *Stream) blankDropped(lo, hi, margin int64) {
	for _, sp := range s.dropSpans {
		blo, bhi := sp.Lo-margin, sp.Hi+margin
		if blo < lo {
			blo = lo
		}
		if bhi > hi {
			bhi = hi
		}
		for p := blo; p < bhi; p++ {
			s.mag[p-s.magBase] = 0
		}
	}
}

// futureFirstMin lower-bounds the first-peak position of any group not
// yet coalesced: pending raw maxima (or any maximum yet to be scanned)
// sit at min(raw[0].Pos, scanned) or later, and centroiding moves a
// peak by at most Gap+2.
func (s *Stream) futureFirstMin() int64 {
	m := s.scanned
	if len(s.raw) > 0 && s.raw[0].Pos < m {
		m = s.raw[0].Pos
	}
	return m - (s.cfg.Gap + 2)
}

// advance runs every detection stage as far as the pushed samples
// permit: magnitude extension, calibration, local-maximum scan, safe
// NMS/coalesce cuts, and group refinement.
func (s *Stream) advance() {
	g, w := s.cfg.Gap, s.cfg.Win
	margin := g + w

	// 1. Differential magnitudes. A position's windows span ±(Gap+Win),
	// so pre-Close only positions below front−margin are computable;
	// margins at both capture ends are blanked exactly as in the batch
	// detector (clamped half-windows would read as phantom edges).
	hi := s.front - margin
	if s.eof {
		hi = s.total
	}
	if s.shardOn() {
		// Shard mode: the sweep runs on the stripe pool instead of
		// inline; magDone advances as completed stripes are adopted in
		// order (stripe.go). Every downstream stage is monotone in
		// magDone, so the adoption lag delays decisions without changing
		// them.
		s.shardSweep(hi)
		if s.err != nil {
			return
		}
	} else if hi > s.magDone {
		lo := s.magDone
		count := int(hi - lo)
		s.mag = extendFloats(s.mag, count)
		limit := s.limit()
		intLo, intHi := margin, limit-margin
		sweepChunk := func(plo, phi int64) {
			ilo := max(plo, intLo)
			ihi := min(phi, intHi)
			for p := plo; p < min(ilo, phi); p++ {
				s.mag[p-s.magBase] = 0
			}
			if ilo < ihi {
				dsp.DiffSweep(s.sumsRe, s.sumsIm, int(ilo-s.sumBase), g, w,
					s.mag[ilo-s.magBase:ihi-s.magBase])
			}
			for p := max(ihi, plo); p < phi; p++ {
				s.mag[p-s.magBase] = 0
			}
		}
		if s.active == nil {
			s.meter.DoRanges(s.workers, count, func(clo, chi int) {
				sweepChunk(lo+int64(clo), lo+int64(chi))
			})
		} else {
			// Masked sweep: the kernel runs only over the active spans (a
			// seeded stream sweeps once, at Close, so this branch runs once
			// with lo = 0). Positions outside the spans are don't-care, and
			// the only reads that stray past a span boundary are the scan's
			// neighbour probes (±1) and centroiding (±(Gap+2)) at in-span
			// peaks — so zeroing a Gap+3 margin around each span makes
			// every out-of-mask read deterministic without an O(capture)
			// clear; beyond the margins the buffer keeps whatever the pool
			// held, unread.
			zpad := g + 3
			for _, r := range s.active {
				mlo, mhi := max(r.Lo-zpad, lo), min(r.Lo, hi)
				for p := mlo; p < mhi; p++ {
					s.mag[p-s.magBase] = 0
				}
				mlo, mhi = max(r.Hi, lo), min(r.Hi+zpad, hi)
				for p := mlo; p < mhi; p++ {
					s.mag[p-s.magBase] = 0
				}
			}
			for _, r := range s.active {
				rlo, rhi := max(r.Lo, lo), min(r.Hi, hi)
				if rlo >= rhi {
					continue
				}
				s.meter.DoRanges(s.workers, int(rhi-rlo), func(clo, chi int) {
					sweepChunk(rlo+int64(clo), rlo+int64(chi))
				})
			}
		}
		if len(s.dropSpans) > 0 {
			s.blankDropped(lo, hi, margin)
		}
		s.magDone = hi
	}

	// 2. Calibration: fix the threshold over the configured prefix, or
	// over the whole series at Close when CalibSamples is 0.
	if !s.calibrated {
		calibN := int64(-1)
		switch {
		case s.calib > 0 && s.magDone >= s.calib:
			calibN = s.calib
		case s.eof:
			calibN = s.magDone
			if s.calib > 0 && s.calib < calibN {
				calibN = s.calib
			}
		}
		if calibN < 0 {
			return
		}
		window := s.mag[:calibN-s.magBase]
		s.floor = dsp.NoiseFloor(window)
		s.threshold = s.floor * s.cfg.ThresholdFactor
		// Guard against a (near-)noiseless capture, as in the batch
		// detector: a hard floor at a small fraction of the strongest
		// differential seen in the calibration window.
		var maxMag float64
		for _, v := range window {
			if v > maxMag {
				maxMag = v
			}
		}
		if min := 0.05 * maxMag; s.threshold < min {
			s.threshold = min
		}
		s.calibrated = true
	}

	// 3. Local-maximum scan. Serial by construction (it is a trivial
	// fraction of stage 1's work) and identical to the batch chunked
	// scan, which concatenates in position order. Position i needs
	// mag[i+1], so pre-Close the scan trails magDone by one.
	scanHi := s.magDone - 1
	if s.eof {
		scanHi = s.total
	}
	if scanHi > s.scanned {
		limit := s.limit()
		rawBefore := len(s.raw)
		scanRange := func(slo, shi int64) {
			for i := slo; i < shi; i++ {
				v := s.magAt(i)
				if v < s.threshold {
					continue
				}
				if i > 0 && s.magAt(i-1) > v {
					continue
				}
				if i+1 < limit && s.magAt(i+1) > v {
					continue
				}
				if i > 0 && s.magAt(i-1) == v {
					continue // plateau continuation
				}
				s.raw = append(s.raw, dsp.Peak{Pos: i, Value: v})
			}
		}
		if s.active == nil {
			scanRange(s.scanned, scanHi)
		} else {
			// Masked scan: positions outside the active spans hold
			// don't-care zeros below the (positive, preset) threshold, so
			// skipping them takes the same branch the full scan would.
			for _, r := range s.active {
				if rlo, rhi := max(r.Lo, s.scanned), min(r.Hi, scanHi); rlo < rhi {
					scanRange(rlo, rhi)
				}
			}
		}
		s.em.RawPeaks.Add(int64(len(s.raw) - rawBefore))
		s.scanned = scanHi
	}

	s.flushPeaks()
	s.finalizeGroups()
}

// flushPeaks runs non-maximum suppression, centroiding, and coalescing
// over the longest raw-peak prefix that is safe to cut: the gap after
// the prefix (to the next raw peak, or to where future peaks can still
// appear) must be at least max(MinSpacing, CoalesceDist+2·(Gap+2))+1
// raw samples. NMS chains only interact within MinSpacing, coalesce
// groups within CoalesceDist, and centroiding moves a peak by at most
// Gap+2, so no chain or group can straddle such a cut — processing the
// prefix alone equals the batch global pass restricted to it, at any
// block size. The prefix additionally waits until its centroid windows
// (±(Gap+2)) are fully computed.
func (s *Stream) flushPeaks() {
	if len(s.raw) == 0 {
		return
	}
	span := s.cfg.Gap + 2
	cut := s.cfg.MinSpacing
	if d := s.cfg.CoalesceDist + 2*span; d > cut {
		cut = d
	}
	cut++
	flushN := 0
	if s.eof {
		flushN = len(s.raw)
	} else {
		for c := len(s.raw); c >= 1; c-- {
			if s.raw[c-1].Pos+span >= s.magDone {
				continue // centroid window not fully computed yet
			}
			next := s.scanned // future maxima appear at scanned or later
			if c < len(s.raw) {
				next = s.raw[c].Pos
			}
			if next-s.raw[c-1].Pos >= cut {
				flushN = c
				break
			}
		}
	}
	if flushN == 0 {
		return
	}
	kept := s.suppressChunk(s.raw[:flushN])
	s.em.Kept.Add(int64(len(kept)))
	s.em.Suppressed.Add(int64(flushN - len(kept)))
	s.centroid(kept)
	groupsBefore := len(s.groups)
	s.groups = coalesceInto(s.groups, kept, s.cfg.CoalesceDist)
	s.em.Groups.Add(int64(len(s.groups) - groupsBefore))
	s.raw = append(s.raw[:0], s.raw[flushN:]...)
}

// suppressChunk is greedy non-maximum suppression over one flushed
// chunk, reusing stream-owned scratch so the steady state allocates
// nothing. It delegates to the shared dsp cell-grid pass: peaks are
// visited in (value desc, position asc) order — a total order, so the
// result is deterministic even under exact value ties — and returned
// sorted by position, like dsp.Suppress, in O(n log n) where the
// former kept-list scan was O(n²) under spurious-edge floods.
func (s *Stream) suppressChunk(chunk []dsp.Peak) []dsp.Peak {
	s.kept = s.nms.Suppress(s.kept, chunk, s.cfg.MinSpacing)
	return s.kept
}

// centroid refines each surviving peak to the floor-subtracted
// magnitude centroid of its ±(Gap+2) neighbourhood — the batch
// detector's centroidPeaks over the streaming magnitude window.
func (s *Stream) centroid(peaks []dsp.Peak) {
	span := s.cfg.Gap + 2
	limit := s.limit()
	for pi := range peaks {
		p := &peaks[pi]
		var wsum, psum float64
		for off := -span; off <= span; off++ {
			i := p.Pos + off
			if i < 0 || i >= limit {
				continue
			}
			w := s.magAt(i) - s.floor
			if w <= 0 {
				continue
			}
			wsum += w
			psum += w * float64(i)
		}
		if wsum > 0 {
			p.Pos = int64(psum/wsum + 0.5)
		}
	}
}

// finalizeGroups refines queued groups into edges once their widened
// averaging windows are settled. A head group without a known
// successor must wait until no future group can begin within MaxWin of
// it (futureFirstMin), at which point its trailing window is MaxWin
// wide whether refinement happens now or at Close — the choice of
// flush moment never changes the refined value.
func (s *Stream) finalizeGroups() {
	edgesBefore := len(s.edges)
	for s.ghead < len(s.groups) {
		g := s.groups[s.ghead]
		after := s.cfg.MaxWin
		if s.ghead+1 < len(s.groups) {
			if gap := s.groups[s.ghead+1].first - g.last - 2*s.cfg.Gap; gap < after {
				after = gap
			}
		} else if !s.eof {
			if s.futureFirstMin()-g.last-2*s.cfg.Gap < s.cfg.MaxWin {
				break
			}
		}
		before := s.cfg.MaxWin
		if s.havePrev {
			if gap := g.first - s.prevLast - 2*s.cfg.Gap; gap < before {
				before = gap
			}
		}
		if before < 1 {
			before = 1
		}
		if after < 1 {
			after = 1
		}
		a := s.meanRange(g.last+s.cfg.Gap, g.last+s.cfg.Gap+after)
		b := s.meanRange(g.first-s.cfg.Gap-before, g.first-s.cfg.Gap)
		diff := a - b
		s.edges = append(s.edges, Edge{
			Pos: g.pos, Diff: diff, Strength: dsp.Abs(diff),
			First: g.first, Last: g.last, Peaks: g.peaks,
		})
		s.prevLast, s.havePrev = g.last, true
		s.ghead++
	}
	s.em.Edges.Add(int64(len(s.edges) - edgesBefore))
	if s.ghead > 64 && s.ghead*2 >= len(s.groups) {
		s.groups = append(s.groups[:0], s.groups[s.ghead:]...)
		s.ghead = 0
	}
}

// trim slides the sample-proportional windows forward past everything
// that pending detection stages — or caller measurements above the
// low-water mark — can still read. Compaction is amortised: a copy
// happens only once the droppable span rivals the retained span.
func (s *Stream) trim() {
	if !s.calibrated || s.released || s.eof {
		return
	}
	const slack = 4
	g, mw := s.cfg.Gap, s.cfg.MaxWin
	span := g + 2

	keepSum := s.lowWater - g - mw
	if k := s.magDone - g - s.cfg.Win; k < keepSum {
		keepSum = k // the next differential extension's leading window
	}
	if k := s.futureFirstMin() - g - mw; k < keepSum {
		keepSum = k // a future group's leading window
	}
	if s.ghead < len(s.groups) {
		if k := s.groups[s.ghead].first - g - mw; k < keepSum {
			keepSum = k // the queued head group's leading window
		}
	}
	s.dropSums(keepSum - slack)

	s.dropMag(s.futureFirstMin() - span - slack)
}

func (s *Stream) dropSums(keep int64) {
	if s.extSums {
		// Seeded lanes are caller-owned and must survive intact for the
		// next SIC round's span-local repair; they cost nothing extra to
		// retain (the caller holds them regardless).
		return
	}
	if keep > s.front {
		keep = s.front
	}
	drop := keep - s.sumBase
	if drop < 1<<13 || int(drop) < len(s.sumsRe)/2 {
		return
	}
	if s.shardOn() {
		// Copy-out compaction: in-flight stripe workers hold
		// slice-header snapshots of the current backing arrays, so
		// instead of rewriting entries under them the retained tail
		// moves into fresh arrays and the old ones are left, intact,
		// to their readers (and the GC). No drain needed, which
		// matters in shard mode: a stripe is nearly always in flight.
		n := len(s.sumsRe) - int(drop)
		re := pool.FloatUninit(n)
		im := pool.FloatUninit(n)
		copy(re, s.sumsRe[drop:])
		copy(im, s.sumsIm[drop:])
		s.sumsRe, s.sumsIm = re, im
		s.sumBase = keep
		return
	}
	n := copy(s.sumsRe, s.sumsRe[drop:])
	copy(s.sumsIm, s.sumsIm[drop:])
	s.sumsRe = s.sumsRe[:n]
	s.sumsIm = s.sumsIm[:n]
	s.sumBase = keep
}

func (s *Stream) dropMag(keep int64) {
	if keep > s.magDone {
		keep = s.magDone
	}
	drop := keep - s.magBase
	if drop < 1<<13 || int(drop) < len(s.mag)/2 {
		return
	}
	n := copy(s.mag, s.mag[drop:])
	s.mag = s.mag[:n]
	s.magBase = keep
}

// extendFloats grows b by n entries without zeroing them (every caller
// overwrites the extension) and without a temporary allocation.
func extendFloats(b []float64, n int) []float64 {
	need := len(b) + n
	for cap(b) < need {
		b = append(b[:cap(b)], 0)
	}
	return b[:need]
}

// group is a run of surviving peaks closer than CoalesceDist, pending
// refinement into an Edge.
type group struct {
	first, last int64
	pos         int64 // strength-weighted centre
	peaks       int
}

// coalesceInto merges position-sorted peaks into groups, appending to
// dst. Groups never straddle a flush cut (see flushPeaks), so chunked
// coalescing equals the batch pass.
func coalesceInto(dst []group, peaks []dsp.Peak, dist int64) []group {
	for i := 0; i < len(peaks); {
		j := i
		for j+1 < len(peaks) && peaks[j+1].Pos-peaks[j].Pos < dist {
			j++
		}
		var wsum, psum float64
		for k := i; k <= j; k++ {
			wsum += peaks[k].Value
			psum += peaks[k].Value * float64(peaks[k].Pos)
		}
		g := group{first: peaks[i].Pos, last: peaks[j].Pos, peaks: j - i + 1}
		if wsum > 0 {
			g.pos = int64(psum/wsum + 0.5)
		} else {
			g.pos = (g.first + g.last) / 2
		}
		dst = append(dst, g)
		i = j + 1
	}
	return dst
}
