package edgedetect

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"lf/internal/dsp"
	"lf/internal/obs"
	"lf/internal/pool"
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
	// NMS outcomes, groups, edges, dropped samples). The counts are a
	// pure function of the sample sequence. The zero value records
	// nothing.
	Metrics obs.EdgeMetrics
	// Calib, when non-nil, presets noise calibration: the stream starts
	// calibrated with the given floor and threshold, and no calibration
	// median is taken. SIC residual decodes use this to carry the first
	// pass's calibration — the noise floor is a property of the channel
	// and receiver chain, and subtracting decoded signal from the
	// capture does not change it (DESIGN.md §17). Both values must be
	// finite and positive. CalibSamples is ignored when set.
	Calib *CalibPreset
	// Masked, when non-nil, decodes a whole capture under a detection
	// mask instead of pushed blocks: NewStream folds the capture's
	// prefix-sum lanes over Masked.Regions only, and Close drives
	// detection end to end. Push is an error on a masked stream.
	// Requires Calib.
	Masked *MaskedCapture
}

// CalibPreset fixes the noise floor and detection threshold a stream
// starts with instead of deriving them from its own capture.
type CalibPreset struct {
	Floor, Threshold float64
}

// MaskedCapture is a capture whose detection is confined to Active and
// whose prefix sums are needed only inside Regions. NewStream folds
// each region from its own zero base into stream-owned lanes, leaving
// the entries between regions unspecified. Every read the stream
// performs is a windowed difference sums[hi]−sums[lo] with both
// endpoints inside one region — sweep and refinement windows reach at
// most Gap+MaxWin outside a probed position, and the caller owns
// padding the regions to cover every position its own measurement
// calls (MeasureAt/MeasureAtClean) probe — so the per-region base
// cancels and detection is identical to a Push of the whole capture, at
// O(regions) fold cost instead of O(capture). A region holding a
// sample Push would replace (non-finite or overflow-scale) makes
// NewStream fail with ErrInadmissible: such captures take the push
// path, which owns the hold-last-finite semantics. Samples outside
// every region are never read, and the stream does not keep Samples.
type MaskedCapture struct {
	Samples []complex128
	// Active restricts detection to the given spans; nil sweeps the
	// whole capture. Differential magnitudes outside them are don't-care
	// values the local-maximum scan never visits. The caller owns the
	// soundness argument that out-of-mask positions carry nothing it
	// wants detected (the SIC dirty-span closure: DESIGN.md §17).
	// Regions are the sample ranges whose prefix sums are folded; each
	// Active span must lie inside one region. Both are sorted, separated
	// (neither overlapping nor adjacent), half-open ranges within
	// [0, len(Samples)].
	Active, Regions []Span
}

// ErrInadmissible reports a masked capture whose fold regions hold a
// sample the push path would replace (see MaskedCapture).
var ErrInadmissible = errors.New("edgedetect: masked capture region holds an inadmissible sample")

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
	cfg   Config
	calib int64
	em    obs.EdgeMetrics

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

	calibrated bool
	floor      float64
	threshold  float64

	// Screened sweep (DESIGN.md §12): from position screenFrom on, mag
	// holds dsp.DiffSweepScreen values instead of magnitudes (screenBlank
	// where blanked), and exactAt recomputes the exact magnitude wherever
	// one is read. screenFrom is math.MaxInt64 while the sweep is exact.
	// Before calibration the screen is uncut (screenEMax = +Inf) and
	// calibE tracks the largest E it saw, which sizes calibrate's band.
	screenFrom  int64
	screenLimit float64
	screenEMax  float64
	calibE      float64

	scanned int64 // local-maximum scan is complete for positions < scanned
	// Peak and group scratch (head group at ghead), taken from
	// scratchPool at NewStream and returned at Release through held.
	scratch
	held     *scratch
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

	// masked marks a stream built from a MaskedCapture: its lanes are
	// folded at construction and Push is rejected.
	masked bool
	// active, when non-nil, is the masked detection mask (sorted
	// disjoint sample spans); the sweep and the local-maximum scan
	// visit only these ranges (MaskedCapture.Active).
	active []Span
}

// Span is a half-open range [Lo, Hi) of absolute sample positions.
type Span struct{ Lo, Hi int64 }

// Len returns the number of positions the span covers.
func (r Span) Len() int64 { return r.Hi - r.Lo }

// maxSampleMag bounds accepted sample magnitudes: components beyond it
// could overflow the running prefix sums to Inf and poison every
// downstream differential, so such samples are treated exactly like
// NaN/Inf — dropped and blanked. Real IQ front ends sit ~150 orders of
// magnitude below this.
const maxSampleMag = 1e150

// admitBits is maxSampleMag's IEEE-754 bit pattern, and signBit the
// sign bit a magnitude's pattern clears (see inadmissible).
const (
	admitBits = 0x5f138d352e5096af
	signBit   = 1 << 63
)

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
	s := &Stream{cfg: cfg.Config, calib: cfg.CalibSamples, em: cfg.Metrics, screenEMax: math.Inf(1)}
	s.takeScratch()
	if m := cfg.Masked; m != nil {
		n := int64(len(m.Samples))
		active := m.Active
		if active == nil {
			active = []Span{{0, n}}
		}
		switch {
		case cfg.Calib == nil:
			return nil, errors.New("edgedetect: Masked requires Calib")
		case n == 0:
			return nil, errors.New("edgedetect: masked capture has no samples")
		case !spansOK(m.Active, n) || !spansOK(m.Regions, n) || !covers(m.Regions, active):
			return nil, errors.New("edgedetect: masked spans must be sorted, separated, within the capture, and Active inside Regions")
		}
		s.sumsRe, s.sumsIm = pool.FloatUninit(int(n)+1), pool.FloatUninit(int(n)+1)
		s.masked, s.active, s.front = true, m.Active, n
		for _, r := range m.Regions {
			s.sumsRe[r.Lo], s.sumsIm[r.Lo] = 0, 0
			if _, _, over := fold(s.sumsRe[r.Lo+1:], s.sumsIm[r.Lo+1:], m.Samples[r.Lo:r.Hi], 0, 0); over&signBit != 0 {
				s.Release()
				return nil, ErrInadmissible
			}
		}
	} else {
		s.sumsRe = append(pool.Float(0), 0)
		s.sumsIm = append(pool.Float(0), 0)
	}
	if cfg.Calib != nil {
		s.calibrated = true
		s.floor = cfg.Calib.Floor
		s.threshold = cfg.Calib.Threshold
		s.startScreen()
	}
	// A masked stream sweeps its whole capture at Close; taking mag at
	// its lanes' size up front lets the three buffers stand in for one
	// another in the pool from one SIC round to the next (a smaller one
	// would be dropped by the next round's lane request).
	s.mag = pool.FloatUninit(len(s.sumsRe))[:0]
	return s, nil
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
	if s.masked {
		return errors.New("edgedetect: push on masked stream")
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
	re := s.sumsRe[base:][:len(block)]
	im := s.sumsIm[base:][:len(block)]
	// Only a block that fails admission is re-accumulated sample by
	// sample.
	accRe, accIm, over := fold(re, im, block, s.accRe, s.accIm)
	if over&signBit == 0 {
		s.accRe, s.accIm = accRe, accIm
		if len(block) > 0 {
			s.lastFinite = block[len(block)-1]
		}
	} else {
		s.pushChecked(block, re, im)
	}
	s.front += int64(len(block))
	s.advance()
	s.trim()
	return nil
}

// fold accumulates block onto the running sums accRe/accIm, storing
// each partial sum into re/im (at least len(block) long), and returns
// the final sums and the OR of every sample's inadmissible bits, whose
// sign bit is set only if some sample fails sampleOK. (A fold of
// max(|re|, |im|) would say the same, but its NaN-propagating compare
// chain costs more than the per-sample check it replaces.)
func fold(re, im []float64, block []complex128, accRe, accIm float64) (float64, float64, uint64) {
	re, im = re[:len(block)], im[:len(block)]
	var over uint64
	for i, v := range block {
		over |= inadmissible(v)
		accRe += real(v)
		accIm += imag(v)
		re[i] = accRe
		im[i] = accIm
	}
	return accRe, accIm, over
}

// inadmissible has its sign bit set exactly when v fails sampleOK. A
// component passes when its magnitude bits (sign cleared) are below
// admitBits, since IEEE magnitudes order like their bit patterns and
// every NaN sits above +Inf; admitBits−1−bits is then non-negative.
func inadmissible(v complex128) uint64 {
	return (admitBits - 1 - math.Float64bits(real(v))&^signBit) |
		(admitBits - 1 - math.Float64bits(imag(v))&^signBit)
}

// pushChecked accumulates a block holding inadmissible samples: each
// one is recorded as dropped and replaced with the last finite sample.
func (s *Stream) pushChecked(block []complex128, re, im []float64) {
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
		s.err = errors.New("edgedetect: capture has no samples")
		return s.err
	}
	s.eof = true
	s.total = s.front
	s.advance()
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
	pool.PutFloat(s.sumsRe)
	pool.PutFloat(s.sumsIm)
	s.sumsRe, s.sumsIm = nil, nil
	if s.mag != nil {
		pool.PutFloat(s.mag)
		s.mag = nil
	}
	s.returnScratch()
}

// scratch is the detector's peak and group scratch. Every capture
// regrows it through scanAt, suppressChunk, coalesceInto and
// finalizeGroups, so streams hand it on through scratchPool instead of
// starting each capture at zero capacity.
type scratch struct {
	raw    []dsp.Peak     // raw maxima awaiting a safe NMS/coalesce cut
	nms    dsp.Suppressor // reusable NMS scratch for suppressChunk
	kept   []dsp.Peak     // suppressChunk's output
	groups []group        // coalesced groups awaiting refinement
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// takeScratch moves a pooled scratch into the stream, emptied.
func (s *Stream) takeScratch() {
	s.held = scratchPool.Get().(*scratch)
	s.scratch = *s.held
	s.raw, s.kept, s.groups = s.raw[:0], s.kept[:0], s.groups[:0]
}

// returnScratch hands the stream's scratch back to the pool, leaving
// the stream with empty scratch.
func (s *Stream) returnScratch() {
	*s.held = s.scratch
	scratchPool.Put(s.held)
	s.scratch, s.held = scratch{}, nil
}

// Edges returns the edges finalised so far, in increasing position.
// The slice is appended to by subsequent pushes; callers must not
// retain it across Push.
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
	return int64(len(s.sumsRe)+len(s.sumsIm)+len(s.mag))*8 +
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

// exactAt returns the exact differential magnitude at position i: the
// stored value in the exact range, and past screenFrom 0 for a blanked
// position or else the value recomputed from the prefix sums, bitwise
// equal to what the exact sweep would have stored. The sums it reads
// lie within SweepMargin of i, which trim retains for every position
// the scan and centroiding read (DESIGN.md §12).
func (s *Stream) exactAt(i int64) float64 {
	m := s.mag[i-s.magBase]
	if i < s.screenFrom {
		return m
	}
	if m < 0 {
		return 0
	}
	return dsp.DiffAt(s.sumsRe, s.sumsIm, int(i-s.sumBase), s.cfg.Gap, s.cfg.Win)
}

// startScreen switches the sweep to screening from the next position it
// computes on, provided the threshold lies where dsp.ScreenBounds'
// proof holds; otherwise the sweep is exact from here on.
func (s *Stream) startScreen() {
	s.screenFrom = math.MaxInt64
	if limit, eMax, ok := dsp.ScreenBounds(s.threshold, s.cfg.Win); ok {
		s.screenFrom, s.screenLimit, s.screenEMax = s.magDone, limit, eMax
	}
}

// resweep recomputes the whole magnitude series, screened from position
// from on and exact below it: the exact fallback of calibration
// (math.MaxInt64) or the re-screen of its window with the calibrated
// cut (0). It runs only before anything is trimmed.
func (s *Stream) resweep(from int64) {
	hi := s.magDone
	s.screenFrom = from
	s.mag, s.magDone = s.mag[:0], s.magBase
	s.sweepTo(hi)
}

// spansOK reports whether spans are sorted, separated (neither
// overlapping nor adjacent), non-empty, and within [0, n].
func spansOK(spans []Span, n int64) bool {
	prev := int64(-1)
	for _, r := range spans {
		if r.Lo <= prev || r.Hi <= r.Lo || r.Hi > n {
			return false
		}
		prev = r.Hi
	}
	return true
}

// covers reports whether each of the sorted spans lies inside one of
// the sorted regions.
func covers(regions, spans []Span) bool {
	j := 0
	for _, r := range spans {
		for j < len(regions) && regions[j].Hi < r.Hi {
			j++
		}
		if j == len(regions) || regions[j].Lo > r.Lo {
			return false
		}
	}
	return true
}

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
// callers must not retain it across Push.
func (s *Stream) Dropped() []Span { return s.dropSpans }

// blankDropped blanks the just-computed magnitudes [lo, hi) whose
// differential windows (±margin) touch a dropped span: the substituted
// hold values would otherwise read as a phantom edge at the span
// boundary. Spans are recorded before the magnitudes their windows
// cover are computed (a drop at p affects positions ≥ p−margin, none
// of which can be final before p is pushed), so blanking each chunk as
// it is computed covers every affected position at any block size.
func (s *Stream) blankDropped(lo, hi, margin int64, blank float64) {
	for _, sp := range s.dropSpans {
		blo, bhi := sp.Lo-margin, sp.Hi+margin
		if blo < lo {
			blo = lo
		}
		if bhi > hi {
			bhi = hi
		}
		for p := blo; p < bhi; p++ {
			s.mag[p-s.magBase] = blank
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
	// 1. Differential magnitudes. A position's windows span ±(Gap+Win),
	// so pre-Close only positions below front−margin are computable.
	// Before calibration the sweep stops at the calibration window, so a
	// push that crosses it calibrates first and screens everything past.
	hi := s.front - SweepMargin(s.cfg.Gap, s.cfg.Win)
	if s.eof {
		hi = s.total
	}
	if !s.calibrated && s.calib > 0 && hi > s.calib {
		s.sweepTo(s.calib)
		s.calibrate()
	}
	s.sweepTo(hi)

	// 2. Calibration.
	if !s.calibrated && !s.calibrate() {
		return
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
		rawBefore := len(s.raw)
		if s.active == nil {
			s.scanRange(s.scanned, scanHi)
		} else {
			// Masked scan: positions outside the active spans are
			// don't-care (MaskedCapture.Active), so only the spans are
			// scanned; the neighbour and centroid reads that cross a span
			// edge land in its blanked pad.
			for _, r := range s.active {
				if rlo, rhi := max(r.Lo, s.scanned), min(r.Hi, scanHi); rlo < rhi {
					s.scanRange(rlo, rhi)
				}
			}
		}
		s.em.RawPeaks.Add(int64(len(s.raw) - rawBefore))
		s.scanned = scanHi
	}

	s.flushPeaks()
	s.finalizeGroups()
}

// sweepTo extends the magnitude series to position hi. Margins at both
// capture ends are blanked exactly as in the batch detector (clamped
// half-windows would read as phantom edges). A call never straddles
// screenFrom: the sweep stops at the calibration window until the
// threshold, and with it the screen, is fixed.
func (s *Stream) sweepTo(hi int64) {
	if hi <= s.magDone {
		return
	}
	g, w := s.cfg.Gap, s.cfg.Win
	margin := SweepMargin(g, w)
	lo := s.magDone
	s.mag = extendFloats(s.mag, int(hi-lo))
	screen := lo >= s.screenFrom
	blank := 0.0
	if screen {
		blank = screenBlank
	}
	intLo, intHi := margin, s.limit()-margin
	sweep := func(plo, phi int64) {
		e := sweepRange(s.mag[plo-s.magBase:phi-s.magBase], s.sumsRe, s.sumsIm, s.sumBase,
			plo, phi, intLo, intHi, g, w, screen, s.screenEMax)
		if !s.calibrated {
			s.calibE = max(s.calibE, e)
		}
	}
	if s.active == nil {
		sweep(lo, hi)
	} else {
		// Masked sweep: the kernel runs only over the active spans (a
		// masked stream sweeps once, at Close, so this branch runs once
		// with lo = 0). Positions outside the spans are don't-care, and
		// the only reads that stray past a span boundary are the scan's
		// neighbour probes (±1) and centroiding (±(Gap+2)) at in-span
		// peaks — so blanking a Gap+3 margin around each span makes
		// every out-of-mask read deterministic without an O(capture)
		// clear; beyond the margins the buffer keeps whatever the pool
		// held, unread.
		zpad := g + 3
		for _, r := range s.active {
			mlo, mhi := max(r.Lo-zpad, lo), min(r.Lo, hi)
			for p := mlo; p < mhi; p++ {
				s.mag[p-s.magBase] = blank
			}
			mlo, mhi = max(r.Hi, lo), min(r.Hi+zpad, hi)
			for p := mlo; p < mhi; p++ {
				s.mag[p-s.magBase] = blank
			}
		}
		for _, r := range s.active {
			if rlo, rhi := max(r.Lo, lo), min(r.Hi, hi); rlo < rhi {
				sweep(rlo, rhi)
			}
		}
	}
	if len(s.dropSpans) > 0 {
		s.blankDropped(lo, hi, margin, blank)
	}
	s.magDone = hi
}

// calibrate fixes the threshold over the configured prefix, or over the
// whole series at Close when CalibSamples is 0, then starts the screen.
// It reports whether the stream is calibrated.
//
// The window holds uncut screen values, and the floor and maximum come
// from them through dsp.ScreenWindow, which computes exact magnitudes
// only inside the rounding band of each order statistic (DESIGN.md §12,
// "Calibration"). The window is then re-screened with the threshold's
// cut if any position exceeds it. Where the screen cannot calibrate
// (an overflowed square) or dsp.ScreenBounds refuses the threshold,
// the window is swept exactly instead, as before screening.
func (s *Stream) calibrate() bool {
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
		return false
	}
	// Nothing is trimmed before calibration, so mag and the prefix sums
	// both start at position 0.
	sw := dsp.ScreenWindow{Screen: s.mag[:calibN], ESeen: s.calibE,
		Re: s.sumsRe, Im: s.sumsIm, Gap: s.cfg.Gap, Win: s.cfg.Win}
	var top, maxMag float64
	screened := false
	if s.screenFrom == 0 {
		if s.floor, top, screened = sw.Floor(); !screened {
			s.resweep(math.MaxInt64)
		}
	}
	if !screened {
		s.floor, maxMag = dsp.NoiseFloorMax(s.mag[:calibN])
	}
	s.threshold = s.floor * s.cfg.ThresholdFactor
	// Guard against a (near-)noiseless capture, as in the batch
	// detector: a hard floor at a small fraction of the strongest
	// differential seen in the calibration window. From the screen the
	// maximum is resolved only when its upper bound could raise the
	// threshold: 0.05·maxMag rounds to at most 0.05·Upper(top).
	if screened && 0.05*sw.Upper(top) > s.threshold {
		maxMag = sw.Max(top)
	}
	if min := 0.05 * maxMag; s.threshold < min {
		s.threshold = min
	}
	s.calibrated = true
	if !screened {
		s.startScreen()
		return true
	}
	limit, eMax, ok := dsp.ScreenBounds(s.threshold, s.cfg.Win)
	switch {
	case !ok:
		s.resweep(math.MaxInt64)
	case s.calibE > eMax:
		s.screenLimit, s.screenEMax = limit, eMax
		s.resweep(0)
	default:
		s.screenLimit, s.screenEMax = limit, eMax
	}
	return true
}

// scanRange appends the local maxima at or above threshold among
// positions [lo, hi) to raw. A position whose stored value proves it
// below threshold — the magnitude itself in the exact range, a screen
// value under screenLimit past screenFrom — is skipped without further
// reads; every comparison after that uses exact magnitudes, carried
// through each run of candidates so each position is read once.
func (s *Stream) scanRange(lo, hi int64) {
	limit := s.limit()
	var run exactRun
	for lo < hi {
		end, cut := min(hi, s.screenFrom), s.threshold
		if lo >= s.screenFrom {
			end, cut = hi, s.screenLimit
		}
		for k, m := range s.mag[lo-s.magBase : end-s.magBase] {
			if !(m < cut) {
				s.scanAt(lo+int64(k), limit, &run)
			}
		}
		lo = end
	}
}

// exactRun holds the exact magnitudes of up to three consecutive
// positions base, base+1, base+2 (bit k of have set when base+k is
// held), so scanAt's candidate and neighbour reads along a run of
// candidates each compute a position once.
type exactRun struct {
	base int64
	v    [3]float64
	have uint8
}

// at returns exactAt(i) through run. A read one past the held positions
// slides the run by one; a read elsewhere restarts it around i.
func (s *Stream) at(run *exactRun, i int64) float64 {
	d := i - run.base
	switch {
	case d == 3:
		run.v[0], run.v[1] = run.v[1], run.v[2]
		run.base, run.have, d = run.base+1, run.have>>1, 2
	case d < 0 || d > 3:
		run.base, run.have, d = i-1, 0, 1
	}
	if run.have&(1<<d) == 0 {
		run.v[d] = s.exactAt(i)
		run.have |= 1 << d
	}
	return run.v[d]
}

// scanAt appends position i to raw if its exact magnitude reaches the
// threshold and is a local maximum (the first of a plateau).
func (s *Stream) scanAt(i, limit int64, run *exactRun) {
	v := s.at(run, i)
	if v < s.threshold {
		return
	}
	var prev float64
	if i > 0 {
		if prev = s.at(run, i-1); prev > v {
			return
		}
	}
	if i+1 < limit && s.at(run, i+1) > v {
		return
	}
	if i > 0 && prev == v {
		return // plateau continuation
	}
	s.raw = append(s.raw, dsp.Peak{Pos: i, Value: v})
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
// nothing. It delegates to the shared dsp per-run pass: peaks are
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
			w := s.exactAt(i) - s.floor
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
	if keep > s.front {
		keep = s.front
	}
	drop := keep - s.sumBase
	if drop < 1<<13 || int(drop) < len(s.sumsRe)/2 {
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
// overwrites the extension). A buffer that must grow is replaced by one
// from the scratch pool with at least double the capacity, and the old
// one is recycled.
func extendFloats(b []float64, n int) []float64 {
	need := len(b) + n
	if cap(b) < need {
		nb := pool.FloatUninit(max(need, 2*cap(b)))
		copy(nb, b)
		pool.PutFloat(b)
		b = nb
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
