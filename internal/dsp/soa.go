// Structure-of-arrays differential-sweep kernels. The edge detector's
// hot loop evaluates the windowed IQ differential at every sample
// position; doing that over split float64 I/Q prefix-sum arrays (rather
// than []complex128) keeps the loads sequential, drops the complex
// division (a full Smith's-algorithm expansion in Go) down to two plain
// float divides per component, and removes every per-position branch.
//
// Bit-identity with the complex128 path is load-bearing, not best
// effort: the componentwise mean (Σre)/n, (Σim)/n is bitwise equal to
// complex division by complex(n, 0) — Go's complex quotient with a
// zero imaginary divisor reduces to exactly those two divisions — and
// every kernel below performs the same operations in the same order as
// the reference Prefix/meanRange code. TestPrefixSoAMatchesComplex and
// FuzzDiffSweepSparse pin the equivalence.
package dsp

import (
	"math"

	"lf/internal/pool"
)

// PrefixSoA is Prefix with the cumulative sums split into separate
// real/imaginary float64 arrays. Index i stores the componentwise sum
// of samples [0, i).
type PrefixSoA struct {
	Re, Im []float64
	n      int64
}

// NewPrefixSoA builds SoA prefix sums over samples. Buffers come from
// the shared scratch pool; Release recycles them.
func NewPrefixSoA(samples []complex128) *PrefixSoA {
	p := &PrefixSoA{
		Re: pool.Float(len(samples) + 1),
		Im: pool.Float(len(samples) + 1),
		n:  int64(len(samples)),
	}
	var ar, ai float64
	for i, v := range samples {
		ar += real(v)
		ai += imag(v)
		p.Re[i+1] = ar
		p.Im[i+1] = ai
	}
	return p
}

// Release returns the buffers to the scratch pool. The PrefixSoA must
// not be used afterwards.
func (p *PrefixSoA) Release() {
	pool.PutFloat(p.Re)
	pool.PutFloat(p.Im)
	p.Re, p.Im, p.n = nil, nil, 0
}

// Len returns the number of underlying samples.
func (p *PrefixSoA) Len() int64 { return p.n }

// Mean returns the mean of samples in [lo, hi), clamped; 0 if empty.
// Bitwise equal to Prefix.Mean.
func (p *PrefixSoA) Mean(lo, hi int64) complex128 {
	if lo < 0 {
		lo = 0
	}
	if hi > p.n {
		hi = p.n
	}
	if lo >= hi {
		return 0
	}
	fn := float64(hi - lo)
	return complex((p.Re[hi]-p.Re[lo])/fn, (p.Im[hi]-p.Im[lo])/fn)
}

// Differential is Prefix.Differential over the SoA sums.
func (p *PrefixSoA) Differential(pos, gap, win int64) complex128 {
	after := p.Mean(pos+gap, pos+gap+win)
	before := p.Mean(pos-gap-win, pos-gap)
	return after - before
}

// DifferentialSeriesInto fills dst with |Differential| at every
// position, bitwise equal to Prefix.DifferentialSeriesInto: clamped
// windows near the series ends, the branch-free DiffSweep kernel over
// the interior.
func (p *PrefixSoA) DifferentialSeriesInto(dst []float64, gap, win int64) {
	if int64(len(dst)) != p.n {
		panic("dsp: DifferentialSeriesInto length mismatch")
	}
	ilo, ihi := gap+win, p.n-gap-win
	if ilo >= ihi {
		ilo, ihi = p.n, p.n
	}
	clamped := func(lo, hi int64) {
		for q := lo; q < hi; q++ {
			d := p.Differential(q, gap, win)
			dst[q] = math.Hypot(real(d), imag(d))
		}
	}
	clamped(0, ilo)
	if ilo < ihi {
		DiffSweep(p.Re, p.Im, int(ilo), gap, win, dst[ilo:ihi])
	}
	clamped(ihi, p.n)
}

// DiffSweep fills dst[i] with the differential magnitude at prefix
// index j0+i: |mean(samples [j+gap, j+gap+win)) − mean([j−gap−win,
// j−gap))| for j = j0+i, over from-origin SoA prefix arrays re/im
// (re[j] = Σ re(samples[0:j])). Every position must be interior — the
// caller guarantees j0 ≥ gap+win and j0+len(dst)+gap+win ≤ len(re) —
// so the loop carries no clamping and no branches. Bitwise equal to
// the complex128 meanRange/Differential path at each position.
func DiffSweep(re, im []float64, j0 int, gap, win int64, dst []float64) {
	g, w := int(gap), int(win)
	fw := float64(win)
	n := len(dst)
	if n == 0 {
		return
	}
	// Shifted views let the compiler hoist the bounds checks out of
	// the loop: each view is exactly n long.
	aHiR := re[j0+g+w:][:n]
	aLoR := re[j0+g:][:n]
	bHiR := re[j0-g:][:n]
	bLoR := re[j0-g-w:][:n]
	aHiI := im[j0+g+w:][:n]
	aLoI := im[j0+g:][:n]
	bHiI := im[j0-g:][:n]
	bLoI := im[j0-g-w:][:n]
	for i := 0; i < n; i++ {
		dr := (aHiR[i]-aLoR[i])/fw - (bHiR[i]-bLoR[i])/fw
		di := (aHiI[i]-aLoI[i])/fw - (bHiI[i]-bLoI[i])/fw
		dst[i] = math.Hypot(dr, di)
	}
}

// DiffAt is DiffSweep's value at the single interior prefix index j,
// computed with the same operations in the same order, so it is bitwise
// equal to the DiffSweep output for that position.
func DiffAt(re, im []float64, j int, gap, win int64) float64 {
	g, w := int(gap), int(win)
	fw := float64(win)
	dr := (re[j+g+w]-re[j+g])/fw - (re[j-g]-re[j-g-w])/fw
	di := (im[j+g+w]-im[j+g])/fw - (im[j-g]-im[j-g-w])/fw
	return math.Hypot(dr, di)
}

// DiffSweepScreen is DiffSweep's cheap screen: over the same interior
// positions and the same windowed sums Ta = aHi−aLo, Tb = bHi−bLo
// (real) and Ua, Ub (imaginary), it writes S = (Ta−Tb)² + (Ua−Ub)² —
// the squared, undivided differential, with no divides and no Hypot —
// or +Inf where E = |Ta|+|Tb|+|Ua|+|Ub| exceeds eMax. Together with
// ScreenBounds it proves a position below threshold without computing
// its exact value; see ScreenBounds for the bound. It returns the
// largest E over the range (0 for an empty one), which sizes the
// rounding band of a calibration window (ScreenWindow).
func DiffSweepScreen(re, im []float64, j0 int, gap, win int64, eMax float64, dst []float64) (eSeen float64) {
	g, w := int(gap), int(win)
	n := len(dst)
	if n == 0 {
		return 0
	}
	aHiR := re[j0+g+w:][:n]
	aLoR := re[j0+g:][:n]
	bHiR := re[j0-g:][:n]
	bLoR := re[j0-g-w:][:n]
	aHiI := im[j0+g+w:][:n]
	aLoI := im[j0+g:][:n]
	bHiI := im[j0-g:][:n]
	bLoI := im[j0-g-w:][:n]
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		ta := aHiR[i] - aLoR[i]
		tb := bHiR[i] - bLoR[i]
		ua := aHiI[i] - aLoI[i]
		ub := bHiI[i] - bLoI[i]
		dr, di := ta-tb, ua-ub
		s := dr*dr + di*di
		e := math.Abs(ta) + math.Abs(tb) + math.Abs(ua) + math.Abs(ub)
		if e > eMax {
			s = inf
		}
		if e > eSeen {
			eSeen = e
		}
		dst[i] = s
	}
	return eSeen
}

// screenMinThreshold is the smallest threshold ScreenBounds screens
// for: below it, underflow in the divides and squares could rival the
// bound's slack, and the caller must compute every value exactly.
const screenMinThreshold = 1e-140

// ScreenBounds returns the limits under which a DiffSweepScreen value
// proves the exact DiffSweep value at that position is below threshold
// tau: a screen value S < limit implies DiffAt < tau. eMax is the
// screen's argument; ok is false when tau lies outside the range the
// proof covers (below screenMinThreshold, non-finite, or so large that
// limit overflows), and then no value may be skipped.
//
// The proof, with u = 2⁻⁵³ and E = |Ta|+|Tb|+|Ua|+|Ub|: each exact
// component (Ta/w) − (Tb/w) carries at most u·(|Ta|+|Tb|)/w from its
// divides and a factor (1+u) from its subtraction; Go's Hypot
// (p·√(1+(q/p)²), in Go and in the amd64 assembly alike) adds at most
// (1+u)⁴; and the screen's own roundings give (Ta−Tb)²+(Ua−Ub)² ≤
// S/(1−u)⁴. By Minkowski's inequality the exact value is then at most
// (1+u)⁵/(1−u)²·(√S + u·E)/w < (1+8u)(√S + u·E)/w, plus an absolute
// underflow term below 1e-160. S < limit = (tau·w)²·(1−4e-6) gives
// √S < tau·w·(1−2e-6), and E ≤ eMax = tau·w·1e-6/u gives u·E ≤
// tau·w·1e-6, so the exact value is below tau·(1−1e-6)(1+8u) plus that
// term, which is below tau for every tau ≥ screenMinThreshold.
func ScreenBounds(tau float64, win int64) (limit, eMax float64, ok bool) {
	tw := tau * float64(win)
	limit = tw * tw * (1 - 4e-6)
	eMax = tw * 1e-6 / 0x1p-53
	ok = tau >= screenMinThreshold && limit <= math.MaxFloat64
	return limit, eMax, ok
}

// sparseBlock is the coarse-pass granularity of DiffSweepSparse.
// Smaller blocks skip more aggressively around isolated edges; larger
// blocks amortize the interval-bound test better. 64 positions sits
// between the default MinSpacing (5) and the typical inter-edge
// spacing at the paper's oversampling ratios.
const sparseBlock = 64

// DiffSweepSparse is DiffSweep with a coarse-to-fine skip: positions
// are processed in blocks, and a block whose windowed differential
// provably stays below threshold across the whole block — plus `guard`
// positions of context on each side — is zero-filled without computing
// a single divide or hypot.
//
// The decoder no longer calls it: the dense sweep matched or beat it
// end to end even on mostly quiet captures (DESIGN.md §12), so the
// edge detector always runs DiffSweep. The kernel stays as the timed
// reference behind the benchmark's dsp.sweep_sparse_ns_per_sample row.
//
// The proof obligation: for each block the kernel
// computes min/max interval bounds of the windowed sums T(q) =
// S[q+win] − S[q] over the after- and before-window ranges of every
// position in the guard-widened block, then evaluates the extreme
// differential components with the very operations the dense kernel
// uses ((T/win rounded, then subtracted)). Rounding to nearest is
// monotone, so the computed dense differential of every covered
// position lies inside the computed interval; a relative 1e-12 slack
// (three orders beyond the few-ulp hypot and square-root error) makes
// the comparison against threshold conservative. Consequently:
//
//   - a zero-filled position's dense magnitude is strictly below
//     threshold (it can never become a peak), and
//   - every position within `guard` samples of any position whose
//     dense magnitude reaches threshold is computed exactly (peak
//     candidates, their scan neighbours, and their full centroid
//     windows all read dense-identical values).
//
// intLo/intHi clamp the guard ranges to interior prefix indices —
// positions outside are blanked by the caller in both the dense and
// sparse paths, so excluding them never weakens the coverage.
func DiffSweepSparse(re, im []float64, j0 int, gap, win, guard int64, threshold float64, intLo, intHi int, dst []float64) {
	g, w := int(gap), int(win)
	gd := int(guard)
	fw := float64(win)
	n := len(dst)
	for b0 := 0; b0 < n; b0 += sparseBlock {
		b1 := min(b0+sparseBlock, n)
		glo := max(j0+b0-gd, intLo)
		ghi := min(j0+b1+gd, intHi)
		minAr, maxAr, minAi, maxAi := minMaxWin(re, im, glo+g, ghi+g, w)
		minBr, maxBr, minBi, maxBi := minMaxWin(re, im, glo-g-w, ghi-g-w, w)
		// Extreme differential components, evaluated with the dense
		// kernel's own operation sequence so rounding monotonicity
		// applies end to end.
		dloR := minAr/fw - maxBr/fw
		dhiR := maxAr/fw - minBr/fw
		boundR := math.Max(math.Abs(dloR), math.Abs(dhiR))
		dloI := minAi/fw - maxBi/fw
		dhiI := maxAi/fw - minBi/fw
		boundI := math.Max(math.Abs(dloI), math.Abs(dhiI))
		bs := math.Sqrt(boundR*boundR + boundI*boundI)
		if bs+bs*1e-12 < threshold {
			for i := b0; i < b1; i++ {
				dst[i] = 0
			}
			continue
		}
		DiffSweep(re, im, j0+b0, gap, win, dst[b0:b1])
	}
}

// minMaxWin returns the min and max of the lag-w differences
// re[q+w]−re[q] and im[q+w]−im[q] over q in [qlo, qhi) — the windowed
// sums the dense kernel divides by win. The caller guarantees a
// non-empty in-range interval.
func minMaxWin(re, im []float64, qlo, qhi, w int) (minR, maxR, minI, maxI float64) {
	n := qhi - qlo
	hiR := re[qlo+w:][:n]
	loR := re[qlo:][:n]
	hiI := im[qlo+w:][:n]
	loI := im[qlo:][:n]
	minR = hiR[0] - loR[0]
	maxR = minR
	minI = hiI[0] - loI[0]
	maxI = minI
	for i := 1; i < n; i++ {
		tr := hiR[i] - loR[i]
		if tr < minR {
			minR = tr
		}
		if tr > maxR {
			maxR = tr
		}
		ti := hiI[i] - loI[i]
		if ti < minI {
			minI = ti
		}
		if ti > maxI {
			maxI = ti
		}
	}
	return minR, maxR, minI, maxI
}
