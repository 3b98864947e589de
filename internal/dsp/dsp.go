// Package dsp implements the signal-processing primitives the
// LF-Backscatter edge detector is built from: O(1) windowed means via
// prefix sums, IQ edge differentials (the ΔS(t) = S(t⁺) − S(t⁻) of the
// paper's §3.1) and the sweep kernels that compute them, median-based
// noise-floor estimation, and non-maximum suppression of peaks.
package dsp

import (
	"math"
	"slices"

	"lf/internal/pool"
)

// Prefix holds cumulative sums of a complex series so that the mean of
// any window can be computed in O(1). Index i of the prefix stores the
// sum of samples [0, i).
type Prefix struct {
	sums []complex128
	n    int64
}

// NewPrefix builds prefix sums over samples. The internal buffer comes
// from the shared scratch pool; callers that are done with a Prefix
// may call Release to recycle it (and must not use the Prefix after).
func NewPrefix(samples []complex128) *Prefix {
	p := &Prefix{sums: pool.Complex(len(samples) + 1), n: int64(len(samples))}
	var acc complex128
	for i, v := range samples {
		acc += v
		p.sums[i+1] = acc
	}
	return p
}

// Release returns the prefix's buffer to the scratch pool. The Prefix
// must not be used afterwards. Calling Release is optional — an
// unreleased buffer is simply garbage-collected.
func (p *Prefix) Release() {
	pool.PutComplex(p.sums)
	p.sums = nil
	p.n = 0
}

// Len returns the number of underlying samples.
func (p *Prefix) Len() int64 { return p.n }

// Sum returns the sum of samples in [lo, hi), clamped to the series.
func (p *Prefix) Sum(lo, hi int64) complex128 {
	if lo < 0 {
		lo = 0
	}
	if hi > p.n {
		hi = p.n
	}
	if lo >= hi {
		return 0
	}
	return p.sums[hi] - p.sums[lo]
}

// Mean returns the mean of samples in [lo, hi), clamped; 0 if empty.
func (p *Prefix) Mean(lo, hi int64) complex128 {
	if lo < 0 {
		lo = 0
	}
	if hi > p.n {
		hi = p.n
	}
	if lo >= hi {
		return 0
	}
	return p.Sum(lo, hi) / complex(float64(hi-lo), 0)
}

// Differential returns the IQ differential across position pos:
// mean of the win samples starting gap after pos, minus the mean of the
// win samples ending gap before pos. gap skips the (few-sample) edge
// transition itself so the two windows straddle it cleanly.
func (p *Prefix) Differential(pos, gap, win int64) complex128 {
	after := p.Mean(pos+gap, pos+gap+win)
	before := p.Mean(pos-gap-win, pos-gap)
	return after - before
}

// DifferentialSeriesInto fills dst (which must have length p.Len())
// with |Differential| at every sample position. Each position is a
// pure O(1) function of the prefix sums.
func (p *Prefix) DifferentialSeriesInto(dst []float64, gap, win int64) {
	if int64(len(dst)) != p.n {
		panic("dsp: DifferentialSeriesInto length mismatch")
	}
	for i := int64(0); i < p.n; i++ {
		d := p.Differential(i, gap, win)
		dst[i] = math.Hypot(real(d), imag(d))
	}
}

// NoiseFloorMax estimates the background level of a
// differential-magnitude series as its median: the middle value, or for
// even n the mean of the two middle values, of the sorted series, with
// NaNs ordering first as in sort.Float64s. Because edges are temporally
// sparse (≲1% of samples at the paper's oversampling ratios), the median
// sits on the noise, not on the edges. From the same pass it returns the
// largest value of mag that exceeds 0 (0 if none does; NaNs never
// count): the two statistics the detector's calibration takes.
//
// It selects the order statistics with counting passes between sampled
// pivots, in O(n), and falls back to quickselect when the pivots miss,
// ties stop a pass from shrinking, or a NaN would sort last. mag is not
// modified. Both results are 0 for an empty slice.
func NoiseFloorMax(mag []float64) (floor, top float64) {
	n := len(mag)
	if n == 0 {
		return 0, 0
	}
	m := n / 2
	k0 := m
	if n%2 == 0 {
		k0 = m - 1
	}
	lo, hi, top := orderStats(mag, k0, m)
	floor = hi
	if k0 != m {
		floor = (lo + hi) / 2
	}
	return floor, max(top, 0)
}

// Peak is a local maximum of a differential-magnitude series.
type Peak struct {
	// Pos is the sample index of the maximum.
	Pos int64
	// Value is the magnitude at the maximum.
	Value float64
}

// Suppress applies greedy non-maximum suppression: peaks are visited in
// (value descending, position ascending) order — a total order, so the
// result is deterministic even under exact value ties — and any peak
// within minSpacing of an already accepted peak is dropped. The result
// is re-sorted by position; the input is not modified. Greedy
// acceptance only ever interacts within minSpacing, so running Suppress
// on position-separated chunks whose boundary gaps are ≥ minSpacing
// equals one global pass — the property the incremental edge detector's
// chunked flushing builds on.
//
// The pass runs one conflict run at a time (see Suppressor.runs) over
// the peaks in position order — a sorted copy when the input is not
// already in it — and costs O(n log n) in the peak count where the
// previous kept-list scan was O(n²), quadratic exactly when it hurt,
// under spurious-edge fault floods.
func Suppress(peaks []Peak, minSpacing int64) []Peak {
	var sp Suppressor
	return sp.Suppress(make([]Peak, 0, len(peaks)), peaks, minSpacing)
}

func sortPeaksByValue(peaks []Peak) {
	slices.SortFunc(peaks, func(a, b Peak) int {
		if a.Value != b.Value {
			if a.Value > b.Value {
				return -1
			}
			return 1
		}
		switch {
		case a.Pos < b.Pos:
			return -1
		case a.Pos > b.Pos:
			return 1
		}
		return 0
	})
}

func sortPeaksByPos(peaks []Peak) {
	slices.SortFunc(peaks, func(a, b Peak) int {
		switch {
		case a.Pos < b.Pos:
			return -1
		case a.Pos > b.Pos:
			return 1
		}
		// Value-descending tiebreak makes the order total: duplicate
		// positions (possible only when minSpacing < 1) sort
		// deterministically.
		switch {
		case a.Value > b.Value:
			return -1
		case a.Value < b.Value:
			return 1
		}
		return 0
	})
}

// suppressSorted greedily accepts peaks from byValue (already in value
// desc, position asc order) into dst, skipping any within minSpacing
// (≥ 1) of an accepted peak, on a grid of minSpacing-wide cells:
// accepted peaks are pairwise ≥ minSpacing apart, so a cell holds at
// most one, and a candidate can only conflict with the occupants of its
// own and the two adjacent cells. cells is a reusable cell→position map
// (it is cleared first); nil allocates one.
func suppressSorted(dst, byValue []Peak, cells map[int64]int64, minSpacing int64) []Peak {
	if cells == nil {
		cells = make(map[int64]int64, len(byValue))
	} else {
		clear(cells)
	}
	for _, p := range byValue {
		c := p.Pos / minSpacing
		if p.Pos < 0 && p.Pos%minSpacing != 0 {
			c-- // floored division: cells stay minSpacing wide below zero
		}
		ok := true
		for _, cc := range [3]int64{c - 1, c, c + 1} {
			if kp, hit := cells[cc]; hit {
				d := p.Pos - kp
				if d < 0 {
					d = -d
				}
				if d < minSpacing {
					ok = false
					break
				}
			}
		}
		if ok {
			cells[c] = p.Pos
			dst = append(dst, p)
		}
	}
	return dst
}

// Suppressor is Suppress with caller-owned scratch, for allocation-free
// steady-state reuse (the streaming detector suppresses one chunk per
// flush). The zero value is ready to use.
type Suppressor struct {
	byPos   []Peak
	byValue []Peak
	cells   map[int64]int64
}

// Suppress runs the NMS over chunk, reusing dst (re-sliced to zero
// length) for the result, which is returned sorted by position.
// Semantics are identical to the package-level Suppress; chunk is not
// modified. Greedy NMS does not depend on the order of its input, so
// chunk, when it is not in position order already (a local-maximum
// scan emits it in that order), is suppressed as a sorted copy.
func (sp *Suppressor) Suppress(dst, chunk []Peak, minSpacing int64) []Peak {
	if !sortedByPos(chunk) {
		sp.byPos = append(sp.byPos[:0], chunk...)
		sortPeaksByPos(sp.byPos)
		chunk = sp.byPos
	}
	return sp.runs(dst[:0], chunk, minSpacing)
}

// runMax is the longest conflict run suppressed by insertion sort.
// Longer runs, which spurious-edge floods chain up, take the cell grid,
// so no input costs more than O(n log n).
const runMax = 32

// runs appends to dst the greedy NMS of peaks, which must be in
// sortPeaksByPos order, and returns it in that order.
// Greedy decisions interact only between peaks less than minSpacing
// apart, so they never cross a gap of minSpacing or more between
// consecutive peaks: each maximal run of consecutive peaks closer than
// that is suppressed on its own, in the global (value desc, position
// asc) order restricted to the run, and the runs' results concatenate
// in position order. A lone peak, the common case, is kept outright;
// with minSpacing < 1 every peak is lone.
func (sp *Suppressor) runs(dst, peaks []Peak, minSpacing int64) []Peak {
	for i := 0; i < len(peaks); {
		j := i + 1
		for j < len(peaks) && peaks[j].Pos-peaks[j-1].Pos < minSpacing {
			j++
		}
		run := peaks[i:j]
		i = j
		if len(run) == 1 {
			dst = append(dst, run[0])
			continue
		}
		start := len(dst)
		sp.byValue = append(sp.byValue[:0], run...)
		if len(run) > runMax {
			sortPeaksByValue(sp.byValue)
			if sp.cells == nil {
				sp.cells = make(map[int64]int64, 64)
			}
			dst = suppressSorted(dst, sp.byValue, sp.cells, minSpacing)
			sortPeaksByPos(dst[start:])
			continue
		}
		insertionPeaks(sp.byValue, valueFirst)
	next:
		for _, p := range sp.byValue {
			for _, k := range dst[start:] {
				if d := p.Pos - k.Pos; d < minSpacing && -d < minSpacing {
					continue next
				}
			}
			dst = append(dst, p)
		}
		insertionPeaks(dst[start:], posFirst)
	}
	return dst
}

// sortedByPos reports whether peaks are in sortPeaksByPos order.
func sortedByPos(peaks []Peak) bool {
	for i := 1; i < len(peaks); i++ {
		if posFirst(peaks[i], peaks[i-1]) {
			return false
		}
	}
	return true
}

// valueFirst and posFirst are sortPeaksByValue's and sortPeaksByPos's
// orders as strict less-than tests.
func valueFirst(a, b Peak) bool {
	return a.Value > b.Value || a.Value == b.Value && a.Pos < b.Pos
}

func posFirst(a, b Peak) bool {
	return a.Pos < b.Pos || a.Pos == b.Pos && a.Value > b.Value
}

// insertionPeaks sorts a short run of peaks by less.
func insertionPeaks(a []Peak, less func(a, b Peak) bool) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && less(x, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// RetainedBytes reports the live scratch held by the suppressor, for
// callers that account their window state (the streaming detector).
func (sp *Suppressor) RetainedBytes() int64 {
	return int64(len(sp.byPos)+len(sp.byValue)) * 16
}

// Abs returns |x| for a complex value (hypot of the parts).
func Abs(x complex128) float64 { return math.Hypot(real(x), imag(x)) }

// Dist returns the Euclidean distance between two complex points.
func Dist(a, b complex128) float64 { return Abs(a - b) }

// The distance screen answers Dist comparisons from squared distances
// and calls the exact Dist only where the squares cannot decide: inside
// a relative band distBand around r², for radii outside
// [distMinRadius, distMaxRadius] (underflow, overflow, NaN), and for a
// NaN square. An overflowed square still proves the distance beyond
// any such radius. DESIGN.md §12 "Distance screen" has the bound.
const (
	distBand      = 0x1p-40
	distMinRadius = 0x1p-450 // r² ≥ distSqFloor, a normal float
	distMaxRadius = 0x1p500  // r²·(1+distBand) stays finite
	distSqFloor   = 0x1p-900
)

// DistSq returns the squared distance screen of a and b: the squares of
// the difference Dist takes, summed, with no Hypot.
func DistSq(a, b complex128) float64 {
	d := a - b
	return real(d)*real(d) + imag(d)*imag(d)
}

// distBounds returns the screen's squared-distance bounds for radius r:
// DistSq < lo proves Dist ≤ r and DistSq > hi proves Dist > r. For a
// radius outside the screened range lo = −1 and hi = +Inf, so every
// comparison goes to the exact Dist.
func distBounds(r float64) (lo, hi float64) {
	if !(r >= distMinRadius && r <= distMaxRadius) {
		return -1, math.Inf(1)
	}
	r2 := r * r
	return r2 * (1 - distBand), r2 * (1 + distBand)
}

// distSide classifies Dist(a, b) against r from DistSq alone: −1 when
// Dist ≤ r is proved, +1 when Dist > r is proved, and 0 when only the
// exact Dist can tell.
func distSide(a, b complex128, r float64) int {
	lo, hi := distBounds(r)
	switch s := DistSq(a, b); {
	case s < lo:
		return -1
	case s > hi:
		return 1
	}
	return 0
}

// DistWithin reports Dist(a, b) <= r, bit for bit, computing the exact
// Dist only where the squared distance cannot decide. Like the plain
// comparison it is false when the distance or r is NaN.
func DistWithin(a, b complex128, r float64) bool {
	if side := distSide(a, b, r); side != 0 {
		return side < 0
	}
	return Dist(a, b) <= r
}

// DistBeyond reports Dist(a, b) > r the same way. It is not
// !DistWithin: both are false when the distance or r is NaN.
func DistBeyond(a, b complex128, r float64) bool {
	if side := distSide(a, b, r); side != 0 {
		return side > 0
	}
	return Dist(a, b) > r
}

// CountWithinPM counts the points within r of c or of −c — those for
// which DistWithin(q, c, r) || DistWithin(q, -c, r) — with the screen
// inlined into one loop, for all-pairs counts where a call per
// comparison would cost more than the Hypot it saves.
func CountWithinPM(points []complex128, c complex128, r float64) int {
	lo, hi := distBounds(r)
	nc := -c
	n := 0
	for _, q := range points {
		if s := DistSq(q, c); s < lo || !(s > hi) && Dist(q, c) <= r {
			n++
		} else if s := DistSq(q, nc); s < lo || !(s > hi) && Dist(q, nc) <= r {
			n++
		}
	}
	return n
}

// DistSqCut bounds a nearest-neighbour search run on squared distances.
// Given m, the smallest DistSq among a set of candidates, a candidate
// whose DistSq is above DistSqCut(m) is strictly farther by Dist than
// the one at m, so it cannot hold the exact minimum Dist; the rest,
// NaN squares included, must be compared exactly.
func DistSqCut(m float64) float64 { return max(m*(1+distBand), distSqFloor) }
