// Linear-time order statistics for the noise-floor estimate. The
// detector takes one median per calibration window over the
// differential series. The k-th smallest value under a total order does
// not depend on the algorithm that finds it, so every selector here
// returns the sorted reference's value. The bracket pass (orderStats)
// narrows the ranks with sampled pivots and one branch-free counting
// pass; quickselect finishes a small remainder and is the fallback.
package dsp

import (
	"math"
	"math/bits"

	"lf/internal/pool"
)

// fless orders float64s exactly like sort.Float64s / slices.Sort: NaNs
// first, then ascending value. Matching the library order keeps the
// selected order statistics identical to the sorted reference even on
// adversarial inputs carrying NaNs.
func fless(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// selectSmall is the window size below which selection finishes with an
// insertion sort instead of further partitioning.
const selectSmall = 12

// selectFloat partially rearranges a so that a[k] holds the k-th
// smallest element (0-based, fless order) and every element of a[:k]
// orders at or below it. Three-way partitioning collapses runs of equal
// keys — the common case for blanked differential series — in one pass.
func selectFloat(a []float64, k int) float64 {
	lo, hi := 0, len(a)
	for hi-lo > selectSmall {
		p := pivotFloat(a, lo, hi)
		lt, gt := partition3(a, lo, hi, p)
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p // a[lt:gt] all equal p, and a[:lt] orders below
		}
	}
	insertionFloats(a[lo:hi])
	return a[k]
}

// pivotFloat picks a partition pivot: median of three for small
// windows, ninther (median of three medians-of-three) for large ones,
// bounding the depth on organ-pipe and killer-sequence inputs.
func pivotFloat(a []float64, lo, hi int) float64 {
	n := hi - lo
	m := lo + n/2
	if n > 512 {
		s := n / 8
		return median3(
			median3(a[lo], a[lo+s], a[lo+2*s]),
			median3(a[m-s], a[m], a[m+s]),
			median3(a[hi-1-2*s], a[hi-1-s], a[hi-1]),
		)
	}
	return median3(a[lo], a[m], a[hi-1])
}

func median3(x, y, z float64) float64 {
	if fless(y, x) {
		x, y = y, x
	}
	if fless(z, y) {
		y = z
		if fless(y, x) {
			y = x
		}
	}
	return y
}

// partition3 is a Dutch-national-flag pass: on return a[lo:lt] orders
// strictly below p, a[lt:gt] is equivalent to p, a[gt:hi] strictly
// above.
func partition3(a []float64, lo, hi int, p float64) (lt, gt int) {
	i, lt, gt := lo, lo, hi
	for i < gt {
		x := a[i]
		switch {
		case fless(x, p):
			a[i], a[lt] = a[lt], x
			lt++
			i++
		case fless(p, x):
			gt--
			a[i], a[gt] = a[gt], a[i]
		default:
			i++
		}
	}
	return lt, gt
}

func insertionFloats(a []float64) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && fless(x, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// maxFloat returns the greatest element of a under the fless order.
func maxFloat(a []float64) float64 {
	m := a[0]
	for _, v := range a[1:] {
		if fless(m, v) {
			m = v
		}
	}
	return m
}

// Bracket-pass geometry: a pass samples bracketSample evenly strided
// values, takes the pivots bracketSlack sample ranks either side of the
// wanted ranks (about three standard deviations of a sampled rank), and
// keeps the values between them. Below selectDirect values quickselect
// finishes.
const (
	bracketSample = 512
	bracketSlack  = 36
	selectDirect  = 1024
)

// floatKey maps v to a uint64 that orders like v under < for non-NaN
// values, with −0 just below +0: the sign bit is flipped for positive
// values and every bit for negative ones.
func floatKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// orderStats returns the values of ranks k0 and k1 = k0 or k0+1
// (0-based, ascending fless order, so NaNs first) of xs, and its
// greatest value that is not NaN (−Inf if there is none). xs is not
// modified. A tie between −0 and +0 may resolve to either zero.
func orderStats(xs []float64, k0, k1 int) (v0, v1, top float64) {
	n := len(xs)
	buf := pool.FloatUninit(n + 1)
	defer pool.PutFloat(buf)
	// A pass reads src and compacts into buf[off:]. After the first, src
	// is itself in buf, and each pass writes to the other end of it: a
	// pass that misses leaves its input whole for quickselect, and every
	// pass after the first has at most half of its predecessor's input.
	src, off, first := xs, 0, true
	for len(src) > selectDirect {
		lo, hi, ok := bracketPivots(src, k0, k1)
		if !ok {
			break
		}
		below, in, topKey := bracketPass(src, buf[off:], lo, hi)
		if first {
			if topKey > floatKey(math.Inf(1)) {
				break // a NaN the pass ordered last
			}
			top = math.Float64frombits(topKey ^ (uint64(int64(^topKey)>>63) | 1<<63))
		}
		if below > k0 || k1 >= below+in {
			break // the bracket missed a rank
		}
		if lo == hi {
			return lo, lo, top // every kept value equals the pivot
		}
		shrunk := in <= len(src)/2
		src, first = buf[off:off+in], false
		off = len(src) // the next pass writes past src, or to the front
		if &src[0] != &buf[0] {
			off = 0
		}
		k0 -= below
		k1 -= below
		if !shrunk {
			break // ties at the pivots: another pass would keep them all
		}
	}
	if first {
		src = buf[:len(xs)]
		copy(src, xs)
		top = math.Inf(-1)
		for _, v := range xs {
			if v > top {
				top = v
			}
		}
	}
	v0, v1 = selectPair(src, k0, k1)
	return v0, v1, top
}

// selectPair quickselects ranks k0 and k1 (k1 = k0 or k0+1) of a,
// rearranging it.
func selectPair(a []float64, k0, k1 int) (v0, v1 float64) {
	v1 = selectFloat(a, k1)
	if k0 == k1 {
		return v1, v1
	}
	return maxFloat(a[:k1]), v1
}

// bracketPivots samples xs at an even stride and returns values that
// bracket ranks k0..k1 with high probability: the sample's order
// statistics bracketSlack ranks outside the scaled ranks. ok is false
// when the sample holds a NaN, which the counting pass cannot order.
func bracketPivots(xs []float64, k0, k1 int) (lo, hi float64, ok bool) {
	n := len(xs)
	var sample [bracketSample]float64
	stride := n / bracketSample
	for i := range sample {
		v := xs[i*stride+stride/2]
		if v != v {
			return 0, 0, false
		}
		sample[i] = v
	}
	r0 := max(k0*bracketSample/n-bracketSlack, 0)
	r1 := min(k1*bracketSample/n+bracketSlack, bracketSample-1)
	hi = selectFloat(sample[:], r1)
	lo = selectFloat(sample[:r1+1], r0)
	return lo, hi, true
}

// bracketPass counts the values of xs below lo, compacts those in
// [lo, hi] into dst (at least len(xs)+1 long), and returns the count below, the count kept, and the
// greatest value's floatKey. The loop has no data-dependent branch:
// the kept value is stored unconditionally and the cursor advances by
// the comparison's borrow. A NaN with the sign bit set keys below every
// number, where fless puts it, so it counts below; one without keys
// above +Inf, which the caller detects from the returned key.
func bracketPass(xs, dst []float64, lo, hi float64) (below, in int, topKey uint64) {
	loK := floatKey(lo)
	span := floatKey(hi) - loK
	dst = dst[:len(xs)+1]
	for _, v := range xs {
		k := floatKey(v)
		d, lt := bits.Sub64(k, loK, 0)
		_, out := bits.Sub64(span, d, 0)
		dst[in] = v
		in += int(1 - out)
		below += int(lt)
		topKey = max(topKey, k)
	}
	return below, in, topKey
}
