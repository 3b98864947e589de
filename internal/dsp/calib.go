package dsp

import (
	"math"
	"math/bits"

	"lf/internal/pool"
)

// Screened calibration: the detector's noise floor and maximum taken
// from a DiffSweepScreen window, exact without an exact sweep.
// DESIGN.md §12 "Calibration" has the bound.
//
// With u = 2⁻⁵³, w = win and E the position's |Ta|+|Tb|+|Ua|+|Ub|, the
// exact value v of a position with screen value S lies in
//
//	(1−8u)·√S/w − u·E/w − η  ≤  v  ≤  (1+8u)·(√S + u·E)/w + η,
//
// where η = screenUnderflow covers underflow. A band around a pivot's
// screen value therefore holds every position whose exact value can
// tie with or cross the pivot's, and positions outside it order the
// same way exactly as on the screen.

// bandRel is the band's relative slack. It is far above the few dozen
// ulps the bound and its float evaluation add up to, so every step of
// that evaluation may round either way.
const bandRel = 0x1p-40

// screenUnderflow bounds the absolute error underflow adds to an exact
// value or to √S.
const screenUnderflow = 1e-160

// bandTiny is the smallest lower band edge, in √S units, that bandLo
// squares: below it the square could lose precision to underflow, so
// the band reaches down to the blanked positions instead.
const bandTiny = 1e-140

// ScreenWindow is a calibration window swept by DiffSweepScreen with
// eMax = +Inf: Screen[i] holds the screen value of prefix index i, or a
// negative value where the position is blanked (its exact value is 0). Every other position must be interior to Re/Im, whose finite
// sums make every screen value a number. ESeen is the largest E the
// sweep returned over the window.
type ScreenWindow struct {
	Screen   []float64
	ESeen    float64
	Re, Im   []float64
	Gap, Win int64
}

// exact returns the exact DiffSweep value at window index i.
func (sw *ScreenWindow) exact(i int) float64 {
	if sw.Screen[i] < 0 {
		return 0
	}
	return DiffAt(sw.Re, sw.Im, i, sw.Gap, sw.Win)
}

// slack is the band's absolute term in √S units: 4u·ESeen + 4w·η, at
// least twice the u·E·(2+8u) + 2w·η the two bounds add.
func (sw *ScreenWindow) slack() float64 {
	return 0x1p-51*sw.ESeen + 4*screenUnderflow*float64(sw.Win)
}

// bandLo returns a screen value below which a position's exact value
// is strictly below the exact value of every position whose screen
// value is p, or −Inf — every position, the blanked ones included —
// when p is too small for that to hold above the blanks' 0.
func (sw *ScreenWindow) bandLo(p float64) float64 {
	if !(p > 0) {
		return math.Inf(-1)
	}
	t := math.Sqrt(p)*(1-bandRel) - sw.slack()
	if !(t >= bandTiny) {
		return math.Inf(-1)
	}
	return t * t * (1 - bandRel)
}

// bandHi returns a screen value above which a position's exact value
// is strictly above the exact value of every position whose screen
// value is p (+Inf when that bound overflows).
func (sw *ScreenWindow) bandHi(p float64) float64 {
	t := (math.Sqrt(max(p, 0))*(1+bandRel) + sw.slack()) * (1 + bandRel)
	return t * t * (1 + bandRel)
}

// Upper returns an upper bound on the exact value of any position whose
// screen value is p.
func (sw *ScreenWindow) Upper(p float64) float64 {
	if p < 0 {
		return 0
	}
	return (math.Sqrt(p)*(1+bandRel) + sw.slack()) * (1 + bandRel) / float64(sw.Win) * (1 + bandRel)
}

// Floor returns the window's noise floor — NoiseFloor of its exact
// values, bit for bit — and its greatest screen value, for Upper and
// Max. It selects the median ranks on screen values, computes exact
// values only inside the band around them, and selects the ranks among
// those. ok is false when the window is empty, ESeen is not finite, a
// screen value is +Inf (an overflowed square), or the band misses a
// median rank, which the bound rules out; the caller must then
// calibrate on exact values.
func (sw *ScreenWindow) Floor() (floor, top float64, ok bool) {
	n := len(sw.Screen)
	if n == 0 || !(sw.ESeen <= math.MaxFloat64) {
		return 0, 0, false
	}
	m := n / 2
	k0 := m
	if n%2 == 0 {
		k0 = m - 1
	}
	p0, p1, top := orderStats(sw.Screen, k0, m)
	if math.IsInf(top, 1) {
		return 0, 0, false
	}
	buf := pool.FloatUninit(n + 1)
	defer pool.PutFloat(buf)
	below, in := bandPass(sw.Screen, buf, sw.bandLo(p0), sw.bandHi(p1))
	band := buf[:in]
	for j, fi := range band {
		band[j] = sw.exact(int(fi))
	}
	if k0 < below || m >= below+in {
		return 0, 0, false // the band missed a median rank: calibrate exactly
	}
	v0, v1, _ := orderStats(band, k0-below, m-below)
	floor = v1
	if k0 != m {
		floor = (v0 + v1) / 2
	}
	return floor, top, true
}

// Max returns the window's greatest exact value (0 when none is
// positive), given top, the greatest screen value Floor returned: only
// positions whose screen value reaches bandLo(top) can hold it.
func (sw *ScreenWindow) Max(top float64) float64 {
	lo := sw.bandLo(top)
	var m float64
	for i, s := range sw.Screen {
		if s >= lo && s >= 0 {
			m = max(m, sw.exact(i))
		}
	}
	return m
}

// bandPass counts the NaN-free values of xs below lo and writes the
// indices of those in [lo, hi], as float64s, to the front of dst (at
// least len(xs)+1 long). Like bracketPass it is branch-free: half the
// values of a median band fall on either side, so a branch on the
// comparison would mispredict at random.
func bandPass(xs, dst []float64, lo, hi float64) (below, in int) {
	loK := floatKey(lo)
	span := floatKey(hi) - loK
	dst = dst[:len(xs)+1]
	for i, v := range xs {
		d, lt := bits.Sub64(floatKey(v), loK, 0)
		_, out := bits.Sub64(span, d, 0)
		dst[in] = float64(i)
		in += int(1 - out)
		below += int(lt)
	}
	return below, in
}
