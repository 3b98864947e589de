package dsp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// medianReference is NoiseFloorMax by definition: the sorted slice's
// middle value (the mean of the two middle values for even n, NaNs
// sorting first), and the largest value above 0 (else 0).
func medianReference(xs []float64) (med, top float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	m := len(cp) / 2
	med = cp[m]
	if len(cp)%2 == 0 {
		med = (cp[m-1] + cp[m]) / 2
	}
	for _, v := range xs {
		if v > top {
			top = v
		}
	}
	return med, top
}

// floorSeries builds the series TestNoiseFloorMatchesReference and
// FuzzNoiseFloor check, by kind: random magnitudes, signed values,
// heavy ties, all equal, signed zeros, NaN-sprinkled, organ pipe, and
// a median-of-three killer sequence.
func floorSeries(rng *rand.Rand, kind, n int) []float64 {
	xs := make([]float64, n)
	switch kind % 8 {
	case 0:
		for i := range xs {
			xs[i] = math.Abs(rng.NormFloat64())
		}
	case 1:
		for i := range xs {
			xs[i] = rng.NormFloat64() * 1e3
		}
	case 2:
		for i := range xs {
			xs[i] = float64(rng.Intn(4))
		}
	case 3:
		v := rng.Float64()
		for i := range xs {
			xs[i] = v
		}
	case 4:
		for i := range xs {
			switch rng.Intn(3) {
			case 0:
				xs[i] = math.Copysign(0, -1)
			case 1:
				xs[i] = 0
			default:
				xs[i] = rng.NormFloat64()
			}
		}
	case 5:
		for i := range xs {
			if rng.Intn(20) == 0 {
				xs[i] = math.NaN()
			} else {
				xs[i] = math.Abs(rng.NormFloat64())
			}
		}
	case 6:
		for i := range xs {
			xs[i] = float64(min(i, n-1-i))
		}
	case 7:
		// Musser's median-of-3 killer, which drives a median-of-three
		// quickselect quadratic.
		k := n / 2
		for i := 0; i < k; i++ {
			if i%2 == 0 {
				xs[i] = float64(i + 1)
			} else {
				xs[i] = float64(k + i + 1)
			}
			xs[k+i] = float64(2 * (i + 1))
		}
		if n%2 == 1 {
			xs[n-1] = float64(n)
		}
	}
	return xs
}

// nonNegative reports whether xs is NaN-free with no value below +0
// (−0 included), where NoiseFloorMax must match the reference bit for
// bit; elsewhere a zero may come out with either sign.
func nonNegative(xs []float64) bool {
	for _, v := range xs {
		if !(v >= 0) || math.Signbit(v) {
			return false
		}
	}
	return true
}

// checkFloor holds NoiseFloorMax to medianReference on
// xs, and checks xs is left as it was.
func checkFloor(t *testing.T, name string, xs []float64) {
	t.Helper()
	orig := append([]float64(nil), xs...)
	want, wantTop := medianReference(xs)
	got, top := NoiseFloorMax(xs)
	same := func(a, b float64) bool {
		if nonNegative(orig) {
			return math.Float64bits(a) == math.Float64bits(b)
		}
		return a == b || math.IsNaN(a) && math.IsNaN(b)
	}
	if !same(got, want) || !same(top, wantTop) {
		t.Fatalf("%s (n=%d): NoiseFloorMax = (%v, %v), reference (%v, %v)", name, len(xs), got, top, want, wantTop)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("%s: input changed at %d", name, i)
		}
	}
}

// TestNoiseFloorMatchesReference pins the bracket-pass median and
// maximum to the sorted definition across the series kinds, at sizes
// below, at and well above the size where the bracket pass starts.
func TestNoiseFloorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	names := []string{"random", "signed", "ties", "all-equal", "signed-zeros", "nan", "organ-pipe", "killer"}
	for _, n := range []int{1, 2, 3, 10, 1000, selectDirect, selectDirect + 1, 4097, 32768, 100001} {
		for kind, name := range names {
			checkFloor(t, name, floorSeries(rng, kind, n))
		}
	}
}

// FuzzNoiseFloor holds NoiseFloorMax to the sorted definition on
// fuzzer-chosen series kinds and sizes, with extra values spliced in.
func FuzzNoiseFloor(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(3000), 0.0, uint16(0))
	f.Add(int64(2), uint8(5), uint16(40000), math.Inf(1), uint16(7))
	f.Add(int64(3), uint8(7), uint16(1025), -0.0, uint16(100))
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, sz uint16, extra float64, copies uint16) {
		rng := rand.New(rand.NewSource(seed))
		xs := floorSeries(rng, int(kind), int(sz)%50000)
		for i := 0; i < int(copies)%(len(xs)+1); i++ {
			xs[rng.Intn(len(xs))] = extra
		}
		checkFloor(t, "fuzz", xs)
	})
}

// screenWindow sweeps samples' interior with the uncut screen and
// exactly, returning the ScreenWindow over it (blanked margins
// included) and the exact values, blanks as 0.
func screenWindow(samples []complex128, gap, win int64) (ScreenWindow, []float64) {
	p := NewPrefixSoA(samples)
	n := len(samples)
	margin := int(gap + win)
	screen := make([]float64, n)
	exact := make([]float64, n)
	for i := range screen {
		screen[i] = -1
	}
	var eSeen float64
	if n > 2*margin {
		eSeen = DiffSweepScreen(p.Re, p.Im, margin, gap, win, math.Inf(1), screen[margin:n-margin])
		DiffSweep(p.Re, p.Im, margin, gap, win, exact[margin:n-margin])
	}
	return ScreenWindow{Screen: screen, ESeen: eSeen, Re: p.Re, Im: p.Im, Gap: gap, Win: win}, exact
}

// checkBand checks the band's ordering claims for pivot position q
// against every position i: S_i < bandLo(S_q) ⇒ v_i < v_q,
// S_i > bandHi(S_q) ⇒ v_i > v_q, and v_i ≤ Upper(S_i). It returns how
// many positions whose exact values are within one ulp of v_q's lie on
// the other side of it on the screen or tie with it there — the order
// the screen cannot tell and the band must resolve.
func checkBand(t *testing.T, sw *ScreenWindow, exact []float64, q int) (inverted int) {
	t.Helper()
	sq, vq := sw.Screen[q], exact[q]
	lo, hi := sw.bandLo(sq), sw.bandHi(sq)
	for i, s := range sw.Screen {
		v := exact[i]
		if s < lo && !(v < vq) {
			t.Fatalf("position %d: screen %v below band [%v, %v] of %d (screen %v) but exact %v ≥ %v", i, s, lo, hi, q, sq, v, vq)
		}
		if s > hi && !(v > vq) {
			t.Fatalf("position %d: screen %v above band [%v, %v] of %d (screen %v) but exact %v ≤ %v", i, s, lo, hi, q, sq, v, vq)
		}
		if up := sw.Upper(s); !(v <= up) {
			t.Fatalf("position %d: exact %v above Upper(%v) = %v", i, v, s, up)
		}
		near := v == math.Nextafter(vq, math.Inf(1)) || v == math.Nextafter(vq, math.Inf(-1))
		if near && (s == sq || (v < vq) != (s < sq)) {
			inverted++
		}
	}
	return inverted
}

// TestScreenWindowFloor holds the screened calibration to the exact
// one: over carriers up to 1e6 with steps 12 digits below them,
// magnitudes from 1e-140 to 1e148, and exact plateaus and ties,
// ScreenWindow.Floor and Max must return NoiseFloorMax of the exact
// values bit for bit, and the band must order every position against
// the median's, random pivots, and pivots whose exact value has a
// neighbour one ulp away. It also checks that the screen failed to
// order some of those one-ulp neighbours (a tie or an inversion on the
// screen), so the band was put to work.
func TestScreenWindowFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const gap, win = int64(2), int64(3)
	inverted := 0
	for _, dc := range []float64{0, 1, 1e3, 1e6} {
		for _, rel := range []float64{1e-1, 1e-6, 1e-12} {
			for _, scale := range []float64{1e-140, 1e-60, 1, 1e60, 1e148} {
				for _, ties := range []bool{false, true} {
					n := 1500 + rng.Intn(3000)
					sw, exact := screenWindow(screenCapture(rng, n, dc, rel, 0.2, scale, ties), gap, win)
					wantFloor, wantMax := NoiseFloorMax(exact)
					floor, top, ok := sw.Floor()
					if !ok {
						if !math.IsInf(top, 1) && scale < 1e148 {
							t.Fatalf("dc %g rel %g scale %g ties %v: Floor refused", dc, rel, scale, ties)
						}
						continue
					}
					if math.Float64bits(floor) != math.Float64bits(wantFloor) {
						t.Fatalf("dc %g rel %g scale %g ties %v: Floor %v, exact median %v", dc, rel, scale, ties, floor, wantFloor)
					}
					if mx := sw.Max(top); math.Float64bits(mx) != math.Float64bits(wantMax) {
						t.Fatalf("dc %g rel %g scale %g ties %v: Max %v, exact %v", dc, rel, scale, ties, mx, wantMax)
					}
					if up := sw.Upper(top); !(wantMax <= up) {
						t.Fatalf("dc %g rel %g scale %g ties %v: exact max %v above Upper(top) %v", dc, rel, scale, ties, wantMax, up)
					}
					order := make([]int, n)
					for i := range order {
						order[i] = i
					}
					sort.Slice(order, func(a, b int) bool { return exact[order[a]] < exact[order[b]] })
					inverted += checkBand(t, &sw, exact, order[n/2])
					for k := 0; k < 4; k++ {
						inverted += checkBand(t, &sw, exact, rng.Intn(n))
					}
					pivots := 0
					for k := 1; k < n && pivots < 4; k++ {
						if a, b := exact[order[k-1]], exact[order[k]]; a > 0 && b == math.Nextafter(a, math.Inf(1)) {
							inverted += checkBand(t, &sw, exact, order[k])
							pivots++
						}
					}
				}
			}
		}
	}
	if inverted == 0 {
		t.Fatal("no value one ulp from a pivot was misordered by the screen: the band was never needed")
	}
}

// floorSink keeps BenchmarkNoiseFloor's result live.
var floorSink float64

// BenchmarkNoiseFloor times the median and maximum of a
// 32768-position noise-magnitude window, the streaming decoders'
// calibration window size.
func BenchmarkNoiseFloor(b *testing.B) {
	xs := floorSeries(rand.New(rand.NewSource(1)), 0, 32768)
	b.SetBytes(int64(8 * len(xs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		floorSink, _ = NoiseFloorMax(xs)
	}
}
