package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// distPoint draws a complex point from a mix meant to stress the
// distance screen: signed zeros, small integers (exact ties and
// duplicates), magnitudes from 1e-150 to 1e150, a neighbour of ref
// within a few ulps, and the odd NaN or infinity.
func distPoint(rng *rand.Rand, ref complex128) complex128 {
	part := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2, 3:
			return float64(rng.Intn(7) - 3)
		case 4:
			if rng.Intn(8) == 0 {
				return math.NaN()
			}
			return math.Inf(1 - 2*rng.Intn(2))
		}
		return (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(301)-150))
	}
	switch rng.Intn(4) {
	case 0:
		return ref
	case 1:
		// A few ulps away from ref, at ref's own scale.
		re, im := real(ref), imag(ref)
		for k := rng.Intn(4); k > 0; k-- {
			re = math.Nextafter(re, math.Inf(1))
			im = math.Nextafter(im, math.Inf(-1))
		}
		return complex(re, im)
	case 2:
		// Same exponent as ref: distances far above the underflow range.
		s := math.Max(math.Abs(real(ref)), math.Abs(imag(ref)))
		if s == 0 || math.IsInf(s, 0) || math.IsNaN(s) {
			s = 1
		}
		return ref + complex(s*(rng.Float64()*2-1), s*(rng.Float64()*2-1))
	}
	return complex(part(), part())
}

// distRadii returns radii on, one ulp around and just around the exact
// distance d, where a plain squared comparison first goes wrong, plus
// the edge values the screen must refuse.
func distRadii(rng *rand.Rand, d float64) []float64 {
	return []float64{
		d, math.Nextafter(d, math.Inf(1)), math.Nextafter(d, math.Inf(-1)),
		d * (1 + 1e-12), d * (1 - 1e-12), d * (1 + 1e-9), d * 2, d / 3,
		0, math.Copysign(0, -1), -d, math.NaN(), math.Inf(1),
		distMinRadius, distMaxRadius, rng.Float64() * d,
	}
}

// checkDist holds DistWithin, DistBeyond and CountWithinPM to the exact
// comparisons and reports whether a plain squared comparison would have
// answered DistWithin wrongly for a radius inside the screened range.
func checkDist(t *testing.T, a, b complex128, r float64) (plainWrong bool) {
	t.Helper()
	d := Dist(a, b)
	if got, want := DistWithin(a, b, r), d <= r; got != want {
		t.Fatalf("DistWithin(%v, %v, %v) = %v, Dist %v <= r is %v", a, b, r, got, d, want)
	}
	if got, want := DistBeyond(a, b, r), d > r; got != want {
		t.Fatalf("DistBeyond(%v, %v, %v) = %v, Dist %v > r is %v", a, b, r, got, d, want)
	}
	pts := []complex128{a, -a, b, a + b}
	want := 0
	for _, q := range pts {
		if Dist(q, b) <= r || Dist(q, -b) <= r {
			want++
		}
	}
	if got := CountWithinPM(pts, b, r); got != want {
		t.Fatalf("CountWithinPM(%v, %v, %v) = %d, exact count %d", pts, b, r, got, want)
	}
	screened := r >= distMinRadius && r <= distMaxRadius
	return screened && (DistSq(a, b) <= r*r) != (d <= r)
}

// TestDistWithin pins the distance screen to the exact Dist
// comparisons over random points with ties, duplicates, signed zeros,
// NaN, infinities and magnitudes from 1e-150 to 1e150, at radii set on
// and one ulp around each exact distance. It also checks the test can
// fail: a plain squared comparison must get some of these cases wrong.
func TestDistWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	wrong := 0
	for i := 0; i < 40000; i++ {
		a := distPoint(rng, 0)
		b := distPoint(rng, a)
		for _, r := range distRadii(rng, Dist(a, b)) {
			if checkDist(t, a, b, r) {
				wrong++
			}
		}
	}
	if wrong == 0 {
		t.Fatal("a plain squared comparison agreed on every case; the radii miss the rounding band")
	}
	t.Logf("plain squared comparison wrong on %d cases", wrong)
}

// TestDistSqCut checks the nearest-neighbour cut: the minimum exact Dist
// over the candidates whose DistSq is not above DistSqCut of the
// smallest DistSq equals the minimum over all of them, bit for bit, on
// the same adversarial point sets plus rings of equidistant points.
func TestDistSqCut(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	skipped := 0
	for i := 0; i < 4000; i++ {
		p := distPoint(rng, 0)
		qs := make([]complex128, 1+rng.Intn(40))
		// A ring much wider than |p|, so q−p rounds at the ring's own
		// scale and the distances agree to an ulp or two.
		ring := math.Max(math.Abs(real(p)), math.Abs(imag(p))) * 1e6
		if ring == 0 || ring > 1e150 || math.IsNaN(ring) {
			ring = 1
		}
		for j := range qs {
			switch rng.Intn(3) {
			case 0:
				qs[j] = distPoint(rng, p)
			case 1:
				qs[j] = distPoint(rng, qs[rng.Intn(j+1)])
			default:
				// On the ring: squares and Hypot can order these
				// distances differently.
				s, c := math.Sincos(2 * math.Pi * rng.Float64())
				qs[j] = p + complex(c, s)*complex(ring, 0)
			}
		}
		want, m := math.Inf(1), math.Inf(1)
		for _, q := range qs {
			if d := Dist(p, q); d < want {
				want = d
			}
			if s := DistSq(p, q); s < m {
				m = s
			}
		}
		cut := DistSqCut(m)
		got := math.Inf(1)
		for _, q := range qs {
			if DistSq(p, q) > cut {
				skipped++
				continue
			}
			if d := Dist(p, q); d < got {
				got = d
			}
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("set %d: screened minimum %v, exact %v (m %v, cut %v)", i, got, want, m, cut)
		}
	}
	if skipped == 0 {
		t.Fatal("the cut never skipped a candidate")
	}
}

// FuzzDistWithin drives the distance screen with fuzzer-chosen points
// and radii, plus radii placed on and one ulp around the exact distance.
func FuzzDistWithin(f *testing.F) {
	f.Add(1.0, 2.0, 4.0, 6.0, 5.0)
	f.Add(1e-150, -3e-151, 0.0, 1e-150, 1e-150)
	f.Add(1e150, 1e150, -1e150, 0.0, 2e150)
	f.Add(math.NaN(), 0.0, 1.0, 1.0, 1.0)
	f.Add(math.Inf(1), math.NaN(), 0.0, 0.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, ar, ai, br, bi, r float64) {
		a, b := complex(ar, ai), complex(br, bi)
		d := Dist(a, b)
		for _, rr := range []float64{r, d, math.Nextafter(d, math.Inf(1)), math.Nextafter(d, math.Inf(-1))} {
			checkDist(t, a, b, rr)
		}
	})
}
