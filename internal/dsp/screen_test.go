package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// screenCapture synthesizes scale·(dc + steps + noise): a carrier of
// magnitude dc carrying hard steps of relative size rel (so rel = 1e-12
// on dc = 1e6 buries the steps 12 digits below the carrier) and
// Gaussian noise at noise times the step size. With ties, the steps are
// small integers and there is no noise, so at scale 1 every window sum
// is exact and many positions share one differential value exactly
// (plateaus and ties).
func screenCapture(rng *rand.Rand, n int, dc, rel, noise, scale float64, ties bool) []complex128 {
	samples := make([]complex128, n)
	var level complex128
	for i := range samples {
		if rng.Intn(60) == 0 {
			if ties {
				level = complex(float64(rng.Intn(4)), float64(rng.Intn(3)))
			} else {
				level = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			}
		}
		v := complex(dc, -dc/2)
		if ties {
			v += level
		} else {
			step := dc * rel
			if dc == 0 {
				step = 1
			}
			v += level*complex(step, 0) + complex(rng.NormFloat64()*noise*step, rng.NormFloat64()*noise*step)
		}
		samples[i] = v * complex(scale, 0)
	}
	return samples
}

// checkScreen screens every interior position of the prefix sums for
// threshold tau and fails if a skipped position's exact value (exact[i]
// for prefix index margin+i) is not below tau. It returns how many
// positions were skipped and how many tripped the eMax bound.
func checkScreen(t *testing.T, p *PrefixSoA, gap, win int64, exact []float64, tau float64) (skipped, tripped int) {
	t.Helper()
	limit, eMax, ok := ScreenBounds(tau, win)
	if !ok {
		return 0, 0
	}
	screen := make([]float64, len(exact))
	DiffSweepScreen(p.Re, p.Im, int(gap+win), gap, win, eMax, screen)
	for i, s := range screen {
		if math.IsInf(s, 1) {
			tripped++
		}
		if s < limit {
			skipped++
			if !(exact[i] < tau) {
				t.Fatalf("position %d skipped (screen %v < limit %v) but exact %v ≥ tau %v", i, s, limit, exact[i], tau)
			}
		}
	}
	return skipped, tripped
}

// screenTaus returns thresholds that sit on and just above exact
// values, where a loose bound would first skip a position it must
// keep, plus a spread of quantile-like picks.
func screenTaus(rng *rand.Rand, exact []float64) []float64 {
	var taus []float64
	for k := 0; k < 24; k++ {
		v := exact[rng.Intn(len(exact))]
		taus = append(taus, v, math.Nextafter(v, math.Inf(1)), v*(1+1e-9), v*(1+4e-6), v*1.5)
	}
	return taus
}

// TestDiffAtMatchesDiffSweep pins DiffAt bitwise to DiffSweep at every
// interior index, across magnitudes and signal shapes.
func TestDiffAtMatchesDiffSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, scale := range []float64{1e-140, 1e-20, 1, 1e20, 1e148} {
		for _, ties := range []bool{false, true} {
			n := 300 + rng.Intn(1500)
			p := NewPrefixSoA(screenCapture(rng, n, 1e3, 1e-6, 0.1, scale, ties))
			for _, geo := range [][2]int64{{2, 3}, {1, 1}, {3, 8}} {
				gap, win := geo[0], geo[1]
				margin := int(gap + win)
				dense := make([]float64, n-2*margin)
				DiffSweep(p.Re, p.Im, margin, gap, win, dense)
				for i, want := range dense {
					if got := DiffAt(p.Re, p.Im, margin+i, gap, win); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("scale %g ties %v gap %d win %d index %d: DiffAt %v, DiffSweep %v", scale, ties, gap, win, margin+i, got, want)
					}
				}
			}
			p.Release()
		}
	}
}

// TestScreenSound holds DiffSweepScreen and ScreenBounds to their
// contract — a skipped position's exact value is below threshold — on
// carriers up to 1e6 with steps 1e-12 below them, magnitudes from
// 1e-140 to 1e150, exact plateaus and ties, and thresholds placed on
// and just above exact values. It also checks that the screen skips at
// all and that the eMax trip fires on the buried-step captures.
func TestScreenSound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const gap, win = int64(2), int64(3)
	margin := int(gap + win)
	var skipped, tripped int
	for _, dc := range []float64{0, 1, 1e3, 1e6} {
		for _, rel := range []float64{1e-1, 1e-6, 1e-12} {
			for _, scale := range []float64{1e-140, 1e-60, 1, 1e60, 1e148} {
				for _, ties := range []bool{false, true} {
					n := 200 + rng.Intn(600)
					p := NewPrefixSoA(screenCapture(rng, n, dc, rel, 0.2, scale, ties))
					exact := make([]float64, n-2*margin)
					DiffSweep(p.Re, p.Im, margin, gap, win, exact)
					for _, tau := range screenTaus(rng, exact) {
						s, tr := checkScreen(t, p, gap, win, exact, tau)
						skipped += s
						tripped += tr
					}
					p.Release()
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("the screen never skipped a position")
	}
	if tripped == 0 {
		t.Fatal("the eMax bound never tripped")
	}
}

// TestScreenBoundsRange checks the thresholds ScreenBounds refuses: too
// small for the underflow argument, non-finite, or large enough that
// the limit overflows.
func TestScreenBoundsRange(t *testing.T) {
	for _, tau := range []float64{0, 1e-141, math.NaN(), math.Inf(1), 1e160} {
		if _, _, ok := ScreenBounds(tau, 3); ok {
			t.Errorf("ScreenBounds(%g) screens", tau)
		}
	}
	for _, tau := range []float64{screenMinThreshold, 1e-3, 1e150} {
		if _, _, ok := ScreenBounds(tau, 3); !ok {
			t.Errorf("ScreenBounds(%g) does not screen", tau)
		}
	}
}

// FuzzScreenSound drives the screen contract with fuzzer-chosen signal
// shape, magnitude and threshold: every position the screen skips must
// have an exact value below threshold.
func FuzzScreenSound(f *testing.F) {
	f.Add(int64(1), uint16(600), 1e6, 1e-12, 0.2, int16(0), false, uint16(7), 0.0)
	f.Add(int64(2), uint16(900), 1.0, 0.1, 0.5, int16(-140), false, uint16(100), 1e-9)
	f.Add(int64(3), uint16(300), 2.0, 1.0, 0.0, int16(148), true, uint16(40), 0.0)
	f.Fuzz(func(t *testing.T, seed int64, sz uint16, dc, rel, noise float64, exp10 int16, ties bool, pick uint16, nudge float64) {
		if !(dc >= 0 && dc <= 1e6) || !(rel > 0 && rel <= 1) || !(noise >= 0 && noise <= 10) ||
			exp10 < -140 || exp10 > 148 || !(math.Abs(nudge) <= 1) {
			t.Skip()
		}
		const gap, win = int64(2), int64(3)
		margin := int(gap + win)
		n := int(sz)%3000 + 2*margin + 1
		rng := rand.New(rand.NewSource(seed))
		p := NewPrefixSoA(screenCapture(rng, n, dc, rel, noise, math.Pow(10, float64(exp10)), ties))
		defer p.Release()
		exact := make([]float64, n-2*margin)
		DiffSweep(p.Re, p.Im, margin, gap, win, exact)
		v := exact[int(pick)%len(exact)]
		for _, tau := range []float64{v, math.Nextafter(v, math.Inf(1)), v * (1 + nudge)} {
			checkScreen(t, p, gap, win, exact, tau)
		}
	})
}
