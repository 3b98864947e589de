package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPrefixSumMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	samples := make([]complex128, 200)
	for i := range samples {
		samples[i] = complex(r.Float64(), r.Float64())
	}
	p := NewPrefix(samples)
	f := func(a, b uint16) bool {
		lo := int64(a) % int64(len(samples)+10)
		hi := int64(b) % int64(len(samples)+10)
		if lo > hi {
			lo, hi = hi, lo
		}
		var want complex128
		for i := lo; i < hi && i < int64(len(samples)); i++ {
			if i >= 0 {
				want += samples[i]
			}
		}
		got := p.Sum(lo, hi)
		return cAbs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func cAbs(x complex128) float64 { return math.Hypot(real(x), imag(x)) }

func TestPrefixMeanEmptyWindow(t *testing.T) {
	p := NewPrefix([]complex128{1, 2, 3})
	if p.Mean(2, 2) != 0 {
		t.Fatal("empty window mean should be 0")
	}
	if p.Mean(5, 9) != 0 {
		t.Fatal("out-of-range mean should be 0")
	}
}

// TestDifferentialOnStep checks that the differential across a clean
// step recovers the step height.
func TestDifferentialOnStep(t *testing.T) {
	samples := make([]complex128, 100)
	step := complex(2, -1)
	for i := 50; i < 100; i++ {
		samples[i] = step
	}
	p := NewPrefix(samples)
	got := p.Differential(50, 2, 10)
	if cAbs(got-step) > 1e-12 {
		t.Fatalf("differential %v, want %v", got, step)
	}
	// Far from the step the differential is zero.
	if cAbs(p.Differential(20, 2, 5)) > 1e-12 {
		t.Fatal("differential away from the step should be 0")
	}
}

func TestDifferentialSeriesPeaksAtStep(t *testing.T) {
	samples := make([]complex128, 60)
	for i := 30; i < 60; i++ {
		samples[i] = 1
	}
	p := NewPrefix(samples)
	mag := make([]float64, p.Len())
	p.DifferentialSeriesInto(mag, 2, 4)
	best := 0
	for i, v := range mag {
		if v > mag[best] {
			best = i
		}
	}
	if best < 28 || best > 32 {
		t.Fatalf("peak at %d, want ~30", best)
	}
}

func TestMedianFloat(t *testing.T) {
	if floor, top := NoiseFloorMax(nil); floor != 0 || top != 0 {
		t.Fatal("median and maximum of empty should be 0")
	}
	if got, _ := NoiseFloorMax([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got, _ := NoiseFloorMax([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	// Input must not be mutated.
	in := []float64{9, 1, 5}
	NoiseFloorMax(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Fatal("NoiseFloorMax mutated its input")
	}
}

func TestAbsDist(t *testing.T) {
	if Abs(3+4i) != 5 {
		t.Fatal("Abs(3+4i) != 5")
	}
	if Dist(1+1i, 4+5i) != 5 {
		t.Fatal("Dist != 5")
	}
}

func TestNoiseFloorIgnoresSparseEdges(t *testing.T) {
	// 1% of samples carry large edge differentials; the median must
	// stay on the noise.
	mag := make([]float64, 1000)
	for i := range mag {
		mag[i] = 0.1
	}
	for i := 0; i < 10; i++ {
		mag[i*100] = 50
	}
	if got, _ := NoiseFloorMax(mag); got != 0.1 {
		t.Fatalf("noise floor %v, want 0.1", got)
	}
}
