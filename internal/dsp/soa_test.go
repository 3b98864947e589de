package dsp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// stepCapture synthesizes a noisy IQ series with a DC carrier and a few
// hard amplitude steps — the shape the edge detector actually sweeps.
func stepCapture(rng *rand.Rand, n int) []complex128 {
	samples := make([]complex128, n)
	dc := complex(2.0+rng.Float64(), -1.0+rng.Float64())
	level := complex(0, 0)
	for i := range samples {
		if rng.Intn(400) == 0 {
			level = complex(rng.Float64()*4-2, rng.Float64()*4-2)
		}
		noise := complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
		samples[i] = dc + level + noise
	}
	return samples
}

// TestPrefixSoAMatchesComplex pins the bit-identity of the SoA prefix
// path against the complex128 reference at every position: means,
// differentials, and the full swept series.
func TestPrefixSoAMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		n := 257 + rng.Intn(2000)
		samples := stepCapture(rng, n)
		ref := NewPrefix(samples)
		soa := NewPrefixSoA(samples)

		for q := int64(0); q < int64(n); q++ {
			if got, want := soa.Mean(q, q+7), ref.Mean(q, q+7); got != want {
				t.Fatalf("Mean(%d): soa %v != complex %v", q, got, want)
			}
			if got, want := soa.Differential(q, 2, 3), ref.Differential(q, 2, 3); got != want {
				t.Fatalf("Differential(%d): soa %v != complex %v", q, got, want)
			}
		}

		want := make([]float64, n)
		ref.DifferentialSeriesInto(want, 2, 3, 1)
		for _, workers := range []int{1, 3} {
			got := make([]float64, n)
			soa.DifferentialSeriesInto(got, 2, 3, workers)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("series[%d] workers=%d: soa %v != complex %v", i, workers, got[i], want[i])
				}
			}
		}
		ref.Release()
		soa.Release()
	}
}

// checkSparseContract verifies the DiffSweepSparse output contract
// against a dense reference: every position is either bitwise equal to
// dense, or zero-filled with a dense value strictly below threshold AND
// no position within guard of it at or above threshold.
func checkSparseContract(t *testing.T, dense, sparse []float64, threshold float64, guard int) {
	t.Helper()
	for i := range sparse {
		if sparse[i] == dense[i] {
			continue
		}
		if sparse[i] != 0 {
			t.Fatalf("pos %d: sparse %v is neither dense %v nor zero", i, sparse[i], dense[i])
		}
		if dense[i] >= threshold {
			t.Fatalf("pos %d: zero-filled but dense %v >= threshold %v", i, dense[i], threshold)
		}
		for j := max(0, i-guard); j < min(len(dense), i+guard+1); j++ {
			if dense[j] >= threshold {
				t.Fatalf("pos %d zero-filled but neighbour %d has dense %v >= threshold %v", i, j, dense[j], threshold)
			}
		}
	}
}

func TestDiffSweepSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const gap, win = int64(2), int64(3)
	const guard = gap + 2
	margin := int(gap + win)
	for trial := 0; trial < 6; trial++ {
		n := 500 + rng.Intn(4000)
		samples := stepCapture(rng, n)
		soa := NewPrefixSoA(samples)
		j0 := margin
		m := n - 2*margin
		dense := make([]float64, m)
		DiffSweep(soa.Re, soa.Im, j0, gap, win, dense)
		// Thresholds spanning "skip almost everything" to "skip nothing".
		for _, thr := range []float64{0.01, 0.2, 1.0, 5.0} {
			sparse := make([]float64, m)
			DiffSweepSparse(soa.Re, soa.Im, j0, gap, win, guard, thr, margin, n-margin, sparse)
			checkSparseContract(t, dense, sparse, thr, int(guard))
		}
		soa.Release()
	}
}

// FuzzDiffSweepSparse drives the sparse kernel with fuzzer-chosen
// signal shape parameters and asserts the skip-bound contract. Inputs
// are sanitized to finite samples — the stream rejects non-finite IQ
// before the sweep, and the interval bound is only claimed for finite
// sums.
func FuzzDiffSweepSparse(f *testing.F) {
	f.Add(int64(1), uint16(900), 0.2, 0.05)
	f.Add(int64(2), uint16(3000), 1.5, 0.3)
	f.Add(int64(99), uint16(500), 0.001, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, sz uint16, thr, noise float64) {
		n := int(sz)%5000 + 64
		if !(thr >= 0 && thr < 1e6) || !(noise >= 0 && noise < 1e3) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		samples := make([]complex128, n)
		level := complex(1, -1)
		for i := range samples {
			if rng.Intn(300) == 0 {
				level = complex(rng.Float64()*6-3, rng.Float64()*6-3)
			}
			samples[i] = level + complex(rng.NormFloat64()*noise, rng.NormFloat64()*noise)
		}
		const gap, win = int64(2), int64(3)
		const guard = gap + 2
		margin := int(gap + win)
		m := n - 2*margin
		if m <= 0 {
			t.Skip()
		}
		soa := NewPrefixSoA(samples)
		defer soa.Release()
		dense := make([]float64, m)
		DiffSweep(soa.Re, soa.Im, margin, gap, win, dense)
		sparse := make([]float64, m)
		DiffSweepSparse(soa.Re, soa.Im, margin, gap, win, guard, thr, margin, n-margin, sparse)
		checkSparseContract(t, dense, sparse, thr, int(guard))
	})
}

// TestMedianFloatMatchesSort pins NoiseFloorMax's median against the
// sorted-slice definition on random data, heavy ties, and NaNs.
func TestMedianFloatMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sortedMedian := func(xs []float64) float64 {
		cp := append([]float64(nil), xs...)
		sort.Float64s(cp)
		m := len(cp) / 2
		if len(cp)%2 == 1 {
			return cp[m]
		}
		return (cp[m-1] + cp[m]) / 2
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(10) {
			case 0:
				xs[i] = math.NaN()
			case 1, 2, 3:
				xs[i] = float64(rng.Intn(4)) // heavy ties
			default:
				xs[i] = rng.NormFloat64() * 100
			}
		}
		orig := append([]float64(nil), xs...)
		got, _ := NoiseFloorMax(xs)
		want := sortedMedian(orig)
		same := got == want || (math.IsNaN(got) && math.IsNaN(want))
		if !same {
			t.Fatalf("trial %d (n=%d): NoiseFloorMax median %v != sorted median %v", trial, n, got, want)
		}
		for i := range xs {
			o := orig[i]
			if xs[i] != o && !(math.IsNaN(xs[i]) && math.IsNaN(o)) {
				t.Fatalf("trial %d: input mutated at %d", trial, i)
			}
		}
	}
}

// suppressReference is the textbook O(n²) greedy NMS under the same
// total order (value desc, position asc) — the semantics Suppress must
// preserve.
func suppressReference(peaks []Peak, minSpacing int64) []Peak {
	if len(peaks) <= 1 {
		return append([]Peak(nil), peaks...)
	}
	byValue := append([]Peak(nil), peaks...)
	sortPeaksByValue(byValue)
	var kept []Peak
	if minSpacing < 1 {
		kept = byValue
	} else {
		for _, p := range byValue {
			ok := true
			for _, k := range kept {
				d := p.Pos - k.Pos
				if d < 0 {
					d = -d
				}
				if d < minSpacing {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, p)
			}
		}
	}
	sortPeaksByPos(kept)
	return kept
}

func TestSuppressMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(120)
		peaks := make([]Peak, n)
		for i := range peaks {
			peaks[i] = Peak{
				Pos:   int64(rng.Intn(300)) - 50, // includes negatives
				Value: float64(rng.Intn(8)),      // heavy value ties
			}
		}
		spacing := int64(rng.Intn(12)) // includes 0
		got := Suppress(peaks, spacing)
		want := suppressReference(peaks, spacing)
		if len(got) != len(want) {
			t.Fatalf("trial %d spacing=%d: got %d peaks, want %d", trial, spacing, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d spacing=%d: peak %d got %+v want %+v", trial, spacing, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkSuppressDense is the regression benchmark for the O(n²)
// kept-peak scan: a spurious-edge flood where nearly every position is
// a candidate peak. The cell-grid pass keeps this O(n log n).
func BenchmarkSuppressDense(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	peaks := make([]Peak, 20000)
	for i := range peaks {
		peaks[i] = Peak{Pos: int64(i * 2), Value: rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Suppress(peaks, 5)
	}
}
