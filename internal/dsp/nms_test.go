package dsp

import (
	"math/rand"
	"slices"
	"testing"
)

// runPeaks builds position-sorted peaks for the conflict-run tests, by
// kind: random gaps up to 2·minSpacing (duplicate positions included)
// with tied values, value plateaus over consecutive positions, chains
// exactly minSpacing−1 apart (some longer than runMax), chains that
// alternate gaps of minSpacing−1 and minSpacing, and every position
// repeated up to three times.
func runPeaks(rng *rand.Rand, kind, n int, minSpacing int64) []Peak {
	peaks := make([]Peak, 0, n)
	pos := int64(rng.Intn(100)) - 50
	val := func() float64 { return float64(rng.Intn(4)) }
	for len(peaks) < n {
		switch kind % 5 {
		case 0:
			pos += rng.Int63n(2*minSpacing + 1)
			peaks = append(peaks, Peak{pos, val()})
		case 1:
			v, k := val(), 1+rng.Intn(8)
			for i := 0; i < k; i++ {
				pos++
				peaks = append(peaks, Peak{pos, v})
			}
			pos += rng.Int63n(2 * minSpacing)
		case 2:
			k := 1 + rng.Intn(2*runMax)
			for i := 0; i < k; i++ {
				pos += minSpacing - 1
				peaks = append(peaks, Peak{pos, val()})
			}
			pos += minSpacing
		case 3:
			pos += minSpacing - 1 + int64(len(peaks)%2)
			peaks = append(peaks, Peak{pos, val()})
		case 4:
			pos += rng.Int63n(minSpacing + 1)
			for i := rng.Intn(3); i >= 0; i-- {
				peaks = append(peaks, Peak{pos, val()})
			}
		}
	}
	return peaks
}

// checkSuppress holds Suppress and Suppressor.Suppress to
// suppressReference on peaks.
func checkSuppress(t *testing.T, name string, sp *Suppressor, peaks []Peak, minSpacing int64) {
	t.Helper()
	orig := slices.Clone(peaks)
	want := suppressReference(peaks, minSpacing)
	if got := Suppress(peaks, minSpacing); !slices.Equal(got, want) {
		t.Fatalf("%s spacing=%d: Suppress kept %v, reference %v", name, minSpacing, got, want)
	}
	if got := sp.Suppress(nil, peaks, minSpacing); !slices.Equal(got, want) {
		t.Fatalf("%s spacing=%d: Suppressor kept %v, reference %v", name, minSpacing, got, want)
	}
	if !slices.Equal(peaks, orig) {
		t.Fatalf("%s: input changed", name)
	}
}

// TestSuppressRunsMatchReference pins the per-run NMS — and the cell
// grid that long runs take — to the quadratic greedy reference, over
// plateaus, value ties, duplicate positions and chains exactly
// minSpacing−1 apart, in position order and shuffled (suppressed as a
// sorted copy).
func TestSuppressRunsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var sp Suppressor
	for trial := 0; trial < 400; trial++ {
		spacing := 1 + rng.Int63n(12)
		peaks := runPeaks(rng, trial, 1+rng.Intn(150), spacing)
		checkSuppress(t, "sorted", &sp, peaks, spacing)
		rng.Shuffle(len(peaks), func(i, j int) { peaks[i], peaks[j] = peaks[j], peaks[i] })
		checkSuppress(t, "unsorted", &sp, peaks, spacing)
	}
}

// FuzzSuppressRuns drives the run and cell-grid paths with
// fuzzer-chosen peak shapes and spacings, sorted and shuffled.
func FuzzSuppressRuns(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(80), uint8(5), false)
	f.Add(int64(2), uint8(4), uint8(30), uint8(1), true)
	f.Add(int64(3), uint8(1), uint8(200), uint8(9), false)
	f.Fuzz(func(t *testing.T, seed int64, kind, n, spacing uint8, shuffle bool) {
		rng := rand.New(rand.NewSource(seed))
		minSpacing := 1 + int64(spacing%16)
		peaks := runPeaks(rng, int(kind), 1+int(n), minSpacing)
		if shuffle {
			rng.Shuffle(len(peaks), func(i, j int) { peaks[i], peaks[j] = peaks[j], peaks[i] })
		}
		var sp Suppressor
		checkSuppress(t, "fuzz", &sp, peaks, minSpacing)
	})
}
