package edgedetect

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lf/internal/tag"
)

var testCalib = &CalibPreset{Floor: 1e-6, Threshold: 4e-6}

// pushLanes returns the prefix lanes a push stream folds from its
// origin over samples, pushed in blocks of the given size.
func pushLanes(t testing.TB, samples []complex128, block int) (re, im []float64) {
	t.Helper()
	// Calibration deferred to Close keeps the stream from trimming, so
	// the lanes stay from-origin and whole.
	s, err := NewStream(StreamConfig{Config: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	for lo := 0; lo < len(samples); lo += block {
		if err := s.Push(samples[lo:min(lo+block, len(samples))]); err != nil {
			t.Fatal(err)
		}
	}
	return append([]float64(nil), s.sumsRe...), append([]float64(nil), s.sumsIm...)
}

// checkRegionLanes fails unless every region's masked lanes are
// bitwise equal to a from-origin push fold of the region's samples,
// entry for entry (the masked fold starts each region at a zero base,
// so equal entries mean equal windowed differences).
func checkRegionLanes(t testing.TB, s *Stream, samples []complex128, regions []Span, block int) {
	t.Helper()
	for _, r := range regions {
		wantRe, wantIm := pushLanes(t, samples[r.Lo:r.Hi], block)
		for k := range wantRe {
			j := r.Lo + int64(k)
			if math.Float64bits(s.sumsRe[j]) != math.Float64bits(wantRe[k]) ||
				math.Float64bits(s.sumsIm[j]) != math.Float64bits(wantIm[k]) {
				t.Fatalf("region [%d, %d) lane %d = (%v, %v), push fold (%v, %v)",
					r.Lo, r.Hi, j, s.sumsRe[j], s.sumsIm[j], wantRe[k], wantIm[k])
			}
		}
	}
}

func randomSamples(rng *rand.Rand, n int) []complex128 {
	samples := make([]complex128, n)
	for i := range samples {
		samples[i] = complex(rng.NormFloat64()*1e3, rng.NormFloat64()*1e-3)
	}
	return samples
}

func TestMaskedFoldMatchesPushFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 32; trial++ {
		n := 1 + rng.Intn(3000)
		samples := randomSamples(rng, n)
		// Up to three separated regions at random cuts; the first trial
		// folds the whole capture, whose lanes must equal the push
		// stream's outright.
		var regions []Span
		if trial == 0 {
			regions = []Span{{0, int64(n)}}
		} else {
			for lo := int64(rng.Intn(n)); lo < int64(n) && len(regions) < 3; {
				hi := lo + 1 + int64(rng.Intn(n-int(lo)))
				regions = append(regions, Span{lo, hi})
				lo = hi + 1 + int64(rng.Intn(n))
			}
		}
		s, err := NewStream(StreamConfig{Config: DefaultConfig(), Calib: testCalib,
			Masked: &MaskedCapture{Samples: samples, Active: regions, Regions: regions}})
		if err != nil {
			t.Fatalf("trial %d regions %v: %v", trial, regions, err)
		}
		checkRegionLanes(t, s, samples, regions, 1+rng.Intn(700))
		s.Release()
	}
}

// TestMaskedWholeCaptureMatchesPush: a masked capture with no mask and
// one region over the whole capture detects exactly what a push stream
// with the same calibration detects.
func TestMaskedWholeCaptureMatchesPush(t *testing.T) {
	var toggles []tag.Toggle
	state := byte(1)
	for _, us := range []float64{40, 80, 200, 201, 600, 900} {
		toggles = append(toggles, tag.Toggle{Time: us * 1e-6, State: state})
		state = 1 - state
	}
	cap := capture(t, complex(8e-4, -3e-4), 2.5e-9, toggles, 1000e-6)
	ref := pushBlocks(t, cap.Samples, StreamConfig{Config: DefaultConfig(), CalibSamples: 8192}, 4096)
	calib := &CalibPreset{Floor: ref.NoiseFloor(), Threshold: ref.Threshold()}
	push := pushBlocks(t, cap.Samples, StreamConfig{Config: DefaultConfig(), Calib: calib}, 4096)
	s, err := NewStream(StreamConfig{Config: DefaultConfig(), Calib: calib, Masked: &MaskedCapture{
		Samples: cap.Samples, Regions: []Span{{0, int64(len(cap.Samples))}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(push.Edges()) < len(toggles)/2 {
		t.Fatalf("push stream detected only %d edges for %d toggles", len(push.Edges()), len(toggles))
	}
	if !reflect.DeepEqual(s.Edges(), push.Edges()) {
		t.Fatalf("masked edges diverged from push:\nmasked: %+v\npush:   %+v", s.Edges(), push.Edges())
	}
}

// badSamples are the samples Push replaces: non-finite components and
// magnitudes at or past the overflow bound.
var badSamples = []complex128{
	complex(math.NaN(), 0), complex(0, math.NaN()),
	complex(math.Inf(1), 0), complex(0, math.Inf(-1)),
	complex(maxSampleMag, 0), complex(0, -maxSampleMag), complex(2*maxSampleMag, 1),
}

func TestMaskedInadmissible(t *testing.T) {
	samples := randomSamples(rand.New(rand.NewSource(3)), 400)
	regions := []Span{{10, 100}, {200, 300}}
	for _, bad := range badSamples {
		for _, pos := range []int{10, 55, 99, 200, 299} {
			mutated := append([]complex128(nil), samples...)
			mutated[pos] = bad
			_, err := NewStream(StreamConfig{Config: DefaultConfig(), Calib: testCalib,
				Masked: &MaskedCapture{Samples: mutated, Regions: regions, Active: regions}})
			if !errors.Is(err, ErrInadmissible) {
				t.Fatalf("%v at %d inside a region: err %v, want ErrInadmissible", bad, pos, err)
			}
		}
		for _, pos := range []int{0, 9, 100, 150, 199, 300, 399} {
			mutated := append([]complex128(nil), samples...)
			mutated[pos] = bad
			s, err := NewStream(StreamConfig{Config: DefaultConfig(), Calib: testCalib,
				Masked: &MaskedCapture{Samples: mutated, Regions: regions, Active: regions}})
			if err != nil {
				t.Fatalf("%v at %d outside every region: %v", bad, pos, err)
			}
			s.Release()
		}
	}
	// The largest admissible magnitude folds.
	edge := math.Nextafter(maxSampleMag, 0)
	samples[50] = complex(edge, -edge)
	if _, err := NewStream(StreamConfig{Config: DefaultConfig(), Calib: testCalib,
		Masked: &MaskedCapture{Samples: samples, Active: regions, Regions: regions}}); err != nil {
		t.Fatalf("admissible %v rejected: %v", samples[50], err)
	}
}

func TestMaskedStreamContract(t *testing.T) {
	samples := randomSamples(rand.New(rand.NewSource(5)), 64)
	whole := []Span{{0, 64}}
	s, err := NewStream(StreamConfig{Config: DefaultConfig(), Calib: testCalib,
		Masked: &MaskedCapture{Samples: samples, Regions: whole}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push(samples); err == nil {
		t.Fatal("Push on a masked stream succeeded")
	}
	// A reset masked stream is an ordinary push stream again.
	s.Reset()
	if err := s.Push(samples); err != nil {
		t.Fatalf("Push after Reset: %v", err)
	}
	if _, err := NewStream(StreamConfig{Config: DefaultConfig(),
		Masked: &MaskedCapture{Samples: samples, Regions: whole}}); err == nil {
		t.Fatal("Masked without Calib accepted")
	}
	if _, err := NewStream(StreamConfig{Config: DefaultConfig(), Calib: testCalib,
		Masked: &MaskedCapture{}}); err == nil {
		t.Fatal("empty masked capture accepted")
	}
}

func TestMaskedSpansValidated(t *testing.T) {
	samples := make([]complex128, 100)
	cases := []struct {
		name            string
		active, regions []Span
		ok              bool
	}{
		{"whole", nil, []Span{{0, 100}}, true},
		{"masked", []Span{{10, 20}, {60, 70}}, []Span{{0, 30}, {50, 100}}, true},
		{"unsorted regions", nil, []Span{{50, 100}, {0, 30}}, false},
		{"overlapping regions", []Span{{10, 20}}, []Span{{0, 40}, {30, 60}}, false},
		{"adjacent regions", []Span{{10, 20}}, []Span{{0, 30}, {30, 60}}, false},
		{"empty region", []Span{{10, 20}}, []Span{{0, 30}, {40, 40}}, false},
		{"region past the end", []Span{{10, 20}}, []Span{{0, 101}}, false},
		{"negative region", []Span{{10, 20}}, []Span{{-1, 30}}, false},
		{"unsorted active", []Span{{60, 70}, {10, 20}}, []Span{{0, 100}}, false},
		{"overlapping active", []Span{{10, 30}, {20, 40}}, []Span{{0, 100}}, false},
		{"active past the end", []Span{{90, 101}}, []Span{{0, 100}}, false},
		{"active outside regions", []Span{{10, 20}, {40, 45}}, []Span{{0, 30}, {50, 100}}, false},
		{"active straddling regions", []Span{{20, 60}}, []Span{{0, 30}, {50, 100}}, false},
		{"no mask, partial regions", nil, []Span{{0, 50}}, false},
		{"no regions", []Span{{10, 20}}, nil, false},
	}
	for _, c := range cases {
		s, err := NewStream(StreamConfig{Config: DefaultConfig(), Calib: testCalib,
			Masked: &MaskedCapture{Samples: samples, Active: c.active, Regions: c.regions}})
		if (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, err, c.ok)
		}
		if err == nil {
			s.Release()
		}
	}
}

// FuzzMaskedFold fuzzes the masked fold's contract: NewStream fails
// with ErrInadmissible exactly when a region holds a sample Push would
// replace, and otherwise every region's lanes are bitwise a push
// fold's from the region start.
func FuzzMaskedFold(f *testing.F) {
	f.Add(int64(1), 16, 3)
	f.Add(int64(99), 1, 1)
	f.Add(int64(3), 300, 299)
	f.Fuzz(func(t *testing.T, seed int64, n, cuts int) {
		if n < 1 || n > 4096 || cuts < 1 || cuts > 64 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		samples := make([]complex128, n)
		for i := range samples {
			// Mostly ordinary magnitudes with occasional rejected,
			// tiny, and negative-zero values.
			switch rng.Intn(48) {
			case 0:
				samples[i] = badSamples[rng.Intn(len(badSamples))]
			case 1:
				samples[i] = complex(math.Copysign(0, -1), 0)
			case 2:
				samples[i] = complex(5e-324, -math.SmallestNonzeroFloat64)
			default:
				samples[i] = complex(rng.NormFloat64()*1e3, rng.NormFloat64()*1e-3)
			}
		}
		// Regions at random separated cuts.
		var regions []Span
		for lo := int64(rng.Intn(n)); lo < int64(n) && len(regions) < cuts; {
			hi := lo + 1 + int64(rng.Intn(n-int(lo)))
			regions = append(regions, Span{lo, hi})
			lo = hi + 1 + int64(rng.Intn(1+n/cuts))
		}
		wantBad := false
		for _, r := range regions {
			for _, v := range samples[r.Lo:r.Hi] {
				wantBad = wantBad || !sampleOK(v)
			}
		}
		s, err := NewStream(StreamConfig{Config: DefaultConfig(), Calib: testCalib,
			Masked: &MaskedCapture{Samples: samples, Active: regions, Regions: regions}})
		if wantBad {
			if !errors.Is(err, ErrInadmissible) {
				t.Fatalf("regions %v hold a rejected sample: err %v, want ErrInadmissible", regions, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("regions %v: %v", regions, err)
		}
		defer s.Release()
		checkRegionLanes(t, s, samples, regions, 1+rng.Intn(n))
	})
}
