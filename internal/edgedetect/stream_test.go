package edgedetect

import (
	"math"
	"reflect"
	"testing"

	"lf/internal/dsp"
	"lf/internal/tag"
)

// pushBlocks feeds a capture's samples through a fresh Stream in
// fixed-size blocks and returns the finished stream.
func pushBlocks(t *testing.T, samples []complex128, cfg StreamConfig, blockSize int) *Stream {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(samples); lo += blockSize {
		hi := lo + blockSize
		if hi > len(samples) {
			hi = len(samples)
		}
		if err := s.Push(samples[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamBlockInvariance pins the incremental detector's core
// contract: the edge list and noise floor are a pure function of the
// sample sequence, bit-identical at any push blocking — one sample at
// a time, odd sizes straddling every internal cut, or the whole
// capture at once — both with bounded calibration and with
// calibration deferred to Close.
func TestStreamBlockInvariance(t *testing.T) {
	h := complex(8e-4, -3e-4)
	var toggles []tag.Toggle
	state := byte(1)
	// Edges at irregular spacings, including close pairs that coalesce
	// and long silent gaps that trigger mid-capture flushes.
	for _, us := range []float64{40, 41.2, 80, 200, 201, 202, 600, 900, 905, 1500} {
		toggles = append(toggles, tag.Toggle{Time: us * 1e-6, State: state})
		state = 1 - state
	}
	cap := capture(t, h, 2.5e-9, toggles, 1700e-6)

	for _, calib := range []int64{0, 8192} {
		ref := pushBlocks(t, cap.Samples, StreamConfig{Config: DefaultConfig(), CalibSamples: calib}, len(cap.Samples))
		refEdges := ref.Edges()
		if len(refEdges) < len(toggles)/2 {
			t.Fatalf("reference detected only %d edges for %d toggles", len(refEdges), len(toggles))
		}
		for _, block := range []int{1, 37, 4096, 8191, len(cap.Samples) / 2} {
			s := pushBlocks(t, cap.Samples, StreamConfig{Config: DefaultConfig(), CalibSamples: calib}, block)
			if !reflect.DeepEqual(s.Edges(), refEdges) {
				t.Fatalf("calib=%d block=%d: edge list diverged from single-push reference:\nref: %+v\ngot: %+v",
					calib, block, refEdges, s.Edges())
			}
			if s.NoiseFloor() != ref.NoiseFloor() {
				t.Fatalf("calib=%d block=%d: noise floor %v != %v", calib, block, s.NoiseFloor(), ref.NoiseFloor())
			}
			s.Release()
		}
		ref.Release()
	}
}

// TestStreamMatchesBatchDetector pins the compatibility contract:
// batch detection (the whole capture pushed as one block, as batch
// Decode does) and a blockwise Stream with deferred calibration
// produce identical edges on a noisy multi-edge capture.
func TestStreamMatchesBatchDetector(t *testing.T) {
	h := complex(6e-4, 4e-4)
	var toggles []tag.Toggle
	state := byte(1)
	for us := 30.0; us < 580; us += 12.5 {
		toggles = append(toggles, tag.Toggle{Time: us * 1e-6, State: state})
		state = 1 - state
	}
	cap := capture(t, h, 2.5e-9, toggles, 600e-6)

	det := detect(t, cap, DefaultConfig())
	s := pushBlocks(t, cap.Samples, StreamConfig{Config: DefaultConfig()}, 1000)
	if !reflect.DeepEqual(det.Edges(), s.Edges()) {
		t.Fatalf("stream edges diverged from batch detector:\nbatch:  %+v\nstream: %+v", det.Edges(), s.Edges())
	}
	if det.NoiseFloor() != s.NoiseFloor() {
		t.Fatalf("noise floor: batch %v, stream %v", det.NoiseFloor(), s.NoiseFloor())
	}
	s.Release()
	det.Release()
}

// TestStreamLowWaterTrimsWindow checks the memory contract directly at
// the detector level: with bounded calibration and an advancing
// low-water mark, the live window stays flat while the pushed total
// grows without bound.
func TestStreamLowWaterTrimsWindow(t *testing.T) {
	h := complex(8e-4, 0)
	cap := capture(t, h, 2.5e-9, []tag.Toggle{{Time: 40e-6, State: 1}}, 400e-6)
	s, err := NewStream(StreamConfig{Config: DefaultConfig(), CalibSamples: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const block = 2048
	var peakTail int64
	// Push the capture, then keep pushing its noisy tail for 50x more,
	// trailing the low-water mark behind the front.
	total := 0
	push := func(samples []complex128) {
		for lo := 0; lo < len(samples); lo += block {
			hi := lo + block
			if hi > len(samples) {
				hi = len(samples)
			}
			if err := s.Push(samples[lo:hi]); err != nil {
				t.Fatal(err)
			}
			total += hi - lo
			s.SetLowWater(s.Front() - 4*block)
			if r := s.RetainedBytes(); r > peakTail {
				peakTail = r
			}
		}
	}
	push(cap.Samples)
	tail := cap.Samples[len(cap.Samples)-8192:]
	for i := 0; i < 50; i++ {
		push(tail)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	pushedBytes := int64(total) * 16
	if peakTail >= pushedBytes/8 {
		t.Fatalf("retained window %d B not far below pushed %d B", peakTail, pushedBytes)
	}
	s.Release()
}

// TestBlockAdmissionMatchesSampleOK pins Push's per-block admission
// test to sampleOK: admitBits is maxSampleMag's bit pattern, and
// inadmissible flags exactly the samples sampleOK rejects, for values
// on both sides of the bound, zeros, subnormals, infinities and NaNs.
func TestBlockAdmissionMatchesSampleOK(t *testing.T) {
	if admitBits != math.Float64bits(maxSampleMag) {
		t.Fatalf("admitBits %#x, want %#x", uint64(admitBits), math.Float64bits(maxSampleMag))
	}
	vals := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -1,
		maxSampleMag, -maxSampleMag,
		math.Nextafter(maxSampleMag, 0), -math.Nextafter(maxSampleMag, 0),
		math.Nextafter(maxSampleMag, math.Inf(1)), math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN()}
	for _, re := range vals {
		for _, im := range vals {
			v := complex(re, im)
			if got, want := inadmissible(v)&signBit == 0, sampleOK(v); got != want {
				t.Errorf("(%v, %v): block admission %v, sampleOK %v", re, im, got, want)
			}
		}
	}
}

// exactCalibration returns the floor and threshold the exact
// calibration derives from the first n positions of samples: the
// median and maximum over exact differential magnitudes, the capture
// margins blanked to 0.
func exactCalibration(samples []complex128, n int, cfg Config) (floor, threshold float64) {
	p := dsp.NewPrefixSoA(samples)
	defer p.Release()
	margin := int(SweepMargin(cfg.Gap, cfg.Win))
	mag := make([]float64, len(samples))
	if len(samples) > 2*margin {
		dsp.DiffSweep(p.Re, p.Im, margin, cfg.Gap, cfg.Win, mag[margin:len(samples)-margin])
	}
	floor, top := dsp.NoiseFloorMax(mag[:n])
	return floor, max(floor*cfg.ThresholdFactor, 0.05*top)
}

// TestCalibrateFromScreen checks that calibration takes the screened
// path — the window is screened from position 0 afterwards — and that
// the floor and threshold match the exact calibration bit for bit: on a
// noisy capture and at the admission limit through the screen, and
// through the exact fallback on a noiseless capture (whose threshold
// dsp.ScreenBounds refuses) and on one whose screen squares overflow
// (which dsp.ScreenWindow refuses; that takes a window of thousands of
// samples at the admission limit).
func TestCalibrateFromScreen(t *testing.T) {
	toggles := []tag.Toggle{{Time: 40e-6, State: 1}, {Time: 200e-6, State: 0}, {Time: 201e-6, State: 1}}
	noisy := capture(t, complex(8e-4, -3e-4), 2.5e-9, toggles, 400e-6).Samples
	square := func(n, period int) []complex128 {
		out := make([]complex128, n)
		for i := range out {
			out[i] = complex(9e149, -9e149)
			if i%period < period/2 {
				out[i] = -out[i]
			}
		}
		return out
	}
	wide := DefaultConfig()
	wide.Win, wide.MaxWin = 8000, 8000
	for _, c := range []struct {
		name     string
		samples  []complex128
		cfg      Config
		screened bool
	}{
		{"noisy", noisy, DefaultConfig(), true},
		{"limit", square(5000, 700), DefaultConfig(), true},
		{"silent", make([]complex128, 5000), DefaultConfig(), false},
		{"overflow", square(60000, 20000), wide, false},
	} {
		for _, calib := range []int64{0, 4096} {
			cfg := StreamConfig{Config: c.cfg, CalibSamples: calib}
			s := pushBlocks(t, c.samples, cfg, 1000)
			n := len(c.samples)
			if calib > 0 {
				n = int(calib)
			}
			floor, threshold := exactCalibration(c.samples, n, c.cfg)
			if math.Float64bits(s.NoiseFloor()) != math.Float64bits(floor) || math.Float64bits(s.Threshold()) != math.Float64bits(threshold) {
				t.Errorf("%s calib=%d: floor %v threshold %v, exact %v %v", c.name, calib, s.NoiseFloor(), s.Threshold(), floor, threshold)
			}
			if got := s.screenFrom == 0; got != c.screened {
				t.Errorf("%s calib=%d: window screened %v, want %v", c.name, calib, got, c.screened)
			}
			s.Release()
		}
	}
}
