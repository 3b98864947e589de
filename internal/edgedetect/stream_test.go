package edgedetect

import (
	"math"
	"reflect"
	"testing"

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

// TestStreamMatchesBatchDetector pins the compatibility contract: the
// batch Detector (which now wraps Stream) and a blockwise Stream with
// deferred calibration produce identical edges on a noisy multi-edge
// capture.
func TestStreamMatchesBatchDetector(t *testing.T) {
	h := complex(6e-4, 4e-4)
	var toggles []tag.Toggle
	state := byte(1)
	for us := 30.0; us < 580; us += 12.5 {
		toggles = append(toggles, tag.Toggle{Time: us * 1e-6, State: state})
		state = 1 - state
	}
	cap := capture(t, h, 2.5e-9, toggles, 600e-6)

	det, err := New(cap, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
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
