package lf_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"lf"
	"lf/internal/fault"
)

// sameSamples compares two sample slices bit-for-bit, treating NaN
// payloads as equal (reflect.DeepEqual and == both reject NaN).
func sameSamples(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestFaultInjectionDeterministic pins the fault layer's reproducibility
// contract end to end, alongside the decoder determinism suite: the
// same fault.Config applied to the same capture yields a byte-identical
// impaired capture, and decoding it twice yields identical Results —
// including the Dropped bookkeeping. A different seed must move the
// impairments.
func TestFaultInjectionDeterministic(t *testing.T) {
	ep, cfg := buildEpoch(t, 4, 9)
	fc := fault.Config{Seed: 77, Injectors: []fault.Injector{
		{Kind: fault.BurstNoise, Severity: 0.6},
		{Kind: fault.Dropout, Severity: 0.4},
		{Kind: fault.NonFinite, Severity: 0.7},
		{Kind: fault.SpuriousEdges, Severity: 0.5},
	}}
	capA, err := fc.ApplyCapture(ep.Capture)
	if err != nil {
		t.Fatal(err)
	}
	capB, err := fc.ApplyCapture(ep.Capture)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSamples(capA.Samples, capB.Samples) {
		t.Fatal("same fault seed produced different impaired captures")
	}

	epA := &lf.Epoch{Capture: capA, Emissions: ep.Emissions, Config: ep.Config}
	epB := &lf.Epoch{Capture: capB, Emissions: ep.Emissions, Config: ep.Config}
	resA := decodeWith(t, epA, cfg)
	resB := decodeWith(t, epB, cfg)
	if !reflect.DeepEqual(resA, resB) {
		t.Fatal("identical impaired captures decoded to different Results")
	}

	fc.Seed = 78
	capC, err := fc.ApplyCapture(ep.Capture)
	if err != nil {
		t.Fatal(err)
	}
	if sameSamples(capA.Samples, capC.Samples) {
		t.Fatal("different fault seeds produced identical impairments")
	}
}

// TestBatchStreamingNonFiniteParity is the regression test for the
// graceful-degradation parity contract: a capture poisoned with NaN
// and Inf samples must decode identically through the batch and
// streaming paths at any block size, and both must report the poisoned
// spans in Result.Dropped rather than failing the decode.
func TestBatchStreamingNonFiniteParity(t *testing.T) {
	ep, cfg := buildEpoch(t, 4, 7)
	cfg.CalibSamples = 32768

	poisoned := make([]complex128, len(ep.Capture.Samples))
	copy(poisoned, ep.Capture.Samples)
	n := len(poisoned)
	poisoned[5] = complex(math.NaN(), 0)
	poisoned[n/3] = complex(math.Inf(1), -1)
	poisoned[n/3+1] = complex(0, math.NaN())
	poisoned[2*n/3] = complex(math.Inf(-1), math.Inf(1))
	poisoned[n-2] = complex(math.NaN(), math.NaN())

	cap2 := *ep.Capture
	cap2.Samples = poisoned
	ep2 := &lf.Epoch{Capture: &cap2, Emissions: ep.Emissions, Config: ep.Config}

	batch := decodeWith(t, ep2, cfg)
	if len(batch.Dropped) == 0 {
		t.Fatal("poisoned capture decoded with no Dropped entries")
	}
	nonFinite := 0
	for _, d := range batch.Dropped {
		if d.Reason == lf.DropNonFinite {
			nonFinite++
			if d.Lo < 0 || d.Hi <= d.Lo || d.Hi > int64(n) {
				t.Fatalf("non-finite drop span [%d, %d) out of range", d.Lo, d.Hi)
			}
		}
	}
	if nonFinite == 0 {
		t.Fatalf("no DropNonFinite entries in %+v", batch.Dropped)
	}

	for _, block := range []int{1000, 8192, n + 999} {
		t.Run(fmt.Sprintf("block=%d", block), func(t *testing.T) {
			streamed := streamDecode(t, ep2, cfg, block)
			if !reflect.DeepEqual(batch, streamed) {
				t.Fatalf("streaming decode of poisoned capture diverged from batch at block %d", block)
			}
		})
	}

	// Degradation must be graceful in the literal sense: the poisoned
	// decode still recovers the same number of streams as the clean
	// one (five isolated bad samples cannot take down whole frames).
	clean := decodeWith(t, ep, cfg)
	if len(batch.Streams) != len(clean.Streams) {
		t.Fatalf("poisoning 5 samples lost streams: %d clean, %d poisoned",
			len(clean.Streams), len(batch.Streams))
	}
}

// TestFlushAfterArbitraryCut verifies best-effort Flush: cutting the
// capture at an arbitrary point and flushing must (a) succeed, and
// (b) still return every frame that had already committed before the
// cut, byte-identical to the full streaming decode (SIC off, so
// committed frames are final).
func TestFlushAfterArbitraryCut(t *testing.T) {
	ep, cfg := buildEpoch(t, 3, 21)
	cfg.CalibSamples = 32768
	cfg.CancellationRounds = -1
	const block = 4096
	samples := ep.Capture.Samples

	// Reference run: record which frames had committed by each push
	// position.
	type committed struct {
		at int64
		sr *lf.StreamResult
	}
	var pushed int64
	var log []committed
	cfg.OnFrame = func(sr *lf.StreamResult) { log = append(log, committed{pushed, sr}) }
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(samples); i += block {
		end := min(i+block, len(samples))
		if err := sd.Push(samples[i:end]); err != nil {
			t.Fatal(err)
		}
		pushed = int64(end)
	}
	if _, err := sd.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 {
		t.Fatal("reference run committed no frames before Flush")
	}

	cfg.OnFrame = nil
	for _, frac := range []float64{0.35, 0.6, 0.85} {
		cut := (int(frac*float64(len(samples))) / block) * block
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			cutCap := *ep.Capture
			cutCap.Samples = samples[:cut]
			partial := streamDecode(t, &lf.Epoch{Capture: &cutCap, Emissions: ep.Emissions, Config: ep.Config}, cfg, block)
			for _, c := range log {
				if c.at > int64(cut) {
					continue
				}
				found := false
				for _, sr := range partial.Streams {
					if reflect.DeepEqual(sr, c.sr) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("frame committed at %d missing after cut at %d", c.at, cut)
				}
			}
		})
	}
}

// TestRetainedBytesBoundedUnderDropout re-runs the bounded-memory
// check on a hostile capture: the long padded tail is riddled with
// dropout spans, repeats, and non-finite samples. The decoder may lose
// frames — but its retained window must stay far below the pushed
// sample volume and must stop growing once past the useful prefix.
func TestRetainedBytesBoundedUnderDropout(t *testing.T) {
	ep, cfg := buildEpoch(t, 2, 5)
	cfg.CalibSamples = 32768
	cfg.CancellationRounds = -1

	base := ep.Capture.Samples
	const padFactor = 12
	padded := make([]complex128, len(base)*(1+padFactor))
	copy(padded, base)
	padCap := *ep.Capture
	padCap.Samples = padded
	fc := fault.Config{Seed: 5, Injectors: []fault.Injector{
		{Kind: fault.Dropout, Severity: 0.8},
		{Kind: fault.Repeat, Severity: 0.6},
		{Kind: fault.NonFinite, Severity: 1},
	}}
	impaired, err := fc.ApplyCapture(&padCap)
	if err != nil {
		t.Fatal(err)
	}

	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	const block = 8192
	var peak, atDouble, atEnd int64
	for i := 0; i < len(impaired.Samples); i += block {
		end := min(i+block, len(impaired.Samples))
		if err := sd.Push(impaired.Samples[i:end]); err != nil {
			t.Fatal(err)
		}
		if r := sd.RetainedBytes(); r > peak {
			peak = r
		}
		if atDouble == 0 && end >= 2*len(base) {
			atDouble = sd.RetainedBytes()
		}
	}
	atEnd = sd.RetainedBytes()
	if _, err := sd.Flush(); err != nil {
		t.Fatal(err)
	}

	pushedBytes := int64(len(impaired.Samples)) * 16
	if peak >= pushedBytes/4 {
		t.Fatalf("peak retained memory %d B under dropouts is not far below the %d B pushed", peak, pushedBytes)
	}
	if atEnd > atDouble+1<<20 {
		t.Fatalf("retained memory still growing through the impaired tail: %d B at 2x capture, %d B at end", atDouble, atEnd)
	}
}
