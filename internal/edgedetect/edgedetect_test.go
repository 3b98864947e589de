package edgedetect

import (
	"math/cmplx"
	"testing"

	"lf/internal/channel"
	"lf/internal/iq"
	"lf/internal/reader"
	"lf/internal/rng"
	"lf/internal/tag"
)

// capture synthesizes a capture with the given toggles for one tag of
// coefficient h, with optional noise.
func capture(t *testing.T, h complex128, sigma2 float64, toggles []tag.Toggle, duration float64) *iq.Capture {
	t.Helper()
	p := channel.DefaultParams()
	p.NoiseSigma2 = sigma2
	var noise *rng.Source
	if sigma2 > 0 {
		noise = rng.New(7)
	}
	ch := channel.NewModelFromCoeffs(p, []complex128{h}, noise)
	em := &tag.Emission{TagID: 0, BitPeriod: 10e-6, Bits: []byte{1}, Toggles: toggles}
	cfg := reader.EpochConfig{SampleRate: 25e6, EdgeSamples: 3, Duration: duration}
	ep, err := reader.Synthesize(ch, []*tag.Emission{em}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ep.Capture
}

// detect runs a whole capture through a fresh Stream, pushed as one
// block the way batch decoding does.
func detect(t *testing.T, capture *iq.Capture, cfg Config) *Stream {
	t.Helper()
	return pushBlocks(t, capture.Samples, StreamConfig{Config: cfg}, len(capture.Samples))
}

func TestDetectSingleEdge(t *testing.T) {
	h := complex(8e-4, -3e-4)
	cap := capture(t, h, 2.5e-9, []tag.Toggle{{Time: 40e-6, State: 1}}, 80e-6)
	det := detect(t, cap, DefaultConfig())
	edges := det.Edges()
	if len(edges) != 1 {
		t.Fatalf("detected %d edges, want 1", len(edges))
	}
	if d := edges[0].Pos - 1000; d < -3 || d > 3 {
		t.Fatalf("edge at %d, want ~1000", edges[0].Pos)
	}
	if cmplx.Abs(edges[0].Diff-h) > 0.15*cmplx.Abs(h) {
		t.Fatalf("edge differential %v, want ~%v", edges[0].Diff, h)
	}
	if edges[0].Peaks != 1 {
		t.Fatalf("lone edge reported %d peaks", edges[0].Peaks)
	}
}

func TestFallingEdgeNegativeDiff(t *testing.T) {
	h := complex(8e-4, 0)
	cap := capture(t, h, 0, []tag.Toggle{
		{Time: 20e-6, State: 1},
		{Time: 50e-6, State: 0},
	}, 80e-6)
	det := detect(t, cap, DefaultConfig())
	edges := det.Edges()
	if len(edges) != 2 {
		t.Fatalf("edges = %d", len(edges))
	}
	if real(edges[0].Diff) < 0 || real(edges[1].Diff) > 0 {
		t.Fatalf("polarities wrong: %v, %v", edges[0].Diff, edges[1].Diff)
	}
	if cmplx.Abs(edges[1].Diff+h) > 0.15*cmplx.Abs(h) {
		t.Fatalf("falling diff %v, want ~%v", edges[1].Diff, -h)
	}
}

func TestPureNoiseYieldsFewEdges(t *testing.T) {
	cap := capture(t, 0, 2.5e-9, nil, 200e-6)
	det := detect(t, cap, DefaultConfig())
	// 5000 samples of pure noise: the 4σ-style threshold admits at
	// most a stray detection or two.
	if len(det.Edges()) > 3 {
		t.Fatalf("noise produced %d spurious edges", len(det.Edges()))
	}
}

func TestCoalesceCloseEdges(t *testing.T) {
	// Two tags toggling 6 samples apart: one coalesced edge whose
	// differential is the sum.
	p := channel.DefaultParams()
	p.NoiseSigma2 = 0
	h1, h2 := complex(7e-4, 2e-4), complex(-2e-4, 8e-4)
	ch := channel.NewModelFromCoeffs(p, []complex128{h1, h2}, nil)
	mk := func(id int, at float64) *tag.Emission {
		return &tag.Emission{TagID: id, BitPeriod: 10e-6, Bits: []byte{1},
			Toggles: []tag.Toggle{{Time: at, State: 1}}}
	}
	cfg := reader.EpochConfig{SampleRate: 25e6, EdgeSamples: 3, Duration: 60e-6}
	ep, err := reader.Synthesize(ch, []*tag.Emission{mk(0, 30e-6), mk(1, 30e-6+6.0/25e6)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	det := detect(t, ep.Capture, DefaultConfig())
	edges := det.Edges()
	if len(edges) != 1 {
		t.Fatalf("got %d edges, want 1 coalesced", len(edges))
	}
	if edges[0].Peaks < 1 {
		t.Fatal("peak count lost")
	}
	want := h1 + h2
	if cmplx.Abs(edges[0].Diff-want) > 0.15*cmplx.Abs(want) {
		t.Fatalf("coalesced diff %v, want ~%v", edges[0].Diff, want)
	}
}

func TestSeparateEdgesBeyondCoalesce(t *testing.T) {
	p := channel.DefaultParams()
	p.NoiseSigma2 = 0
	h := complex(7e-4, 0)
	ch := channel.NewModelFromCoeffs(p, []complex128{h, h}, nil)
	mk := func(id int, at float64) *tag.Emission {
		return &tag.Emission{TagID: id, BitPeriod: 10e-6, Bits: []byte{1},
			Toggles: []tag.Toggle{{Time: at, State: 1}}}
	}
	gap := float64(DefaultConfig().CoalesceDist+4) / 25e6
	cfg := reader.EpochConfig{SampleRate: 25e6, EdgeSamples: 3, Duration: 60e-6}
	ep, err := reader.Synthesize(ch, []*tag.Emission{mk(0, 30e-6), mk(1, 30e-6+gap)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	det := detect(t, ep.Capture, DefaultConfig())
	if len(det.Edges()) != 2 {
		t.Fatalf("got %d edges, want 2 distinct", len(det.Edges()))
	}
}

func TestMeasureAtQuietPosition(t *testing.T) {
	h := complex(8e-4, 0)
	cap := capture(t, h, 0, []tag.Toggle{{Time: 20e-6, State: 1}}, 80e-6)
	det := detect(t, cap, DefaultConfig())
	// Far from the edge the differential is ~zero.
	if got := det.MeasureAt(1500); cmplx.Abs(got) > 1e-9 {
		t.Fatalf("quiet measurement %v", got)
	}
	// At the edge it recovers h.
	if got := det.MeasureAt(500); cmplx.Abs(got-h) > 0.2*cmplx.Abs(h) {
		t.Fatalf("edge measurement %v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.Gap = 0
	if bad.Validate() == nil {
		t.Fatal("zero gap accepted")
	}
	bad = DefaultConfig()
	bad.ThresholdFactor = 0.5
	if bad.Validate() == nil {
		t.Fatal("sub-unity threshold accepted")
	}
	s, err := NewStream(StreamConfig{Config: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if s.Close() == nil {
		t.Fatal("empty capture accepted")
	}
}
