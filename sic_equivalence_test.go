package lf_test

import (
	"fmt"
	"reflect"
	"testing"

	"lf"
	"lf/internal/fault"
	"lf/internal/iq"
)

// sicCase is one capture of the SIC matrix and the config it decodes
// with.
type sicCase struct {
	name    string
	capture *iq.Capture
	cfg     lf.DecoderConfig
}

// sicCases builds the clean 8-tag capture and one impaired copy per
// fault.CaptureKinds() kind (calibration bounded so streaming decodes
// run incrementally), plus the golden corpus's sic capture, the one
// whose round one recovers a stream, so later rounds rebuild their
// residual over streams trusted in an earlier round.
func sicCases(t *testing.T) []sicCase {
	t.Helper()
	ep, cfg := buildEpoch(t, 8, 21)
	cfg.CalibSamples = 32768
	cases := []sicCase{{"clean", ep.Capture, cfg}}
	for i, k := range fault.CaptureKinds() {
		fc := fault.Config{Seed: int64(300 + i), Injectors: []fault.Injector{{Kind: k, Severity: 0.6}}}
		impaired, err := fc.ApplyCapture(ep.Capture)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, sicCase{string(k), impaired, cfg})
	}
	recovery := readGoldenCapture(t, "sic")
	return append(cases, sicCase{"recovery", recovery, goldenConfig(recovery.SampleRate, 0)})
}

// sicCell decodes a capture's samples through the streaming decoder in
// the given push block size and fails the test unless the Result and
// the decode-class stats identity equal a batch Decode of the same
// samples. It returns the batch decode's Result, identity and stats.
func sicCell(t *testing.T, label string, capture *iq.Capture, cfg lf.DecoderConfig, block int) (*lf.Result, string, *lf.Stats) {
	t.Helper()
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := dec.DecodeCapture(capture)
	if err != nil {
		t.Fatal(err)
	}
	stats := dec.Stats()
	batchID := stats.Identity()
	streamed, streamedID := streamDecodeSamples(t, capture.Samples, cfg, block)
	if !reflect.DeepEqual(batch, streamed) {
		t.Fatalf("%s: streaming SIC decode diverged from batch:\nbatch:    %+v\nstreamed: %+v",
			label, batch, streamed)
	}
	if batchID != streamedID {
		t.Fatalf("%s: decode-class stats diverged:\nbatch:\n%s\nstreamed:\n%s", label, batchID, streamedID)
	}
	return batch, batchID, stats
}

// TestSICIncrementalMatchesFullResidual pins SIC's determinism across
// the degradation surface: for a clean capture, one capture per fault
// kind and a capture whose round one recovers a stream, at every
// CancellationRounds depth, the streaming decode — whose incremental
// rounds rebuild the residual over their own lane regions and decode
// it masked (DESIGN.md §17) — must produce byte-identical Results and
// decode-class stats to batch Decode of the same samples. (The name
// dates from when the reference was a full-residual rebuild of the
// same rounds; the rounds now have one mechanic.)
func TestSICIncrementalMatchesFullResidual(t *testing.T) {
	cases := sicCases(t)
	roundsSweep := []int{1, 2, 3}
	if testing.Short() {
		roundsSweep = []int{1, 2}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, rounds := range roundsSweep {
				rcfg := tc.cfg
				rcfg.CancellationRounds = rounds
				sicCell(t, fmt.Sprintf("%s/rounds=%d", tc.name, rounds), tc.capture, rcfg, 4096)
			}
		})
	}
}

// TestSICEquivalenceComposition pins that the SIC rounds compose with
// every push block size (single-sample pushes included) and that the
// result is invariant across those cells: the decode is a pure function
// of the sample sequence, so reshaping how it arrives must change
// nothing.
func TestSICEquivalenceComposition(t *testing.T) {
	ep, cfg := buildEpoch(t, 8, 21)
	cfg.CalibSamples = 32768
	fc := fault.Config{Seed: 9, Injectors: []fault.Injector{{Kind: fault.SpuriousEdges, Severity: 0.6}}}
	impaired, err := fc.ApplyCapture(ep.Capture)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []sicCase{{"clean", ep.Capture, cfg}, {string(fault.SpuriousEdges), impaired, cfg}} {
		t.Run(tc.name, func(t *testing.T) {
			rcfg := tc.cfg
			rcfg.CancellationRounds = 2
			want, wantID, _ := sicCell(t, "baseline", tc.capture, rcfg, 4096)
			check := func(label string, ccfg lf.DecoderConfig, block int) {
				got, gotID, _ := sicCell(t, label, tc.capture, ccfg, block)
				if !reflect.DeepEqual(want, got) || wantID != gotID {
					t.Fatalf("%s: SIC decode diverged from the block-4096 cell", label)
				}
			}
			check("block=1", rcfg, 1)
			check("block=whole", rcfg, len(tc.capture.Samples)+1)
			if testing.Short() {
				return
			}
			// Rounds ladder: deeper rounds must match batch too.
			for _, rounds := range []int{1, 3} {
				dcfg := rcfg
				dcfg.CancellationRounds = rounds
				sicCell(t, fmt.Sprintf("rounds-ladder=%d", rounds), tc.capture, dcfg, 4096)
			}
		})
	}
}

// TestSICRoundsActuallyRan guards the matrix above against vacuity: on
// the clean 8-tag capture the configured cancellation round must
// actually execute and mark dirty samples, so the cells compare real
// residual decodes, not early-outs; and some cell must run a second
// round over streams trusted in an earlier one (sic.carried_streams),
// so the per-round residual rebuild is exercised too.
func TestSICRoundsActuallyRan(t *testing.T) {
	cases := sicCases(t)
	cfg := cases[0].cfg
	cfg.CancellationRounds = 1
	_, _, snap := sicCell(t, "clean/rounds=1", cases[0].capture, cfg, 4096)
	if n := snap.Counter("sic.rounds"); n == 0 {
		t.Fatal("no cancellation round ran on the 8-tag capture; the equivalence matrix is vacuous")
	}
	if n := snap.Counter("sic.dirty_samples"); n == 0 {
		t.Fatal("cancellation ran but marked no dirty samples")
	}
	for _, tc := range cases {
		rcfg := tc.cfg
		rcfg.CancellationRounds = 3
		_, _, snap := sicCell(t, tc.name+"/rounds=3", tc.capture, rcfg, 4096)
		if snap.Counter("sic.rounds") >= 2 && snap.Counter("sic.carried_streams") > 0 {
			return
		}
	}
	t.Fatal("no cell ran a second cancellation round over carried streams; the residual rebuild is unexercised")
}
