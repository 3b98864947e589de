package lf_test

import (
	"fmt"
	"reflect"
	"testing"

	"lf"
	"lf/internal/fault"
	"lf/internal/work"
)

// sicPair decodes the same samples with the incremental dirty-span SIC
// mechanics and with ForceFullResidual, and fails the test on any
// divergence in the Result or the decode-class stats identity. It
// returns the incremental pair for cross-cell comparisons.
func sicPair(t *testing.T, label string, samples []complex128, cfg lf.DecoderConfig, block int) (*lf.Result, string) {
	t.Helper()
	inc, incID := streamDecodeSamples(t, samples, cfg, block)
	fcfg := cfg
	fcfg.ForceFullResidual = true
	full, fullID := streamDecodeSamples(t, samples, fcfg, block)
	if !reflect.DeepEqual(inc, full) {
		t.Fatalf("%s: incremental SIC diverged from ForceFullResidual:\nincremental: %+v\nfull:        %+v",
			label, inc, full)
	}
	if incID != fullID {
		t.Fatalf("%s: decode-class stats diverged:\nincremental:\n%s\nfull:\n%s", label, incID, fullID)
	}
	return inc, incID
}

// TestSICIncrementalMatchesFullResidual pins the tentpole byte-identity
// contract across the degradation surface: for a clean capture and one
// capture per fault kind, at every CancellationRounds depth, the
// incremental dirty-span residual decode (carried residual,
// copy-on-read materialization) must produce byte-identical Results —
// frames, drops, recovered streams, and decode-class stats — to the
// ForceFullResidual rebuild of the same rounds (DESIGN.md §17). The two
// mechanics share the detection mask by construction; any divergence
// means a lane region, residual range, or calibration carry differed.
func TestSICIncrementalMatchesFullResidual(t *testing.T) {
	ep, cfg := buildEpoch(t, 8, 21)
	cfg.CalibSamples = 32768

	cases := []struct {
		name    string
		samples []complex128
	}{{"clean", ep.Capture.Samples}}
	for i, k := range fault.CaptureKinds() {
		fc := fault.Config{Seed: int64(300 + i), Injectors: []fault.Injector{{Kind: k, Severity: 0.6}}}
		impaired, err := fc.ApplyCapture(ep.Capture)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name    string
			samples []complex128
		}{string(k), impaired.Samples})
	}

	roundsSweep := []int{1, 2, 3}
	if testing.Short() {
		roundsSweep = []int{1, 2}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, rounds := range roundsSweep {
				rcfg := cfg
				rcfg.CancellationRounds = rounds
				sicPair(t, tc.name, tc.samples, rcfg, 4096)
			}
		})
	}
}

// TestSICEquivalenceComposition pins that the incremental mechanics
// compose with every execution shape the decoder offers — push block
// size (single-sample pushes included) and the worker fan-out of the
// sweep — and that the incremental result is invariant across all of
// those cells: the decode is a pure function of the sample sequence,
// so reshaping who computes what must change nothing.
func TestSICEquivalenceComposition(t *testing.T) {
	ep, cfg := buildEpoch(t, 8, 21)
	cfg.CalibSamples = 32768
	fc := fault.Config{Seed: 9, Injectors: []fault.Injector{{Kind: fault.SpuriousEdges, Severity: 0.6}}}
	impaired, err := fc.ApplyCapture(ep.Capture)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		samples []complex128
	}{{"clean", ep.Capture.Samples}, {string(fault.SpuriousEdges), impaired.Samples}} {
		t.Run(tc.name, func(t *testing.T) {
			rcfg := cfg
			rcfg.CancellationRounds = 2
			want, wantID := sicPair(t, "baseline", tc.samples, rcfg, 4096)
			check := func(label string, ccfg lf.DecoderConfig, block int) {
				got, gotID := sicPair(t, label, tc.samples, ccfg, block)
				if !reflect.DeepEqual(want, got) || wantID != gotID {
					t.Fatalf("%s: incremental decode diverged from the serial block-4096 cell", label)
				}
			}
			whole := len(tc.samples) + 1
			if len(tc.samples) < 2*work.MinChunk {
				// A whole-capture push shorter than two chunks would
				// leave the parallel cells below running serially.
				t.Fatalf("capture of %d samples is too short to split the sweep", len(tc.samples))
			}
			check("block=1", rcfg, 1)
			check("block=whole", rcfg, whole)
			for _, workers := range []int{1, 8} {
				pcfg := rcfg
				pcfg.Parallelism = workers
				check(fmt.Sprintf("parallelism=%d", workers), pcfg, 4096)
				check(fmt.Sprintf("parallelism=%d+block=whole", workers), pcfg, whole)
			}
			if testing.Short() {
				return
			}
			// Rounds ladder on the composed shape: deeper rounds under
			// the widest fan-out must stay pairwise identical too.
			for _, rounds := range []int{1, 3} {
				dcfg := rcfg
				dcfg.CancellationRounds = rounds
				dcfg.Parallelism = 8
				sicPair(t, "rounds-ladder", tc.samples, dcfg, 4096)
			}
		})
	}
}

// TestSICRoundsActuallyRan guards the matrix above against vacuity: on
// the clean 8-tag capture the configured cancellation rounds must
// actually execute and mark dirty samples, so the byte-identity cells
// compare real residual decodes, not early-outs.
func TestSICRoundsActuallyRan(t *testing.T) {
	ep, cfg := buildEpoch(t, 8, 21)
	cfg.CalibSamples = 32768
	cfg.CancellationRounds = 1
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(ep); err != nil {
		t.Fatal(err)
	}
	snap := dec.Stats()
	if n := snap.Counter("sic.rounds"); n == 0 {
		t.Fatal("no cancellation round ran on the 8-tag capture; the equivalence matrix is vacuous")
	}
	if n := snap.Counter("sic.dirty_samples"); n == 0 {
		t.Fatal("cancellation ran but marked no dirty samples")
	}
}
