package lf_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"lf/internal/edgedetect"
	"lf/internal/experiment"
	"lf/internal/fault"
	"lf/internal/iq"
)

// pinnedCase is one capture of the pinned edge corpus.
type pinnedCase struct {
	name    string
	capture *iq.Capture
}

// pinnedCorpus builds the captures TestSweepEdgesPinned covers: 16-tag
// networks on seeds 1-32 (the dense16_stream workload's captures), the
// first 8 slotted SIC bench windows (slotted_replay's), and the
// nonfinite, burst and dcstep faults at severity 0.5 on one capture of
// each shape.
func pinnedCorpus(t *testing.T) []pinnedCase {
	t.Helper()
	var cases []pinnedCase
	for seed := int64(1); seed <= 32; seed++ {
		ep, _ := buildEpoch(t, 16, seed)
		cases = append(cases, pinnedCase{fmt.Sprintf("dense16/seed=%d", seed), ep.Capture})
	}
	for seed := int64(1); seed <= 8; seed++ {
		ep, _, err := experiment.SICBenchEpoch(seed)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, pinnedCase{fmt.Sprintf("slotted/seed=%d", seed), ep.Capture})
	}
	bases := cases[:1:1]
	bases = append(bases, cases[32])
	for _, kind := range []fault.Kind{fault.NonFinite, fault.BurstNoise, fault.DCStep} {
		for _, b := range bases {
			fc := fault.Config{Seed: 101, Injectors: []fault.Injector{{Kind: kind, Severity: 0.5}}}
			impaired, err := fc.ApplyCapture(b.capture)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, pinnedCase{fmt.Sprintf("%s/%s", b.name, kind), impaired})
		}
	}
	return cases
}

// edgeDigest runs the edge detector over samples in block-sized pushes
// and returns the edge count with a hash of every edge's Pos, Diff,
// First, Last and Peaks, plus the stream's calibration.
func edgeDigest(t *testing.T, samples []complex128, block int, calib *edgedetect.CalibPreset) (string, *edgedetect.CalibPreset) {
	t.Helper()
	s, err := edgedetect.NewStream(edgedetect.StreamConfig{
		Config: edgedetect.DefaultConfig(), CalibSamples: 32768, Calib: calib,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	for lo := 0; lo < len(samples); lo += block {
		if err := s.Push(samples[lo:min(lo+block, len(samples))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [48]byte
	for _, e := range s.Edges() {
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.Pos))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(real(e.Diff)))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(imag(e.Diff)))
		binary.LittleEndian.PutUint64(buf[24:], uint64(e.First))
		binary.LittleEndian.PutUint64(buf[32:], uint64(e.Last))
		binary.LittleEndian.PutUint64(buf[40:], uint64(e.Peaks))
		h.Write(buf[:])
	}
	digest := fmt.Sprintf("%d:%x", len(s.Edges()), h.Sum(nil)[:8])
	return digest, &edgedetect.CalibPreset{Floor: s.NoiseFloor(), Threshold: s.Threshold()}
}

// pinnedDigests returns every case's digest per calibration mode:
// "self" calibrates over the first 32768 positions, "preset" starts
// from that run's floor and threshold (as a SIC residual pass does).
// Each is taken at block sizes 1000, 8192 and whole-capture, which must
// agree.
func pinnedDigests(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, c := range pinnedCorpus(t) {
		var preset *edgedetect.CalibPreset
		for _, mode := range []string{"self", "preset"} {
			key := c.name + "/" + mode
			for _, block := range []int{1000, 8192, len(c.capture.Samples)} {
				var cal *edgedetect.CalibPreset
				if mode == "preset" {
					cal = preset
				}
				d, own := edgeDigest(t, c.capture.Samples, block, cal)
				if mode == "self" && preset == nil {
					preset = own
				}
				if prev, ok := got[key]; ok && prev != d {
					t.Errorf("%s: block=%d digest %s, want %s (block sizes disagree)", key, block, d, prev)
				}
				got[key] = d
			}
		}
	}
	return got
}

// TestSweepEdgesPinned holds the edge detector's output to digests
// taken from the exact sweep, which computed math.Hypot at every
// position (DESIGN.md §12, "Screened sweep"): the screened sweep must
// reproduce every edge bit for bit, with and without a calibration
// preset and at any block size.
func TestSweepEdgesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned edge corpus skipped in -short mode")
	}
	got := pinnedDigests(t)
	if len(got) != len(sweepPinned) {
		t.Errorf("corpus has %d digests, pinned table %d", len(got), len(sweepPinned))
	}
	for key, want := range sweepPinned {
		if got[key] != want {
			t.Errorf("%s: digest %s, pinned %s", key, got[key], want)
		}
	}
}

// sweepPinned holds the digests pinnedDigests produced with the exact
// sweep (math.Hypot at every position), keyed by capture and
// calibration mode.
var sweepPinned = map[string]string{
	"dense16/seed=1/burst/preset":     "1275:15dc883b27482b7f",
	"dense16/seed=1/burst/self":       "1275:15dc883b27482b7f",
	"dense16/seed=1/dcstep/preset":    "1292:21f01b77c45a4d13",
	"dense16/seed=1/dcstep/self":      "1292:21f01b77c45a4d13",
	"dense16/seed=1/nonfinite/preset": "1290:85e3bf37f1e49589",
	"dense16/seed=1/nonfinite/self":   "1290:85e3bf37f1e49589",
	"dense16/seed=1/preset":           "1291:4e21a126aed89dd9",
	"dense16/seed=1/self":             "1291:4e21a126aed89dd9",
	"dense16/seed=10/preset":          "1314:39532607f518ddff",
	"dense16/seed=10/self":            "1314:39532607f518ddff",
	"dense16/seed=11/preset":          "1306:72c397f8239ebbc0",
	"dense16/seed=11/self":            "1306:72c397f8239ebbc0",
	"dense16/seed=12/preset":          "1138:1a23fd14eec40416",
	"dense16/seed=12/self":            "1138:1a23fd14eec40416",
	"dense16/seed=13/preset":          "1419:fd2964af396144d0",
	"dense16/seed=13/self":            "1419:fd2964af396144d0",
	"dense16/seed=14/preset":          "1318:80e491c85f11b51b",
	"dense16/seed=14/self":            "1318:80e491c85f11b51b",
	"dense16/seed=15/preset":          "1066:bf54d9a1fe474791",
	"dense16/seed=15/self":            "1066:bf54d9a1fe474791",
	"dense16/seed=16/preset":          "1342:47dc54f999b61c47",
	"dense16/seed=16/self":            "1342:47dc54f999b61c47",
	"dense16/seed=17/preset":          "1132:6bfe06f92758ae98",
	"dense16/seed=17/self":            "1132:6bfe06f92758ae98",
	"dense16/seed=18/preset":          "1422:8760a307b07e5b25",
	"dense16/seed=18/self":            "1422:8760a307b07e5b25",
	"dense16/seed=19/preset":          "1306:0a4e27138b2f8ba8",
	"dense16/seed=19/self":            "1306:0a4e27138b2f8ba8",
	"dense16/seed=2/preset":           "1309:09f506d68ac49be1",
	"dense16/seed=2/self":             "1309:09f506d68ac49be1",
	"dense16/seed=20/preset":          "1350:48fd10911f4488e8",
	"dense16/seed=20/self":            "1350:48fd10911f4488e8",
	"dense16/seed=21/preset":          "1274:1c3a0ff1e79b6d94",
	"dense16/seed=21/self":            "1274:1c3a0ff1e79b6d94",
	"dense16/seed=22/preset":          "1161:29772d69d37e0526",
	"dense16/seed=22/self":            "1161:29772d69d37e0526",
	"dense16/seed=23/preset":          "1175:a7c1f167ebf7eec6",
	"dense16/seed=23/self":            "1175:a7c1f167ebf7eec6",
	"dense16/seed=24/preset":          "1311:528fda8d054fa65a",
	"dense16/seed=24/self":            "1311:528fda8d054fa65a",
	"dense16/seed=25/preset":          "1399:ce62ac3601938205",
	"dense16/seed=25/self":            "1399:ce62ac3601938205",
	"dense16/seed=26/preset":          "1257:24f1acd8aa9c4d55",
	"dense16/seed=26/self":            "1257:24f1acd8aa9c4d55",
	"dense16/seed=27/preset":          "1406:09b4f6b540244a8f",
	"dense16/seed=27/self":            "1406:09b4f6b540244a8f",
	"dense16/seed=28/preset":          "1372:c12a3adf578e1d69",
	"dense16/seed=28/self":            "1372:c12a3adf578e1d69",
	"dense16/seed=29/preset":          "1290:0c866332c29757a5",
	"dense16/seed=29/self":            "1290:0c866332c29757a5",
	"dense16/seed=3/preset":           "1425:9ab5cfe40ccff52c",
	"dense16/seed=3/self":             "1425:9ab5cfe40ccff52c",
	"dense16/seed=30/preset":          "1369:47c4c566cc1e1291",
	"dense16/seed=30/self":            "1369:47c4c566cc1e1291",
	"dense16/seed=31/preset":          "1264:b75de8c15e15727c",
	"dense16/seed=31/self":            "1264:b75de8c15e15727c",
	"dense16/seed=32/preset":          "1215:d50aeff6b5c153f7",
	"dense16/seed=32/self":            "1215:d50aeff6b5c153f7",
	"dense16/seed=4/preset":           "1400:3a693dc7f27c7abe",
	"dense16/seed=4/self":             "1400:3a693dc7f27c7abe",
	"dense16/seed=5/preset":           "1338:2fe354183732a937",
	"dense16/seed=5/self":             "1338:2fe354183732a937",
	"dense16/seed=6/preset":           "1246:e22200e08e93cc65",
	"dense16/seed=6/self":             "1246:e22200e08e93cc65",
	"dense16/seed=7/preset":           "1229:c78ead3815af0eac",
	"dense16/seed=7/self":             "1229:c78ead3815af0eac",
	"dense16/seed=8/preset":           "1206:47c46c70f93ffe22",
	"dense16/seed=8/self":             "1206:47c46c70f93ffe22",
	"dense16/seed=9/preset":           "1413:bf0c11cbb1a3797f",
	"dense16/seed=9/self":             "1413:bf0c11cbb1a3797f",
	"slotted/seed=1/burst/preset":     "649:7996a30cb074f84e",
	"slotted/seed=1/burst/self":       "649:7996a30cb074f84e",
	"slotted/seed=1/dcstep/preset":    "280:e4cea778d7cbc24f",
	"slotted/seed=1/dcstep/self":      "280:e4cea778d7cbc24f",
	"slotted/seed=1/nonfinite/preset": "279:ec34eb3751e47a90",
	"slotted/seed=1/nonfinite/self":   "279:ec34eb3751e47a90",
	"slotted/seed=1/preset":           "279:ec34eb3751e47a90",
	"slotted/seed=1/self":             "279:ec34eb3751e47a90",
	"slotted/seed=2/preset":           "245:2ad1bbbf0cae5bc0",
	"slotted/seed=2/self":             "245:2ad1bbbf0cae5bc0",
	"slotted/seed=3/preset":           "280:d0f5fae6345a620b",
	"slotted/seed=3/self":             "280:d0f5fae6345a620b",
	"slotted/seed=4/preset":           "254:8900c4f6afcb38a0",
	"slotted/seed=4/self":             "254:8900c4f6afcb38a0",
	"slotted/seed=5/preset":           "233:88943dc6e01b220d",
	"slotted/seed=5/self":             "233:88943dc6e01b220d",
	"slotted/seed=6/preset":           "254:4672248197d8f852",
	"slotted/seed=6/self":             "254:4672248197d8f852",
	"slotted/seed=7/preset":           "273:728ff1f20ff3a8a0",
	"slotted/seed=7/self":             "273:728ff1f20ff3a8a0",
	"slotted/seed=8/preset":           "241:3aa5b81144420e9c",
	"slotted/seed=8/self":             "241:3aa5b81144420e9c",
}
