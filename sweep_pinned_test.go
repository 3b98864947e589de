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
// First, Last and Peaks, plus the stream's calibration. The stream
// calibrates over its first calibSamples positions (0: the whole
// capture) unless calib presets it.
func edgeDigest(t *testing.T, samples []complex128, block int, calibSamples int64, calib *edgedetect.CalibPreset) (string, *edgedetect.CalibPreset) {
	t.Helper()
	s, err := edgedetect.NewStream(edgedetect.StreamConfig{
		Config: edgedetect.DefaultConfig(), CalibSamples: calibSamples, Calib: calib,
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
				d, own := edgeDigest(t, c.capture.Samples, block, 32768, cal)
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

// calibDigests returns, per case, the self-calibrated noise floor and
// threshold bits at CalibSamples 32768 ("calib=32768") and at
// CalibSamples 0 ("calib=0", calibrated over the whole capture at
// Close), the latter with its edge digest. The 0 digest is taken at
// block sizes 8192 and whole-capture, which must agree.
func calibDigests(t *testing.T) map[string]string {
	t.Helper()
	bits := func(c *edgedetect.CalibPreset) string {
		return fmt.Sprintf("%016x:%016x", math.Float64bits(c.Floor), math.Float64bits(c.Threshold))
	}
	got := map[string]string{}
	for _, c := range pinnedCorpus(t) {
		_, own := edgeDigest(t, c.capture.Samples, len(c.capture.Samples), 32768, nil)
		got[c.name+"/calib=32768"] = bits(own)
		key := c.name + "/calib=0"
		for _, block := range []int{8192, len(c.capture.Samples)} {
			d, own := edgeDigest(t, c.capture.Samples, block, 0, nil)
			v := bits(own) + "/" + d
			if prev, ok := got[key]; ok && prev != v {
				t.Errorf("%s: block=%d %s, want %s (block sizes disagree)", key, block, v, prev)
			}
			got[key] = v
		}
	}
	return got
}

// TestCalibPinned holds the detector's self-calibration to values taken
// from the exact calibration, which computed math.Hypot at every
// position of the window and took the median by quickselect (DESIGN.md
// §12, "Calibration"): the floor and threshold must match bit for bit
// at CalibSamples 32768 and 0, and at 0, where the whole capture is the
// window, so must every edge.
func TestCalibPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned calibration corpus skipped in -short mode")
	}
	got := calibDigests(t)
	if len(got) != len(calibPinned) {
		t.Errorf("corpus has %d calibrations, pinned table %d", len(got), len(calibPinned))
	}
	for key, want := range calibPinned {
		if got[key] != want {
			t.Errorf("%s: %s, pinned %s", key, got[key], want)
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

// calibPinned holds the floor and threshold bits calibDigests produced
// with the exact calibration (math.Hypot over the whole window, the
// median by quickselect), and at CalibSamples 0 the edge digest.
var calibPinned = map[string]string{
	"dense16/seed=1/burst/calib=0":         "3f05751834a8406e:3f2f87b528421b4f/1275:d9975d4a4a986f8f",
	"dense16/seed=1/burst/calib=32768":     "3f0922501a7432e8:3f2f87b528421b4f",
	"dense16/seed=1/calib=0":               "3f052c2d543481ce:3f252c2d543481ce/1291:069bb669f777e918",
	"dense16/seed=1/calib=32768":           "3f0886744a5e746e:3f2886744a5e746e",
	"dense16/seed=1/dcstep/calib=0":        "3f052cb23a37644b:3f27a604eb616c07/1292:c8c9b49abb3f965d",
	"dense16/seed=1/dcstep/calib=32768":    "3f0887c140762af0:3f2887c140762af0",
	"dense16/seed=1/nonfinite/calib=0":     "3f05287262d1f24a:3f25287262d1f24a/1290:35435cf8a1ed82e9",
	"dense16/seed=1/nonfinite/calib=32768": "3f0884947c9e5896:3f2884947c9e5896",
	"dense16/seed=10/calib=0":              "3f04f6c527e393b0:3f24f6c527e393b0/1314:773753553ff31147",
	"dense16/seed=10/calib=32768":          "3f07f0ca39a3daf2:3f27f0ca39a3daf2",
	"dense16/seed=11/calib=0":              "3f05093888159790:3f25093888159790/1306:72c397f8239ebbc0",
	"dense16/seed=11/calib=32768":          "3f086d6587111bbf:3f286d6587111bbf",
	"dense16/seed=12/calib=0":              "3f0487bb649523f8:3f2487bb649523f8/1138:1a23fd14eec40416",
	"dense16/seed=12/calib=32768":          "3f07292934b31ee2:3f27292934b31ee2",
	"dense16/seed=13/calib=0":              "3f056ab9f0c6ce50:3f256ab9f0c6ce50/1420:5950ffdbf72e7111",
	"dense16/seed=13/calib=32768":          "3f08d46000360877:3f28d46000360877",
	"dense16/seed=14/calib=0":              "3f0505174693d516:3f2505174693d516/1318:677a15636cc35669",
	"dense16/seed=14/calib=32768":          "3f0816420816c960:3f2816420816c960",
	"dense16/seed=15/calib=0":              "3f0459b0284cd433:3f2b90ab118c0b18/1065:6e287b3f9c054178",
	"dense16/seed=15/calib=32768":          "3f0695abf0497a3e:3f2b90ab118c0b18",
	"dense16/seed=16/calib=0":              "3f04f4f5ded10733:3f24f4f5ded10733/1341:737526709c4780b7",
	"dense16/seed=16/calib=32768":          "3f0830dcf4144484:3f2830dcf4144484",
	"dense16/seed=17/calib=0":              "3f04bae24d4ff468:3f259100995fc4af/1132:40019a9b47d6303e",
	"dense16/seed=17/calib=32768":          "3f07515a6851042e:3f27515a6851042e",
	"dense16/seed=18/calib=0":              "3f053a701f95a3cc:3f253a701f95a3cc/1422:723f6b066764b533",
	"dense16/seed=18/calib=32768":          "3f0885e4f4458c86:3f2885e4f4458c86",
	"dense16/seed=19/calib=0":              "3f04cc7cf3592fb5:3f24cc7cf3592fb5/1306:2e673bfe0fbf1249",
	"dense16/seed=19/calib=32768":          "3f07b3e8c7f7a25c:3f27b3e8c7f7a25c",
	"dense16/seed=2/calib=0":               "3f04e5607c94ee88:3f24e5607c94ee88/1308:6663de3aa641c773",
	"dense16/seed=2/calib=32768":           "3f07d02f852d77e2:3f27d02f852d77e2",
	"dense16/seed=20/calib=0":              "3f04f6893e0b5678:3f24f6893e0b5678/1350:d55dc913acd38179",
	"dense16/seed=20/calib=32768":          "3f07973fdb69956f:3f27973fdb69956f",
	"dense16/seed=21/calib=0":              "3f050f1c791c8b18:3f250f1c791c8b18/1275:0abf1e6ceb2a6022",
	"dense16/seed=21/calib=32768":          "3f0847f8e72e7dfc:3f2847f8e72e7dfc",
	"dense16/seed=22/calib=0":              "3f04a53d9ffb9b46:3f277a0179d48fc5/1161:29772d69d37e0526",
	"dense16/seed=22/calib=32768":          "3f069e975ff24112:3f277a0179d48fc5",
	"dense16/seed=23/calib=0":              "3f0495e3958ac7d8:3f2495e3958ac7d8/1175:b58caecbdc2f69d2",
	"dense16/seed=23/calib=32768":          "3f06a58e66667fae:3f26a58e66667fae",
	"dense16/seed=24/calib=0":              "3f04f55949a70a30:3f24f55949a70a30/1311:8b26f94e98ca7191",
	"dense16/seed=24/calib=32768":          "3f07c8c7c5bbe842:3f27c8c7c5bbe842",
	"dense16/seed=25/calib=0":              "3f0523cf9330ad20:3f2523cf9330ad20/1399:3d58713d4d83861f",
	"dense16/seed=25/calib=32768":          "3f088c47a62e9fb0:3f288c47a62e9fb0",
	"dense16/seed=26/calib=0":              "3f04b2c0e467792f:3f24b2c0e467792f/1257:62754e5ed5fe1a05",
	"dense16/seed=26/calib=32768":          "3f071c1cc566a04f:3f271c1cc566a04f",
	"dense16/seed=27/calib=0":              "3f05389e1410eefc:3f25389e1410eefc/1405:1d4521dd4a93ce46",
	"dense16/seed=27/calib=32768":          "3f0887891a9407d9:3f2887891a9407d9",
	"dense16/seed=28/calib=0":              "3f05103a26cba9b2:3f25103a26cba9b2/1372:ee766e354a7f9d20",
	"dense16/seed=28/calib=32768":          "3f0846ddec37972e:3f2846ddec37972e",
	"dense16/seed=29/calib=0":              "3f04c6c445bb2fcc:3f24c6c445bb2fcc/1290:22922fcc1b7aa7a1",
	"dense16/seed=29/calib=32768":          "3f07ecdf249d8253:3f27ecdf249d8253",
	"dense16/seed=3/calib=0":               "3f051c2f1e6f522f:3f251c2f1e6f522f/1425:4d3989ed3e13bcfe",
	"dense16/seed=3/calib=32768":           "3f086c6a1e8665d1:3f286c6a1e8665d1",
	"dense16/seed=30/calib=0":              "3f05139c44f01bee:3f25139c44f01bee/1369:34ac19f6616d7e76",
	"dense16/seed=30/calib=32768":          "3f0816e05f163e46:3f2816e05f163e46",
	"dense16/seed=31/calib=0":              "3f04c69f74738a4b:3f24c69f74738a4b/1264:8d2ceb0358e5a482",
	"dense16/seed=31/calib=32768":          "3f07763c0940f1bc:3f27763c0940f1bc",
	"dense16/seed=32/calib=0":              "3f04c9d9876ee622:3f24c9d9876ee622/1215:e32ce70ee41d472d",
	"dense16/seed=32/calib=32768":          "3f07c4a572cf78e1:3f27c4a572cf78e1",
	"dense16/seed=4/calib=0":               "3f053060a33c23b2:3f253060a33c23b2/1400:88c6e48f5005d2cf",
	"dense16/seed=4/calib=32768":           "3f082747a75f51a1:3f282747a75f51a1",
	"dense16/seed=5/calib=0":               "3f05063b4d9c9cf9:3f25063b4d9c9cf9/1338:2a558c81f650ab62",
	"dense16/seed=5/calib=32768":           "3f07fb6df84519d5:3f27fb6df84519d5",
	"dense16/seed=6/calib=0":               "3f04e69598790552:3f24e69598790552/1246:895c111c7ad5ecdc",
	"dense16/seed=6/calib=32768":           "3f07aac96c08acd8:3f27aac96c08acd8",
	"dense16/seed=7/calib=0":               "3f050a165e19efc7:3f250a165e19efc7/1228:544abb138d6a8a32",
	"dense16/seed=7/calib=32768":           "3f07c7e3cf8c68e1:3f27c7e3cf8c68e1",
	"dense16/seed=8/calib=0":               "3f04b15f59352eae:3f24b15f59352eae/1206:42d3f7e3ecf31901",
	"dense16/seed=8/calib=32768":           "3f0764522d5fef51:3f2764522d5fef51",
	"dense16/seed=9/calib=0":               "3f04c91bff2aae0a:3f24c91bff2aae0a/1413:e5993adda6ecda4c",
	"dense16/seed=9/calib=32768":           "3f07c556ccf40f19:3f27c556ccf40f19",
	"slotted/seed=1/burst/calib=0":         "3f021f494a80e9d4:3f221f494a80e9d4/649:c420e6dd4d136adf",
	"slotted/seed=1/burst/calib=32768":     "3f01c8f544d83982:3f21c8f544d83982",
	"slotted/seed=1/calib=0":               "3f01e44e84a0d680:3f21e44e84a0d680/276:63042c0b0a5e7d6c",
	"slotted/seed=1/calib=32768":           "3f01c8f544d83982:3f21c8f544d83982",
	"slotted/seed=1/dcstep/calib=0":        "3f01e4559e6bbce0:3f21e4559e6bbce0/277:123cd14e922cadf1",
	"slotted/seed=1/dcstep/calib=32768":    "3f01c8f544d83982:3f21c8f544d83982",
	"slotted/seed=1/nonfinite/calib=0":     "3f01e3f31439159b:3f21e3f31439159b/276:63042c0b0a5e7d6c",
	"slotted/seed=1/nonfinite/calib=32768": "3f01c74fe342f8f5:3f21c74fe342f8f5",
	"slotted/seed=2/calib=0":               "3f01d8dcbda6d388:3f21d8dcbda6d388/244:eb43edf44e7a6355",
	"slotted/seed=2/calib=32768":           "3f01ba9fb486d494:3f21ba9fb486d494",
	"slotted/seed=3/calib=0":               "3f01dfd66ba85944:3f21dfd66ba85944/280:d0f5fae6345a620b",
	"slotted/seed=3/calib=32768":           "3f01ce84374cc636:3f21ce84374cc636",
	"slotted/seed=4/calib=0":               "3f01d94bb8d1e058:3f21d94bb8d1e058/256:27676651a3056113",
	"slotted/seed=4/calib=32768":           "3f01f99c0be6d2af:3f21f99c0be6d2af",
	"slotted/seed=5/calib=0":               "3f01e2b7e25dafde:3f21e2b7e25dafde/233:88943dc6e01b220d",
	"slotted/seed=5/calib=32768":           "3f01da81f33a105e:3f21da81f33a105e",
	"slotted/seed=6/calib=0":               "3f01e52fc85bf5f2:3f21e52fc85bf5f2/254:4672248197d8f852",
	"slotted/seed=6/calib=32768":           "3f01f9c141fd52ec:3f21f9c141fd52ec",
	"slotted/seed=7/calib=0":               "3f01d858cbf3e66e:3f21d858cbf3e66e/276:a2df22d0100e14db",
	"slotted/seed=7/calib=32768":           "3f01f3d975a97037:3f21f3d975a97037",
	"slotted/seed=8/calib=0":               "3f01d9326a5aa31c:3f21d9326a5aa31c/240:ab7e44eecae1c125",
	"slotted/seed=8/calib=32768":           "3f01bcd83e10b05d:3f21bcd83e10b05d",
}
