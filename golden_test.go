package lf_test

// Golden-trace regression corpus. Each case is a committed LFIQ
// capture under testdata/golden/ plus the expected decode rendered to
// text: the frames (<name>.frames) and the pipeline-stats identity
// (<name>.stats). The test decodes every capture through BOTH the
// batch and the streaming path and requires byte-for-byte equality
// with the committed files — any change to decode output or to the
// decode-class metrics shows up as a readable text diff.
//
// Regenerate after an intentional pipeline change with:
//
//	go test -run TestGolden -update
//
// and review the .frames/.stats diffs like any other code change. The
// captures themselves are regenerated too (deterministically, from the
// case seeds), so -update is safe to run on any machine.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lf"
	"lf/internal/fault"
	"lf/internal/iq"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden from the case table")

// goldenBlock is the streaming push block size; goldenCalib bounds
// noise calibration so streaming detection starts mid-capture.
const (
	goldenBlock = 4096
	goldenCalib = 4096
)

// goldenCase describes one corpus entry. Faulted cases impair the
// capture at generation time; the committed .lfiq already contains the
// impairment, so decoding needs no fault machinery.
type goldenCase struct {
	name string
	// sampleRate and tags shape the synthesized epoch. The clean and
	// fault cases run 4 tags at 5 Msps (small files); the collision
	// case needs 12.5 Msps for a dense 8-tag population to register.
	sampleRate float64
	tags       int
	seed       int64
	fault      string // fault.ParseSpec list applied to the capture
	faultSeed  int64
	// rounds enables successive interference cancellation for the
	// decode (lf.DecoderConfig.CancellationRounds). The sic case pins
	// the incremental dirty-span residual passes end to end: recovered
	// streams, carried calibration, and the SIC decode-class counters
	// all land in the committed text.
	rounds int
}

// Fault seeds are chosen so the impairment lands after the
// calibration window: a span inside the first CalibSamples poisons the
// noise estimate and (correctly, but uninterestingly) kills the whole
// decode. These cases pin the graceful-degradation path instead.
var goldenCases = []goldenCase{
	{name: "clean", sampleRate: 5e6, tags: 4, seed: 11},
	{name: "collision", sampleRate: 12.5e6, tags: 8, seed: 5},
	// The sic case's seed is chosen so the capture carries multiple
	// 2-tag collisions plus a 3-tag pile-up, both cancellation rounds
	// actually run, and round one recovers a stream the first pass
	// could not decode.
	{name: "sic", sampleRate: 12.5e6, tags: 8, seed: 10, rounds: 2},
	{name: "burst", sampleRate: 5e6, tags: 4, seed: 31, fault: "burst:0.75", faultSeed: 7},
	{name: "dropout", sampleRate: 5e6, tags: 4, seed: 37, fault: "dropout:0.2", faultSeed: 13},
	{name: "nonfinite", sampleRate: 5e6, tags: 4, seed: 41, fault: "nonfinite:0.75", faultSeed: 7},
	{name: "gainstep", sampleRate: 5e6, tags: 4, seed: 43, fault: "gainstep:0.5", faultSeed: 13},
}

// goldenConfig is the fixed, fully explicit decode configuration every
// corpus capture is decoded with — independent of the simulator so a
// replayed capture decodes identically forever.
func goldenConfig(sampleRate float64, rounds int) lf.DecoderConfig {
	return lf.DecoderConfig{
		SampleRate:         sampleRate,
		Rates:              []float64{100e3},
		PayloadBits:        func(float64) int { return 20 },
		Stages:             lf.AllStages(),
		CalibSamples:       goldenCalib,
		Seed:               9,
		CancellationRounds: rounds,
	}
}

func TestGolden(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			if *updateGolden {
				writeGoldenCapture(t, gc)
			}
			capture := readGoldenCapture(t, gc.name)

			// Batch decode.
			dec, err := lf.NewDecoder(goldenConfig(capture.SampleRate, gc.rounds))
			if err != nil {
				t.Fatal(err)
			}
			res, err := dec.DecodeCapture(capture)
			if err != nil {
				t.Fatal(err)
			}
			frames := renderFrames(res)
			stats := dec.Stats().Identity()

			// Streaming decode of the same samples must match both
			// renderings byte-for-byte.
			sdec, err := lf.NewDecoder(goldenConfig(capture.SampleRate, gc.rounds))
			if err != nil {
				t.Fatal(err)
			}
			sd, err := sdec.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(capture.Samples); lo += goldenBlock {
				hi := min(lo+goldenBlock, len(capture.Samples))
				if err := sd.Push(capture.Samples[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
			sres, err := sd.Flush()
			if err != nil {
				t.Fatal(err)
			}
			if got := renderFrames(sres); got != frames {
				t.Fatalf("streaming frames diverged from batch:\n%s", textDiff(frames, got))
			}
			if got := sd.Stats().Identity(); got != stats {
				t.Fatalf("streaming stats diverged from batch:\n%s", textDiff(stats, got))
			}

			if *updateGolden {
				writeGoldenText(t, gc.name, "frames", frames)
				writeGoldenText(t, gc.name, "stats", stats)
				return
			}
			wantFrames := readGoldenText(t, gc.name, "frames")
			if frames != wantFrames {
				t.Errorf("frames diverged from golden (re-run with -update if intentional):\n%s",
					textDiff(wantFrames, frames))
			}
			wantStats := readGoldenText(t, gc.name, "stats")
			if stats != wantStats {
				t.Errorf("stats identity diverged from golden (re-run with -update if intentional):\n%s",
					textDiff(wantStats, stats))
			}
		})
	}
}

// writeGoldenCapture synthesizes (and optionally impairs) one case's
// capture and commits it to testdata/golden/<name>.lfiq.
func writeGoldenCapture(t *testing.T, gc goldenCase) {
	t.Helper()
	net, err := lf.NewNetwork(lf.NetworkConfig{
		NumTags:        gc.tags,
		PayloadSeconds: 0.2e-3,
		SampleRate:     gc.sampleRate,
		Seed:           gc.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if gc.fault != "" {
		injs, err := fault.ParseSpec(gc.fault)
		if err != nil {
			t.Fatal(err)
		}
		capture, err := fault.Config{Seed: gc.faultSeed, Injectors: injs}.ApplyCapture(ep.Capture)
		if err != nil {
			t.Fatal(err)
		}
		ep = &lf.Epoch{Capture: capture, Emissions: ep.Emissions, Config: ep.Config}
	}
	f, err := os.Create(goldenPath(gc.name, "lfiq"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := lf.WriteCapture(f, ep); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func goldenPath(name, ext string) string {
	return filepath.Join("testdata", "golden", name+"."+ext)
}

func writeGoldenText(t *testing.T, name, ext, content string) {
	t.Helper()
	if err := os.WriteFile(goldenPath(name, ext), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGoldenCapture(t *testing.T, name string) *iq.Capture {
	t.Helper()
	path := goldenPath(name, "lfiq")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s (regenerate with -update): %v", path, err)
	}
	defer f.Close()
	capture, err := lf.ReadCapture(f)
	if err != nil {
		t.Fatal(err)
	}
	return capture
}

func readGoldenText(t *testing.T, name, ext string) string {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name, ext))
	if err != nil {
		t.Fatalf("read golden %s.%s (regenerate with -update): %v", name, ext, err)
	}
	return string(data)
}

// renderFrames renders a decode result to the canonical golden text:
// every float printed with %.17g (exact for float64), bits as a 0/1
// string, streams and drops in result order.
func renderFrames(res *lf.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "streams %d edges %d noise %.17g collisions2 %d collisions3 %d merged %d recovered %d\n",
		len(res.Streams), res.EdgeCount, res.NoiseFloor, res.Collisions2, res.Collisions3,
		res.MergedSplits, res.RecoveredStreams)
	for i, sr := range res.Streams {
		fmt.Fprintf(&b, "stream %d source=%s rate=%.17g offset=%.17g bits=%s crc=%v conf=%.17g margin=%.17g collided=%d recovered=%v\n",
			i, sr.Stream.Source, sr.Stream.Rate, sr.Stream.Offset, bitString(sr.Bits),
			sr.CRCOK, sr.Confidence, sr.PathMargin, sr.CollidedSlots, sr.Recovered)
	}
	for _, d := range res.Dropped {
		fmt.Fprintf(&b, "dropped stream=%d reason=%s lo=%d hi=%d\n", d.Stream, d.Reason, d.Lo, d.Hi)
	}
	return b.String()
}

func bitString(bits []byte) string {
	if len(bits) == 0 {
		return "-"
	}
	var b strings.Builder
	for _, bit := range bits {
		if bit == 0 {
			b.WriteByte('0')
		} else {
			b.WriteByte('1')
		}
	}
	return b.String()
}

// textDiff renders a minimal line diff of two golden texts.
func textDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  want: %s\n  got:  %s\n", i+1, w, g)
	}
	return b.String()
}
