package lf_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lf"
)

// streamDecode runs the streaming pipeline over an epoch's capture,
// pushed in fixed-size blocks.
func streamDecode(t *testing.T, ep *lf.Epoch, cfg lf.DecoderConfig, blockSize int) *lf.Result {
	t.Helper()
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	samples := ep.Capture.Samples
	for i := 0; i < len(samples); i += blockSize {
		end := min(i+blockSize, len(samples))
		if err := sd.Push(samples[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sd.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamingMatchesBatch pins the streaming pipeline's central
// contract: pushing a capture through StreamDecoder in blocks of any
// size — one sample at a time, mid-size blocks at awkward offsets, or
// a single block larger than the whole capture — produces a Result
// byte-identical to batch Decode with the same config. CalibSamples is
// set so the streaming path genuinely runs incrementally (calibrating,
// registering, walking, and committing frames mid-capture) rather than
// deferring everything to Flush.
func TestStreamingMatchesBatch(t *testing.T) {
	for _, tags := range []int{1, 4, 16} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("tags=%d/seed=%d", tags, seed), func(t *testing.T) {
				ep, cfg := buildEpoch(t, tags, seed)
				cfg.CalibSamples = 32768
				batch := decodeWith(t, ep, cfg)
				blocks := []int{1, 4096, 65536, len(ep.Capture.Samples) + 999}
				for _, block := range blocks {
					streamed := streamDecode(t, ep, cfg, block)
					if !reflect.DeepEqual(batch, streamed) {
						t.Fatalf("block=%d: streaming decode diverged from batch:\nbatch:    %+v\nstreamed: %+v", block, batch, streamed)
					}
				}
			})
		}
	}
}

// TestStreamingMatchesBatchDeferredCalibration covers the degenerate
// configuration: with CalibSamples = 0 the streaming decoder defers
// calibration (and hence the whole pipeline) to Flush, which must
// still reproduce the batch result exactly.
func TestStreamingMatchesBatchDeferredCalibration(t *testing.T) {
	ep, cfg := buildEpoch(t, 4, 42)
	batch := decodeWith(t, ep, cfg)
	streamed := streamDecode(t, ep, cfg, 8192)
	if !reflect.DeepEqual(batch, streamed) {
		t.Fatal("deferred-calibration streaming decode diverged from batch")
	}
}

// TestStreamingMemoryBounded verifies the O(window) memory claim: a
// capture padded to >10x its useful length must decode with retained
// memory that (a) stops growing once the frames commit and the window
// starts sliding, and (b) stays far below what buffering the pushed
// samples would cost. Cancellation is disabled because SIC retains the
// raw capture by design; everything else runs at defaults. The frames
// must also surface through OnFrame long before Flush. The serial
// subtest is the decoder's one execution shape.
func TestStreamingMemoryBounded(t *testing.T) {
	t.Run("serial", testStreamingMemoryBounded)
}

func testStreamingMemoryBounded(t *testing.T) {
	ep, cfg := buildEpoch(t, 2, 5)
	cfg.CalibSamples = 32768
	cfg.CancellationRounds = -1
	framesBeforeFlush := 0
	cfg.OnFrame = func(*lf.StreamResult) { framesBeforeFlush++ }

	base := ep.Capture.Samples
	const padFactor = 12
	padded := make([]complex128, len(base)*(1+padFactor))
	copy(padded, base)

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
	for i := 0; i < len(padded); i += block {
		end := min(i+block, len(padded))
		if err := sd.Push(padded[i:end]); err != nil {
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
	if framesBeforeFlush == 0 {
		t.Fatal("no frames emitted before Flush on a streaming decode")
	}
	res, err := sd.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if framesBeforeFlush != len(res.Streams) {
		t.Fatalf("OnFrame fired %d times, result has %d streams", framesBeforeFlush, len(res.Streams))
	}

	pushedBytes := int64(len(padded)) * 16
	if peak >= pushedBytes/4 {
		t.Fatalf("peak retained memory %d B is not far below the %d B of pushed samples", peak, pushedBytes)
	}
	// Between 2x the useful capture and the end of the 13x padded tail,
	// the retained window must not keep growing with pushed length.
	if atEnd > atDouble+1<<20 {
		t.Fatalf("retained memory still growing in the tail: %d B at 2x capture, %d B at end", atDouble, atEnd)
	}
}

// TestStreamShutdown pins the streaming decoder's lifecycle: a second
// Flush returns the same Result, Push after Flush fails cleanly, and no
// goroutine outlives the decodes, so repeated decodes do not accumulate
// goroutines.
func TestStreamShutdown(t *testing.T) {
	ep, cfg := buildEpoch(t, 2, 3)
	cfg.CalibSamples = 32768
	checkLifecycle(t, ep.Capture.Samples, cfg, "stream")
}

// checkLifecycle runs four streaming decodes under cfg and fails t if a
// decode finds no streams, a second Flush does not return the same
// Result, Push after Flush succeeds, or goroutines outlive the decodes.
func checkLifecycle(t *testing.T, samples []complex128, cfg lf.DecoderConfig, label string) {
	t.Helper()
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		dec, err := lf.NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := dec.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < len(samples); j += 8192 {
			if err := sd.Push(samples[j:min(j+8192, len(samples))]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sd.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Streams) == 0 {
			t.Fatalf("%s: decode found no streams", label)
		}
		again, err := sd.Flush()
		if err != nil || again != res {
			t.Fatalf("%s: second Flush = (%p, %v), want the same Result", label, again, err)
		}
		if err := sd.Push(samples[:16]); err == nil {
			t.Fatalf("%s: Push after Flush succeeded", label)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("%s: goroutines leaked: %d before, %d after decodes", label, before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStageGraphShutdown pins that the retired PipelineParallelism
// knob leaves the streaming decoder's lifecycle unchanged: it starts no
// goroutines that outlive Flush, a second Flush returns the same
// Result, and Push after Flush fails cleanly.
func TestStageGraphShutdown(t *testing.T) {
	ep, cfg := buildEpoch(t, 2, 3)
	cfg.CalibSamples = 32768
	cfg.PipelineParallelism = 2
	checkLifecycle(t, ep.Capture.Samples, cfg, "pipeline=2")
}

// TestStreamPushKeepsNoReference pins the buffer contract of
// StreamDecoder.Push that the reader gateway's recycled sample buffers
// rely on: Push copies what it needs and keeps no reference to its
// block. Every block is pushed from one reused buffer that is poisoned
// with NaN the moment Push returns; the decode must equal a clean one
// exactly — with cancellation on (it retains the raw capture) and off,
// at the gateway's chunk size and at an unaligned one.
func TestStreamPushKeepsNoReference(t *testing.T) {
	nan := complex(math.NaN(), math.NaN())
	for _, tags := range []int{16, 8} {
		ep, base := buildEpoch(t, tags, 3)
		for _, sic := range []bool{true, false} {
			cfg := base
			cfg.CalibSamples = 32768
			if !sic {
				cfg.CancellationRounds = -1
			}
			for _, block := range []int{1000, 8192} {
				t.Run(fmt.Sprintf("tags=%d/sic=%v/block=%d", tags, sic, block), func(t *testing.T) {
					clean, _ := streamDecodeSamples(t, ep.Capture.Samples, cfg, block)
					if len(clean.Streams) == 0 {
						t.Fatal("vacuous: clean decode found no streams")
					}
					dec, err := lf.NewDecoder(cfg)
					if err != nil {
						t.Fatal(err)
					}
					sd, err := dec.NewStream()
					if err != nil {
						t.Fatal(err)
					}
					buf := make([]complex128, block)
					samples := ep.Capture.Samples
					for lo := 0; lo < len(samples); lo += block {
						n := copy(buf, samples[lo:])
						if err := sd.Push(buf[:n]); err != nil {
							t.Fatal(err)
						}
						for i := range buf {
							buf[i] = nan
						}
					}
					poisoned, err := sd.Flush()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(clean, poisoned) {
						t.Fatal("overwriting pushed blocks after Push changed the decode")
					}
				})
			}
		}
	}
}

// streamDecodeSamples is streamDecode over explicit samples, returning
// the Result together with the decode-class stats identity.
func streamDecodeSamples(t *testing.T, samples []complex128, cfg lf.DecoderConfig, blockSize int) (*lf.Result, string) {
	t.Helper()
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(samples); i += blockSize {
		end := min(i+blockSize, len(samples))
		if err := sd.Push(samples[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sd.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return res, sd.Stats().Identity()
}
