package gate

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lf/internal/fault"
	"lf/internal/pool"
)

// refChunkFrame builds a chunk frame the long way, independently of
// the framing and sample codecs: the payload (Base, count, then each
// sample's real and imaginary IEEE-754 bits, little-endian) in its own
// buffer, then copied behind a header and closed with the CRC.
func refChunkFrame(base int64, samples []complex128) []byte {
	payload := binary.LittleEndian.AppendUint64(nil, uint64(base))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(samples)))
	for _, s := range samples {
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(real(s)))
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(imag(s)))
	}
	frame := []byte{gateMagic0, gateMagic1, msgChunk}
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame[2:]))
}

// TestChunkFrameMatchesReference pins the reader's one-pass chunk
// frame to the bytes of the reference construction, at every sample
// count edge the client produces (empty, one sample, a chunk either
// side of the default size, the protocol maximum), with the samples
// all in the pushed block, split between the client's buffered tail
// and the block, and all buffered.
func TestChunkFrameMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for _, n := range []int{0, 1, 8191, 8192, maxChunkSamples} {
		samples := make([]complex128, n)
		for i := range samples {
			samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		if n > 0 {
			samples[0] = complex(math.Copysign(0, -1), math.NaN())
		}
		base := rng.Int63()
		want := refChunkFrame(base, samples)
		for _, k := range []int{0, n / 3, n} {
			var w bytes.Buffer
			var err error
			if buf, err = proto.WriteFrame(&w, chunkFrame(buf, base, samples[:k], samples[k:])); err != nil {
				t.Fatalf("n=%d split=%d: %v", n, k, err)
			}
			if !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("n=%d split=%d: one-pass chunk frame differs from the reference", n, k)
			}
		}
	}
}

// pushPoisoned streams samples through c from one reused block buffer,
// overwriting the buffer with NaN as soon as each Push returns — the
// shape of a radio front end recycling its DMA buffers.
func pushPoisoned(t *testing.T, c *Client, samples []complex128, block int) {
	t.Helper()
	nan := complex(math.NaN(), math.NaN())
	buf := make([]complex128, block)
	for lo := 0; lo < len(samples); lo += block {
		n := copy(buf, samples[lo:])
		if err := c.Push(buf[:n]); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = nan
		}
	}
}

// TestClientKeepsNoBlock pins Client.Push's borrow of the caller's
// block: every block is overwritten the moment Push returns, at block
// sizes below, at and above the chunk size, and the gateway's frames
// must still equal a local decode. Under connection drops the resume
// path resends samples that were borrowed and then copied into the
// client's buffer, so that copy is pinned too.
func TestClientKeepsNoBlock(t *testing.T) {
	samples, cfg := testCapture(t, 3, 71)
	want := localFrames(t, samples, cfg, "r0", 1)
	if len(want) == 0 {
		t.Fatal("vacuous: local decode produced no frames")
	}
	for _, tc := range []struct {
		name      string
		transport fault.TransportConfig
	}{
		{"clean", fault.TransportConfig{}},
		{"conndrop", fault.TransportConfig{Seed: 3, Injectors: []fault.Injector{{Kind: fault.ConnDrop, Severity: 1}}}},
	} {
		for _, block := range []int{1000, 8192, 20000} {
			t.Run(tc.name+"/block="+strconv.Itoa(block), func(t *testing.T) {
				collect := newCollectSink()
				g, err := NewGateway(Config{Decoder: cfg, Sinks: []Sink{collect}, FlushAfter: 10 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { g.Close() })
				var drops atomic.Int64
				c, err := DialClient(context.Background(), ClientConfig{
					Addr: g.Addr(), Name: "r0", Nonce: 1, SampleRate: cfg.SampleRate,
					Transport: tc.transport, BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond,
					Logf: func(format string, _ ...any) {
						if strings.Contains(format, "send") || strings.Contains(format, "await ack") {
							drops.Add(1)
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				pushPoisoned(t, c, samples, block)
				if _, err := c.End(); err != nil {
					t.Fatal(err)
				}
				if err := g.Close(); err != nil {
					t.Fatal(err)
				}
				if got := collect.take()["r0"]; !reflect.DeepEqual(got, want) {
					t.Errorf("gateway frames diverged from local decode (%d vs %d frames)", len(got), len(want))
				}
				if tc.name == "conndrop" && drops.Load() == 0 {
					t.Error("vacuous: no connection dropped mid-capture")
				}
			})
		}
	}
}

// bytesPerRun reports the heap bytes f allocates per call, averaged
// over runs calls after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestIngestChunkAllocs guards the steady-state chunk path on both
// sides against per-chunk allocation: the reader building an
// 8192-sample chunk frame in its reused buffer, and the gateway reading
// that frame into a pooled body and decoding it into pooled samples.
// Either side allocating a chunk-sized buffer (~128 KiB) again would
// read far above the 1 KiB bound. Skipped under -race, where sync.Pool
// drops items at random.
func TestIngestChunkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const n, maxBytes = 8192, 1 << 10
	samples := make([]complex128, n)
	for i := range samples {
		samples[i] = complex(float64(i), -float64(i))
	}
	var frame []byte
	build := func() { frame = chunkFrame(frame, 4096, samples[:1000], samples[1000:]) }
	if b := bytesPerRun(100, build); b >= maxBytes {
		t.Errorf("reader chunk frame build allocates %d B per chunk, want < %d", b, maxBytes)
	}

	var wire bytes.Buffer
	if _, err := proto.WriteFrame(&wire, chunkFrame(nil, 4096, samples, nil)); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(wire.Bytes())
	ingest := func() {
		r.Reset(wire.Bytes())
		typ, payload, err := proto.ReadFrame(r, pool.BytesUninit)
		if err != nil || typ != msgChunk {
			t.Fatalf("read: type %d, %v", typ, err)
		}
		c, err := decodeChunk(payload, pool.ComplexUninit)
		pool.PutBytes(payload)
		if err != nil || len(c.Samples) != n {
			t.Fatalf("decode: %d samples, %v", len(c.Samples), err)
		}
		pool.PutComplex(c.Samples)
	}
	if b := bytesPerRun(100, ingest); b >= maxBytes {
		t.Errorf("gateway chunk read and decode allocates %d B per chunk, want < %d", b, maxBytes)
	}
}
