package decoder

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzStreamPush shoves arbitrary bit patterns — NaNs, infinities,
// denormals, astronomically scaled values — through the streaming
// decoder at an arbitrary block size. The contract under fuzz is the
// graceful-degradation guarantee: no panic, and every outcome is
// either a typed error or a valid Result.
func FuzzStreamPush(f *testing.F) {
	f.Add([]byte{}, uint16(64))
	f.Add(make([]byte, 4096), uint16(1))
	ramp := make([]byte, 2048)
	for i := range ramp {
		ramp[i] = byte(i * 7)
	}
	f.Add(ramp, uint16(333))

	f.Fuzz(func(t *testing.T, data []byte, blockHint uint16) {
		// Caps the per-exec decode cost: adversarial bit patterns can
		// register hundreds of phantom streams, and the collision
		// resolution across them is the superlinear part.
		const maxSamples = 4096
		n := len(data) / 16
		if n > maxSamples {
			n = maxSamples
		}
		samples := make([]complex128, n)
		for i := 0; i < n; i++ {
			re := math.Float64frombits(binary.LittleEndian.Uint64(data[i*16:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(data[i*16+8:]))
			samples[i] = complex(re, im)
		}
		cfg := DefaultConfig(1e6, []float64{100e3, 50e3}, 24)
		cfg.CalibSamples = 256
		cfg.CancellationRounds = 0
		sd, err := NewStreamDecoder(1e6, cfg)
		if err != nil {
			t.Fatal(err)
		}
		block := int(blockHint%2048) + 1
		for lo := 0; lo < len(samples); lo += block {
			hi := min(lo+block, len(samples))
			if err := sd.Push(samples[lo:hi]); err != nil {
				assertTyped(t, err)
				return
			}
		}
		res, err := sd.Flush()
		if err != nil {
			assertTyped(t, err)
			return
		}
		for _, sr := range res.Streams {
			if sr.Stream == nil {
				t.Fatal("result stream without a registration")
			}
			if math.IsNaN(sr.Confidence) || sr.Confidence < 0 || sr.Confidence > 1 {
				t.Fatalf("confidence %v outside [0, 1]", sr.Confidence)
			}
			for _, b := range sr.Bits {
				if b > 1 {
					t.Fatalf("decoded non-bit %d", b)
				}
			}
		}
	})
}

func assertTyped(t *testing.T, err error) {
	t.Helper()
	if _, ok := err.(*DecodeError); !ok {
		t.Fatalf("decode failed with untyped error %T: %v", err, err)
	}
}
