package iq

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"lf/internal/rng"
)

// edgeFloats are the bit patterns a sample codec is most likely to
// disturb: quiet and signalling NaNs with payloads (and a negative
// sign), signed zeros and infinities, subnormals, and the extremes.
var edgeFloats = []uint64{
	0x0000000000000000,                            // +0
	0x8000000000000000,                            // −0
	0x7FF0000000000000,                            // +Inf
	0xFFF0000000000000,                            // −Inf
	0x7FF8000000000000,                            // canonical quiet NaN
	0x7FF8000000000ABC,                            // quiet NaN with payload
	0xFFFC000000001234,                            // negative quiet NaN with payload
	0x7FF0000000000001,                            // signalling NaN, smallest payload
	0x7FF4DEADBEEF0001,                            // signalling NaN with payload
	0xFFF7FFFFFFFFFFFF,                            // negative signalling NaN, largest payload
	0x0000000000000001,                            // smallest subnormal
	0x800FFFFFFFFFFFFF,                            // −largest subnormal
	math.Float64bits(math.MaxFloat64),             // +MaxFloat64
	math.Float64bits(-math.MaxFloat64),            // −MaxFloat64
	math.Float64bits(math.SmallestNonzeroFloat64), // same as the smallest subnormal, by value
	math.Float64bits(-1.5),
	math.Float64bits(math.Pi),
}

// codecCorpus pairs every edge pattern with every other as (re, im),
// then appends samples of random bits.
func codecCorpus() []complex128 {
	var s []complex128
	for _, re := range edgeFloats {
		for _, im := range edgeFloats {
			s = append(s, complex(math.Float64frombits(re), math.Float64frombits(im)))
		}
	}
	src := rng.New(7)
	for i := 0; i < 1000; i++ {
		re := uint64(src.Int63())<<1 ^ uint64(src.Intn(2))
		im := uint64(src.Int63())<<1 ^ uint64(src.Intn(2))
		s = append(s, complex(math.Float64frombits(re), math.Float64frombits(im)))
	}
	return s
}

// sameBits reports whether a and b hold identical bit patterns.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func requireSameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: sample %d bits %016x/%016x, want %016x/%016x", what, i,
				math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

// withPortable runs f once on the host's path and once with the
// little-endian fast path disabled, so both paths are exercised on
// any host.
func withPortable(t *testing.T, f func(t *testing.T)) {
	t.Run("host", f)
	t.Run("portable", func(t *testing.T) {
		saved := hostLittleEndian
		hostLittleEndian = false
		defer func() { hostLittleEndian = saved }()
		f(t)
	})
}

// TestSampleCodecFastMatchesPortable compares the exported codec with
// the portable per-sample path byte for byte in both directions, and
// the portable encoding with the format's definition.
func TestSampleCodecFastMatchesPortable(t *testing.T) {
	s := codecCorpus()
	want := make([]byte, 0, SampleSize*len(s))
	for _, v := range s {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(real(v)))
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(imag(v)))
	}
	portable := make([]byte, SampleSize*len(s))
	putSamplesPortable(portable, s)
	if !bytes.Equal(portable, want) {
		t.Fatal("portable encoding differs from the little-endian definition")
	}
	prefix := []byte{0xAA, 0xBB, 0xCC}
	enc := AppendSamples(append([]byte(nil), prefix...), s)
	if !bytes.Equal(enc[:len(prefix)], prefix) || !bytes.Equal(enc[len(prefix):], want) {
		t.Fatal("AppendSamples differs from the portable encoding")
	}

	got := make([]complex128, len(s))
	GetSamples(got, want)
	requireSameBits(t, "GetSamples", got, s)
	ref := make([]complex128, len(s))
	getSamplesPortable(ref, want)
	requireSameBits(t, "getSamplesPortable", ref, s)
}

// TestSampleCodecCaptureRoundTrip round-trips the corpus through WriteTo
// and ReadCapture on both paths: the container bytes must be identical
// and every sample must come back bit for bit.
func TestSampleCodecCaptureRoundTrip(t *testing.T) {
	c := &Capture{SampleRate: 25e6, Start: -0.5, Samples: codecCorpus()}
	var files [][]byte
	withPortable(t, func(t *testing.T) {
		var buf bytes.Buffer
		n, err := c.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) || n != 32+SampleSize*int64(len(c.Samples)) {
			t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
		}
		files = append(files, bytes.Clone(buf.Bytes()))
		got, err := ReadCapture(&buf)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "ReadCapture", got.Samples, c.Samples)
	})
	if len(files) != 2 || !bytes.Equal(files[0], files[1]) {
		t.Fatal("host and portable WriteTo produced different containers")
	}
}

// TestBlockReaderTruncatedEveryOffset cuts a small container at every
// byte offset: the header fails to parse or a bulk Read returns an
// error wrapping io.ErrUnexpectedEOF together with every whole sample
// received, bit for bit.
func TestBlockReaderTruncatedEveryOffset(t *testing.T) {
	c := &Capture{SampleRate: 1e6}
	for i, re := range edgeFloats {
		im := edgeFloats[(i+5)%len(edgeFloats)]
		c.Samples = append(c.Samples, complex(math.Float64frombits(re), math.Float64frombits(im)))
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const header = 32
	withPortable(t, func(t *testing.T) {
		for cut := 0; cut < len(data); cut++ {
			br, err := NewBlockReader(bytes.NewReader(data[:cut]))
			if cut < header {
				if err == nil {
					t.Fatalf("cut %d: truncated header accepted", cut)
				}
				continue
			}
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			dst := make([]complex128, len(c.Samples))
			n, err := br.Read(dst)
			br.Close()
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d: err %v, want io.ErrUnexpectedEOF", cut, err)
			}
			if want := (cut - header) / SampleSize; n != want {
				t.Fatalf("cut %d: read %d samples, want %d", cut, n, want)
			}
			requireSameBits(t, "truncated read", dst[:n], c.Samples[:n])
		}
	})
}

// TestBlockReaderTruncatedAcrossChunks truncates a container longer
// than the portable path's staging block around the block seam: a bulk
// Read still returns every whole sample received, on both paths.
func TestBlockReaderTruncatedAcrossChunks(t *testing.T) {
	corpus := codecCorpus()
	c := &Capture{SampleRate: 1e6, Samples: make([]complex128, 2*ioChunkSamples+3)}
	for i := range c.Samples {
		c.Samples[i] = corpus[i%len(corpus)]
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const header = 32
	withPortable(t, func(t *testing.T) {
		for _, whole := range []int{0, 1, ioChunkSamples - 1, ioChunkSamples, ioChunkSamples + 1, 2 * ioChunkSamples} {
			for _, extra := range []int{0, 8, 15} {
				br, err := NewBlockReader(bytes.NewReader(data[:header+SampleSize*whole+extra]))
				if err != nil {
					t.Fatal(err)
				}
				dst := make([]complex128, len(c.Samples))
				n, err := br.Read(dst)
				br.Close()
				if !errors.Is(err, io.ErrUnexpectedEOF) || n != whole {
					t.Fatalf("cut at %d samples + %d bytes: read %d, err %v", whole, extra, n, err)
				}
				requireSameBits(t, "truncated read", dst[:n], c.Samples[:n])
			}
		}
	})
}
