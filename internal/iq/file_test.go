package iq

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"lf/internal/pool"
)

func TestCaptureRoundTrip(t *testing.T) {
	c := &Capture{
		SampleRate: 25e6,
		Start:      1.5,
		Samples:    []complex128{1 + 2i, -3.5 + 0.25i, 0.001 - 9i},
	}
	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SampleRate != c.SampleRate || got.Start != c.Start {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Samples) != len(c.Samples) {
		t.Fatalf("sample count %d", len(got.Samples))
	}
	for i := range c.Samples {
		if got.Samples[i] != c.Samples[i] {
			t.Fatalf("sample %d: %v != %v", i, got.Samples[i], c.Samples[i])
		}
	}
}

func TestCaptureRoundTripProperty(t *testing.T) {
	f := func(rate float64, res, ims []float64) bool {
		if rate <= 0 || rate > 1e12 || len(res) == 0 {
			return true
		}
		n := len(res)
		if len(ims) < n {
			n = len(ims)
		}
		if n == 0 || n > 500 {
			return true
		}
		c := &Capture{SampleRate: rate, Samples: make([]complex128, n)}
		for i := 0; i < n; i++ {
			if isBad(res[i]) || isBad(ims[i]) {
				return true
			}
			c.Samples[i] = complex(res[i], ims[i])
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			return true // invalid capture (e.g. NaN); Validate rejected it
		}
		got, err := ReadCapture(&buf)
		if err != nil {
			return false
		}
		for i := range c.Samples {
			if got.Samples[i] != c.Samples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func isBad(x float64) bool { return x != x || x > 1e300 || x < -1e300 }

func TestReadCaptureRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE....................."),
		"truncated": append([]byte("LFIQ"), 1, 0, 0, 0),
	}
	for name, data := range cases {
		if _, err := ReadCapture(bytes.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestReadCaptureRejectsHugeCount(t *testing.T) {
	var buf bytes.Buffer
	c := &Capture{SampleRate: 1, Samples: []complex128{1}}
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the count field (offset: 4 magic + 4 version + 8 rate + 8 start).
	for i := 24; i < 32; i++ {
		data[i] = 0xFF
	}
	if _, err := ReadCapture(bytes.NewReader(data)); err == nil {
		t.Fatal("absurd count accepted")
	}
}

// TestReadCaptureTrustsCountOnlyAsPayloadArrives declares the largest
// accepted count over a two-sample payload: ReadCapture must fail on
// the short payload without first allocating the declared 16 GiB.
func TestReadCaptureTrustsCountOnlyAsPayloadArrives(t *testing.T) {
	var buf bytes.Buffer
	c := &Capture{SampleRate: 1, Samples: []complex128{1, 2}}
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data[24:], maxReasonableSamples)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadCapture(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short payload: err %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*SampleSize*maxUpfrontSamples {
		t.Fatalf("allocated %d bytes for a %d-byte container", grew, len(data))
	}
}

// TestReadCaptureGrowsPastUpfrontBound round-trips a capture longer
// than ReadCapture's up-front allocation.
func TestReadCaptureGrowsPastUpfrontBound(t *testing.T) {
	c := &Capture{SampleRate: 25e6, Samples: make([]complex128, 2*maxUpfrontSamples+5)}
	for i := range c.Samples {
		c.Samples[i] = complex(float64(i), -float64(i))
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(c.Samples) {
		t.Fatalf("read %d samples, want %d", len(got.Samples), len(c.Samples))
	}
	for i := range c.Samples {
		if got.Samples[i] != c.Samples[i] {
			t.Fatalf("sample %d: %v != %v", i, got.Samples[i], c.Samples[i])
		}
	}
}

func TestWriteToRejectsInvalid(t *testing.T) {
	c := &Capture{} // empty
	if _, err := c.WriteTo(&strings.Builder{}); err == nil {
		t.Fatal("invalid capture serialized")
	}
}

func TestBlockReaderMatchesReadCapture(t *testing.T) {
	c := &Capture{SampleRate: 25e6, Start: 0.25, Samples: make([]complex128, 10000)}
	for i := range c.Samples {
		c.Samples[i] = complex(float64(i), -float64(i)/3)
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	br, err := NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	if br.SampleRate() != c.SampleRate || br.Start() != c.Start || br.Len() != int64(len(c.Samples)) {
		t.Fatalf("header mismatch: rate=%v start=%v len=%d", br.SampleRate(), br.Start(), br.Len())
	}
	// Read in awkward block sizes straddling the internal chunking.
	var got []complex128
	block := make([]complex128, 777)
	for {
		n, err := br.Read(block)
		got = append(got, block[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if br.Remaining() != 0 {
		t.Fatalf("remaining %d after EOF", br.Remaining())
	}
	if len(got) != len(c.Samples) {
		t.Fatalf("read %d samples, want %d", len(got), len(c.Samples))
	}
	for i := range got {
		if got[i] != c.Samples[i] {
			t.Fatalf("sample %d: %v != %v", i, got[i], c.Samples[i])
		}
	}
}

func TestBlockReaderTruncatedPayload(t *testing.T) {
	c := &Capture{SampleRate: 1, Samples: make([]complex128, 64)}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-24] // drop 1.5 samples
	br, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	dst := make([]complex128, 64)
	n, err := br.Read(dst)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: err %v, want io.ErrUnexpectedEOF", err)
	}
	// A bulk read delivers every whole sample that arrived: 62 of 64.
	if n != 62 {
		t.Fatalf("truncated payload delivered %d samples, want 62", n)
	}
}

func TestBlockReaderReadBlock(t *testing.T) {
	c := &Capture{SampleRate: 25e6, Samples: make([]complex128, 5000)}
	for i := range c.Samples {
		c.Samples[i] = complex(float64(i), float64(i)/7)
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	br, err := NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	var got []complex128
	for {
		blk, err := br.ReadBlock(999)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, blk...)
		pool.PutComplex(blk)
	}
	if len(got) != len(c.Samples) {
		t.Fatalf("read %d samples, want %d", len(got), len(c.Samples))
	}
	for i := range got {
		if got[i] != c.Samples[i] {
			t.Fatalf("sample %d: %v != %v", i, got[i], c.Samples[i])
		}
	}
}
