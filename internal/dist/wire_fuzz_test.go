package dist

import (
	"bytes"
	"testing"

	"lf/internal/edgedetect"
	"lf/internal/wire"
)

// FuzzWireFrame throws arbitrary bytes at the frame reader and, when
// they parse, at the message codecs. The invariants: no panic, no
// huge allocation (maxFramePayload bound), and every frame the writer
// produces round-trips through the reader byte-exactly — including
// after the fuzzer mutates seed corpora into near-valid frames where
// only the CRC distinguishes them.
func FuzzWireFrame(f *testing.F) {
	// Seed with valid frames of every message type, plus a version-1
	// peer's hello and a job in the version-1 layout, which carried
	// guard, sparse flag and threshold after Win.
	hello := &wireHello{Version: protoVersion, Name: "fuzz"}
	job := &wireJob{ID: 1, Lo: 100, Hi: 200, IntLo: 200, IntHi: 300,
		Base: 0, Gap: 4, Win: 8,
		Re: []float64{1, 2}, Im: []float64{3, 4}}
	res := &wireResult{ID: 1, Mag: []float64{1, 2, 3}}
	se := &wireShardErr{ID: 1, Stage: "edgedetect", Pos: 5, Msg: "x"}
	var v1Job wire.Enc
	for _, x := range []int64{1, 100, 200, 200, 300, 0, 4, 8, 6} {
		v1Job.I64(x)
	}
	v1Job.U8(0)
	v1Job.F64(0.5)
	v1Job.Floats([]float64{1, 2})
	v1Job.Floats([]float64{3, 4})
	for _, m := range []struct {
		typ byte
		p   []byte
	}{
		{msgHello, hello.encode()},
		{msgPull, nil},
		{msgJob, job.encode()},
		{msgResult, res.encode()},
		{msgShardErr, se.encode()},
		{msgHello, (&wireHello{Version: protoVersion - 1, Name: "v1"}).encode()},
		{msgJob, v1Job.B},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, m.typ, m.p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{wireMagic0, wireMagic1, msgJob, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A frame that passed magic + CRC must re-encode to the same
		// bytes it was read from (the reader consumed exactly one frame).
		var buf bytes.Buffer
		if werr := writeFrame(&buf, typ, payload); werr != nil {
			t.Fatalf("reread failed: %v", werr)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatal("frame did not round-trip byte-exactly")
		}
		// Message codecs must never panic on CRC-valid payloads; errors
		// are fine (that is the quarantine path).
		switch typ {
		case msgHello:
			decodeHello(payload)
		case msgJob:
			if j, err := decodeJob(payload); err == nil && j.Hi-j.Lo <= 1<<16 {
				// A decodable job must be safely computable: the window
				// coverage check guarantees in-bounds kernel reads. (The
				// size cap only bounds fuzz-exec allocation.)
				computeJob(j, (*edgedetect.StripeJob).Run)
			}
		case msgResult:
			decodeResult(payload)
		case msgShardErr:
			decodeShardErr(payload)
		}
	})
}
