package gate

import (
	"bytes"
	"testing"
)

// FuzzGateFrame throws arbitrary bytes at the gateway frame reader
// and, when they parse, at the message codecs. The invariants: no
// panic, no out-of-bounds read, no huge allocation (maxFramePayload
// bounds the frame, and decodeChunk validates the sample count against
// the actual payload length before taking a sample buffer), and every
// frame the writer produces round-trips through the reader
// byte-exactly — including after the fuzzer mutates seed corpora into
// near-valid frames where only the CRC distinguishes them.
//
// Chunks go through the gateway's recycled-buffer path: one frame body
// and one sample buffer are carried from input to input, growing only
// when an input needs more, so a decode that read stale bytes or
// samples left by a larger earlier input would fail the round trip.
func FuzzGateFrame(f *testing.F) {
	// Seed with valid frames of every message type.
	hello := &wireHello{Version: protoVersion, Name: "fuzz", Nonce: 7, Rate: 2.4e6}
	welcome := &wireWelcome{Version: protoVersion, Have: 8192, State: stateActive, Frames: 3}
	failed := &wireWelcome{Version: protoVersion, State: stateFailed, Msg: "decode failed"}
	ack := &wireAck{Have: 8192}
	end := &wireEnd{Total: 16384}
	done := &wireDone{Frames: 12}
	em := &wireErrMsg{Msg: "gate: boom"}
	for _, m := range []struct {
		typ byte
		m   message
	}{
		{msgHello, hello},
		{msgWelcome, welcome},
		{msgWelcome, failed},
		{msgAck, ack},
		{msgEnd, end},
		{msgDone, done},
		{msgErr, em},
	} {
		var buf bytes.Buffer
		if err := writeMsg(&buf, m.typ, m.m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Chunks as the reader frames them, one of them empty, and a
	// CRC-valid chunk whose sample count overstates its payload, which
	// must be rejected before it takes a sample buffer.
	three := []complex128{1 + 2i, 3 - 4i, complex(0.5, -0.25)}
	lying := chunkFrame(nil, 4096, three, nil)
	lying[7+8]++ // the count's low byte, after the header and Base
	for _, frame := range [][]byte{
		chunkFrame(nil, 4096, three[:1], three[1:]),
		chunkFrame(nil, 1, nil, nil),
		lying,
	} {
		var buf bytes.Buffer
		if _, err := proto.WriteFrame(&buf, frame); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// An oversized length prefix must be rejected before any allocation.
	f.Add([]byte{gateMagic0, gateMagic1, msgChunk, 0xff, 0xff, 0xff, 0x7f})

	var (
		body    []byte
		samples []complex128
		taken   int
	)
	getBody := func(n int) []byte {
		if cap(body) < n {
			body = make([]byte, n)
		}
		return body[:n]
	}
	getSamples := func(n int) []complex128 {
		taken++
		if cap(samples) < n {
			samples = make([]complex128, n)
		}
		return samples[:n]
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := proto.ReadFrame(bytes.NewReader(data), getBody)
		if err != nil {
			return
		}
		// A frame that passed magic + CRC must re-encode to the same
		// bytes it was read from (the reader consumed exactly one frame).
		var buf bytes.Buffer
		if _, werr := proto.WriteFrame(&buf, append(proto.Begin(nil, typ), payload...)); werr != nil {
			t.Fatalf("reread failed: %v", werr)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatal("frame did not round-trip byte-exactly")
		}
		// Message codecs must never panic on CRC-valid payloads; errors
		// are fine (that is the drop-connection path).
		switch typ {
		case msgHello:
			decodeHello(payload)
		case msgWelcome:
			decodeWelcome(payload)
		case msgChunk:
			before := taken
			c, err := decodeChunk(payload, getSamples)
			if err != nil {
				if taken != before {
					t.Fatal("a rejected chunk took a sample buffer")
				}
				return
			}
			// A decodable chunk's samples are fully backed by payload
			// bytes; re-encoding must reproduce them, and so must the
			// reader's one-pass frame builder at any head/tail split.
			if !bytes.Equal(appendChunk(nil, c.Base, c.Samples, nil), payload) {
				t.Fatal("chunk did not round-trip")
			}
			k := len(c.Samples) / 2
			var frame bytes.Buffer
			if _, err := proto.WriteFrame(&frame, chunkFrame(nil, c.Base, c.Samples[:k], c.Samples[k:])); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame.Bytes(), data[:frame.Len()]) {
				t.Fatal("chunk frame builder did not reproduce the frame")
			}
		case msgAck:
			decodeAck(payload)
		case msgEnd:
			decodeEnd(payload)
		case msgDone:
			decodeDone(payload)
		case msgErr:
			decodeErrMsg(payload)
		}
	})
}
