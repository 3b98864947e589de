// Package gate is the fleet-scale reader gateway: a long-running
// service that accepts LFIQ sample streams from many concurrent
// readers over TCP, feeds each reader's samples into its own streaming
// decode (lf.Decoder.NewStream), multiplexes all sessions onto a
// shared bounded worker fleet, paces each reader by acking a chunk
// only once it is decoded, and publishes decoded frames to pluggable
// sinks as they commit.
//
// The robustness model mirrors internal/dist: every transport failure
// is recoverable. The ingest protocol is resumable — a session is
// keyed by (reader name, capture nonce), the gateway acks cumulative
// sample offsets, and a reconnecting reader learns the gateway's
// high-water mark from the welcome frame and resends only the tail —
// so dropped connections, corrupt frames, and stalls never change the
// decoded bits (gate_equivalence_test.go pins byte-identity against
// local decodes across the fault matrix). A reader that disconnects
// and never returns gets a best-effort Flush after Config.FlushAfter,
// so frames already committed are published, not lost.
package gate

import (
	"io"

	"lf/internal/iq"
	"lf/internal/wire"
)

// Wire format: the shared framing from internal/wire —
//
//	magic(2) | type(1) | payloadLen(4, LE) | payload | crc32(4, LE)
//
// — under the 'L','G' magic so a gateway frame can never be mistaken
// for a dist frame. Samples travel as IEEE-754 bit patterns
// (re, im float64 pairs), so pushed blocks are bit-exact across hosts
// and gateway decodes can be byte-compared against local ones.
const (
	gateMagic0 = 0x4C // 'L'
	gateMagic1 = 0x47 // 'G'

	// protoVersion gates the handshake: the gateway refuses readers
	// speaking a different framing or chunk layout.
	protoVersion = 1

	// maxChunkSamples bounds one chunk's declared sample count so a
	// corrupted-but-CRC-lucky count can never drive a giant allocation.
	// Honest clients chunk at ClientConfig.ChunkSamples (default 8192),
	// far below this.
	maxChunkSamples = 1 << 20

	// maxFramePayload bounds a frame's declared payload length; a full
	// maxChunkSamples chunk (16 bytes per sample + base + count) fits.
	maxFramePayload = 17 << 20
)

// proto is this protocol's framing instance (dist's sibling).
var proto = wire.Proto{Name: "gate", Magic0: gateMagic0, Magic1: gateMagic1, MaxPayload: maxFramePayload}

// Message types.
const (
	msgHello   = 1 // reader → gateway: version, name, capture nonce, sample rate
	msgWelcome = 2 // gateway → reader: version, resume offset, session state
	msgChunk   = 3 // reader → gateway: base offset + contiguous samples
	msgAck     = 4 // gateway → reader: cumulative samples ingested
	msgEnd     = 5 // reader → gateway: total sample count, request flush
	msgDone    = 6 // gateway → reader: capture flushed, frame count
	msgErr     = 7 // gateway → reader: fatal session failure (decode error)
)

// Session states carried in the welcome frame.
const (
	stateActive = 0 // session accepting samples; resume from Have
	stateDone   = 1 // session flushed; Frames is final
	stateFailed = 2 // decode failed; Msg carries the error
)

// wireErrf builds a framing-level failure (*wire.Error). The gateway
// treats it like a dead connection — drop the conn, keep the session;
// the reader reconnects and resumes. It is never fatal to a capture.
func wireErrf(format string, args ...any) error {
	return proto.Errf(format, args...)
}

// message is a payload codec's encoding side: appendTo appends the
// message's payload to b.
type message interface{ appendTo(b []byte) []byte }

// writeMsg sends m as one frame of type typ, assembled in place in a
// fresh buffer. Control frames are small; chunk frames are built in
// the client's reused buffer by chunkFrame instead.
func writeMsg(w io.Writer, typ byte, m message) error {
	_, err := proto.WriteFrame(w, m.appendTo(proto.Begin(nil, typ)))
	return err
}

// wireHello opens (or resumes) a session. Nonce distinguishes captures
// from the same reader: hello with a nonce the gateway has seen
// resumes that capture's session; a fresh nonce starts a new stream.
type wireHello struct {
	Version uint32
	Name    string
	Nonce   uint64
	Rate    float64
}

func (h *wireHello) appendTo(b []byte) []byte {
	e := wire.Enc{B: b}
	e.U32(h.Version)
	e.Str(h.Name)
	e.U64(h.Nonce)
	e.F64(h.Rate)
	return e.B
}

func decodeHello(p []byte) (*wireHello, error) {
	d := wire.NewDec(p)
	h := &wireHello{Version: d.U32(), Name: d.Str(), Nonce: d.U64(), Rate: d.F64()}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if h.Name == "" || len(h.Name) > 256 {
		return nil, wireErrf("hello: bad reader name length %d", len(h.Name))
	}
	return h, nil
}

// wireWelcome answers a hello: Have is the gateway's cumulative ingest
// high-water mark for the session (the resume point — a reconnecting
// reader resends from here), State is one of stateActive/Done/Failed,
// Frames is the published frame count (final when State == stateDone),
// and Msg carries the decode error when State == stateFailed.
type wireWelcome struct {
	Version uint32
	Have    int64
	State   byte
	Frames  uint32
	Msg     string
}

func (w *wireWelcome) appendTo(b []byte) []byte {
	e := wire.Enc{B: b}
	e.U32(w.Version)
	e.I64(w.Have)
	e.U8(w.State)
	e.U32(w.Frames)
	e.Str(w.Msg)
	return e.B
}

func decodeWelcome(p []byte) (*wireWelcome, error) {
	d := wire.NewDec(p)
	w := &wireWelcome{Version: d.U32(), Have: d.I64(), State: d.U8(), Frames: d.U32(), Msg: d.Str()}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if w.Have < 0 {
		return nil, wireErrf("welcome: negative resume offset %d", w.Have)
	}
	return w, nil
}

// wireChunk carries one contiguous run of samples. Base is the
// absolute offset of Samples[0] in the capture; the session contract
// is strictly in-order, so Base must equal the session's current
// high-water mark (the welcome frame told the reader where that is).
// The samples are encoded as an LFIQ payload (iq.AppendSamples,
// iq.GetSamples). Each side moves a chunk's samples once: the reader
// encodes them from the pushed block into its reused frame buffer
// (appendChunk), and the gateway decodes them from a pooled frame body
// into pooled samples (decodeChunk) — one memory copy each on
// little-endian hosts.
type wireChunk struct {
	Base    int64
	Samples []complex128
}

// chunkHeaderLen is a chunk payload's size before its samples: Base
// and the sample count.
const chunkHeaderLen = 8 + 4

// appendChunk appends the payload of a chunk at base whose samples are
// head followed by tail, so a chunk that straddles two slices is
// encoded in one pass without joining them first.
func appendChunk(b []byte, base int64, head, tail []complex128) []byte {
	e := wire.Enc{B: b}
	e.I64(base)
	e.U32(uint32(len(head) + len(tail)))
	return iq.AppendSamples(iq.AppendSamples(e.B, head), tail)
}

// decodeChunk decodes a chunk payload into samples from get(count) —
// the gateway passes pool.ComplexUninit and hands the samples back
// with pool.PutComplex once the decoder has copied them. The declared
// count is checked against the payload before get is called, so a
// corrupt count can neither read out of bounds nor take (or allocate)
// a buffer.
func decodeChunk(p []byte, get func(n int) []complex128) (wireChunk, error) {
	d := wire.NewDec(p)
	base := d.I64()
	n := d.U32()
	if err := d.Err(); err != nil {
		return wireChunk{}, err
	}
	if base < 0 {
		return wireChunk{}, wireErrf("chunk: negative base %d", base)
	}
	if n > maxChunkSamples {
		return wireChunk{}, wireErrf("chunk: %d samples exceeds max %d", n, maxChunkSamples)
	}
	if uint64(len(d.B)) != uint64(n)*iq.SampleSize {
		return wireChunk{}, wireErrf("chunk: %d samples but %d payload bytes", n, len(d.B))
	}
	c := wireChunk{Base: base, Samples: get(int(n))}
	iq.GetSamples(c.Samples, d.B)
	return c, nil
}

// wireAck acknowledges ingest: Have samples are decoded-or-buffered
// gateway-side and will never be asked for again.
type wireAck struct{ Have int64 }

func (a *wireAck) appendTo(b []byte) []byte {
	e := wire.Enc{B: b}
	e.I64(a.Have)
	return e.B
}

func decodeAck(p []byte) (*wireAck, error) {
	d := wire.NewDec(p)
	a := &wireAck{Have: d.I64()}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if a.Have < 0 {
		return nil, wireErrf("ack: negative offset %d", a.Have)
	}
	return a, nil
}

// wireEnd declares end of capture at Total samples and requests the
// final flush.
type wireEnd struct{ Total int64 }

func (a *wireEnd) appendTo(b []byte) []byte {
	e := wire.Enc{B: b}
	e.I64(a.Total)
	return e.B
}

func decodeEnd(p []byte) (*wireEnd, error) {
	d := wire.NewDec(p)
	a := &wireEnd{Total: d.I64()}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if a.Total < 0 {
		return nil, wireErrf("end: negative total %d", a.Total)
	}
	return a, nil
}

// wireDone confirms the flush: Frames frames were published for the
// capture.
type wireDone struct{ Frames uint32 }

func (a *wireDone) appendTo(b []byte) []byte {
	e := wire.Enc{B: b}
	e.U32(a.Frames)
	return e.B
}

func decodeDone(p []byte) (*wireDone, error) {
	d := wire.NewDec(p)
	a := &wireDone{Frames: d.U32()}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return a, nil
}

// wireErrMsg reports a fatal session failure (a typed decode error —
// the one thing reconnecting cannot fix).
type wireErrMsg struct{ Msg string }

func (a *wireErrMsg) appendTo(b []byte) []byte {
	e := wire.Enc{B: b}
	e.Str(a.Msg)
	return e.B
}

func decodeErrMsg(p []byte) (*wireErrMsg, error) {
	d := wire.NewDec(p)
	a := &wireErrMsg{Msg: d.Str()}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return a, nil
}
