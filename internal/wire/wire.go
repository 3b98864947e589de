// Package wire is the length-prefixed, CRC-guarded framing shared by
// the repo's TCP protocols: the remote stripe protocol
// (internal/dist) and the reader-gateway ingest protocol
// (internal/gate). Both speak the same frame shape —
//
//	magic(2) | type(1) | payloadLen(4, LE) | payload | crc32(4, LE)
//
// — differing only in their magic bytes, payload cap, and message
// codecs. The CRC (IEEE) covers type, length, and payload, so a
// flipped bit anywhere in the frame — header or body — is detected
// before any field is trusted. Payload integers are little-endian;
// float64s travel as IEEE-754 bit patterns (math.Float64bits), so
// shipped samples, prefix sums, and magnitudes are bit-exact across
// hosts.
//
// Framing violations (bad magic, CRC mismatch, oversized payload,
// trailing bytes) surface as *wire.Error so protocol layers can treat
// them like a dead connection — recoverable by reconnect/retry, never
// fatal — while transport failures (io.EOF, timeouts) pass through
// verbatim.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Proto pins one protocol's framing parameters: the magic pair that
// distinguishes its frames on the wire, the payload cap that keeps a
// corrupt length field from allocating gigabytes, and the name used in
// error messages.
type Proto struct {
	// Name prefixes framing errors ("dist", "gate").
	Name string
	// Magic0, Magic1 open every frame.
	Magic0, Magic1 byte
	// MaxPayload bounds a frame's declared payload length.
	MaxPayload int
}

const (
	headerLen  = 2 + 1 + 4
	trailerLen = 4
)

// Error is any framing-level failure: bad magic, CRC mismatch,
// oversized payload, truncated or trailing payload bytes.
type Error struct {
	proto string
	msg   string
}

func (e *Error) Error() string { return e.proto + ": wire: " + e.msg }

// Errf builds a framing error tagged with the protocol's name.
func (p Proto) Errf(format string, args ...any) error {
	return &Error{proto: p.Name, msg: fmt.Sprintf(format, args...)}
}

// WriteFrame sends one frame. The payload is borrowed, not retained.
func (p Proto) WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > p.MaxPayload {
		return p.Errf("payload %d exceeds max %d", len(payload), p.MaxPayload)
	}
	buf := make([]byte, headerLen+len(payload)+trailerLen)
	buf[0], buf[1], buf[2] = p.Magic0, p.Magic1, typ
	binary.LittleEndian.PutUint32(buf[3:], uint32(len(payload)))
	copy(buf[headerLen:], payload)
	crc := crc32.ChecksumIEEE(buf[2 : headerLen+len(payload)])
	binary.LittleEndian.PutUint32(buf[headerLen+len(payload):], crc)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads and verifies one frame, returning its type and
// payload. Errors distinguish transport failures (returned verbatim,
// e.g. io.EOF, timeouts) from framing violations (*wire.Error).
func (p Proto) ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != p.Magic0 || hdr[1] != p.Magic1 {
		return 0, nil, p.Errf("bad magic %02x%02x", hdr[0], hdr[1])
	}
	n := binary.LittleEndian.Uint32(hdr[3:])
	if int64(n) > int64(p.MaxPayload) {
		return 0, nil, p.Errf("payload length %d exceeds max %d", n, p.MaxPayload)
	}
	body := make([]byte, int(n)+trailerLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	crc := crc32.ChecksumIEEE(hdr[2:])
	crc = crc32.Update(crc, crc32.IEEETable, body[:n])
	if got := binary.LittleEndian.Uint32(body[n:]); got != crc {
		return 0, nil, p.Errf("crc mismatch on type %d frame", hdr[2])
	}
	return hdr[2], body[:n:n], nil
}

// Enc is a little append-based payload encoder.
type Enc struct{ B []byte }

func (e *Enc) U8(v byte)     { e.B = append(e.B, v) }
func (e *Enc) U32(v uint32)  { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64)  { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) I64(v int64)   { e.U64(uint64(v)) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}
func (e *Enc) Floats(v []float64) {
	e.U32(uint32(len(v)))
	for _, f := range v {
		e.F64(f)
	}
}

// Dec is the matching consuming decoder; every getter fails softly by
// latching the error, so codecs can decode a whole struct and check
// once with Done.
type Dec struct {
	B   []byte
	err error
}

// NewDec wraps a payload for decoding.
func NewDec(b []byte) Dec { return Dec{B: b} }

// Err returns the latched decode failure, if any.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = &Error{proto: "wire", msg: "truncated payload"}
	}
}

func (d *Dec) U8() byte {
	if d.err != nil || len(d.B) < 1 {
		d.fail()
		return 0
	}
	v := d.B[0]
	d.B = d.B[1:]
	return v
}

func (d *Dec) U32() uint32 {
	if d.err != nil || len(d.B) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.B)
	d.B = d.B[4:]
	return v
}

func (d *Dec) U64() uint64 {
	if d.err != nil || len(d.B) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.B)
	d.B = d.B[8:]
	return v
}

func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

func (d *Dec) Str() string {
	n := d.U32()
	if d.err != nil || uint32(len(d.B)) < n {
		d.fail()
		return ""
	}
	s := string(d.B[:n])
	d.B = d.B[n:]
	return s
}

func (d *Dec) Floats() []float64 {
	n := d.U32()
	if d.err != nil || uint64(len(d.B)) < uint64(n)*8 {
		d.fail()
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// Done reports the latched error, or complains about trailing payload
// bytes — a codec must consume its frame exactly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.B) != 0 {
		return &Error{proto: "wire", msg: fmt.Sprintf("%d trailing payload bytes", len(d.B))}
	}
	return nil
}
