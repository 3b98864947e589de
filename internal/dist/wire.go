// Package dist computes differential-sweep stripes
// (edgedetect.StripeJob) on remote machines: a coordinator serves a
// stripe queue over a length-prefixed, CRC-guarded TCP protocol, and
// workers dial in, pull stripe assignments, compute them with
// StripeJob.Run, and stream the magnitudes back into the job's Dst.
// Where a stripe is computed never changes its bytes.
//
// Nothing in the decoder calls RunStripe (DecoderConfig.StripeRunner
// is a deprecated no-op); the package remains only for the
// benchmark's dist.loopback_rt row and goes together with it.
//
// The robustness model: every transport failure is recoverable.
// Dropped connections, lease expiries, corrupt or truncated frames,
// and stragglers all degrade to a re-queue (served by another worker,
// a hedge, or the coordinator's own CPU when the fleet drains), so a
// faulted remote stripe returns the same bits as local compute. The
// only failure that surfaces to the caller is a poisoned stripe — a
// worker reporting a typed decode error — which RunStripe returns as
// an lf.DecodeError for that one stripe.
package dist

import (
	"io"

	"lf/internal/wire"
)

// Wire format: the shared framing from internal/wire under the 'L','F'
// magic. Payload integers are little-endian; float64s travel as
// IEEE-754 bit patterns, so shipped prefix sums and returned
// magnitudes are bit-exact across hosts.
const (
	wireMagic0 = 0x4C // 'L'
	wireMagic1 = 0x46 // 'F'

	// protoVersion gates the handshake: a coordinator refuses workers
	// speaking a different framing or job layout. Version 2 dropped the
	// sparse-sweep fields (guard, sparse flag, threshold) from the job.
	protoVersion = 2

	// maxFramePayload bounds a frame's declared payload so a corrupt
	// length field cannot make the reader allocate gigabytes. Stripe
	// jobs ship ≤ ~stripe+2·margin float64 pairs — far below this.
	maxFramePayload = 64 << 20
)

// proto is this protocol's framing instance; gate's differs only in
// magic and payload cap (internal/gate/wire.go).
var proto = wire.Proto{Name: "dist", Magic0: wireMagic0, Magic1: wireMagic1, MaxPayload: maxFramePayload}

// Message types.
const (
	msgHello    = 1 // worker → coordinator: protoVersion, worker name
	msgWelcome  = 2 // coordinator → worker: protoVersion
	msgPull     = 3 // worker → coordinator: request one job
	msgJob      = 4 // coordinator → worker: one stripe job
	msgResult   = 5 // worker → coordinator: computed magnitudes
	msgShardErr = 6 // worker → coordinator: typed per-shard failure
)

// wireErrf builds a framing-level failure (*wire.Error): bad magic,
// CRC mismatch, oversized payload, truncated frame. The coordinator
// treats it like a dead connection (re-queue and drop the conn); it is
// never fatal.
func wireErrf(format string, args ...any) error {
	return proto.Errf(format, args...)
}

// writeFrame sends one frame. The payload is borrowed, not retained.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	return proto.WriteFrame(w, typ, payload)
}

// readFrame reads and verifies one frame, returning its type and
// payload. Errors distinguish transport failures (returned verbatim,
// e.g. io.EOF, timeouts) from framing violations (*wire.Error).
func readFrame(r io.Reader) (byte, []byte, error) {
	return proto.ReadFrame(r)
}

// wireJob is the on-wire form of one stripe assignment: the job
// geometry plus the minimal prefix-sum window the dense kernel reads,
// re-based so Re[0]/Im[0] sit at absolute position Base. The result is
// a pure function of the shipped window.
type wireJob struct {
	ID           uint64
	Lo, Hi       int64
	IntLo, IntHi int64
	Base         int64
	Gap, Win     int64
	Re, Im       []float64
}

func (j *wireJob) encode() []byte {
	var e wire.Enc
	e.U64(j.ID)
	e.I64(j.Lo)
	e.I64(j.Hi)
	e.I64(j.IntLo)
	e.I64(j.IntHi)
	e.I64(j.Base)
	e.I64(j.Gap)
	e.I64(j.Win)
	e.Floats(j.Re)
	e.Floats(j.Im)
	return e.B
}

func decodeJob(p []byte) (*wireJob, error) {
	d := wire.NewDec(p)
	j := &wireJob{
		ID: d.U64(), Lo: d.I64(), Hi: d.I64(),
		IntLo: d.I64(), IntHi: d.I64(), Base: d.I64(),
		Gap: d.I64(), Win: d.I64(),
		Re: d.Floats(),
	}
	j.Im = d.Floats()
	if err := d.Done(); err != nil {
		return nil, err
	}
	if j.Hi < j.Lo || j.Hi-j.Lo > maxFramePayload/8 {
		return nil, wireErrf("job %d: bad range [%d, %d)", j.ID, j.Lo, j.Hi)
	}
	if len(j.Re) != len(j.Im) {
		return nil, wireErrf("job %d: re/im length mismatch %d != %d", j.ID, len(j.Re), len(j.Im))
	}
	if j.Gap < 0 || j.Win <= 0 {
		return nil, wireErrf("job %d: bad geometry gap=%d win=%d", j.ID, j.Gap, j.Win)
	}
	// The kernel reads local indices [ilo−margin−Base, ihi+margin−Base);
	// refuse a job whose shipped window cannot cover its own reads, so a
	// corrupted-but-CRC-lucky frame can never index out of bounds.
	if ilo, ihi := max(j.Lo, j.IntLo), min(j.Hi, j.IntHi); ilo < ihi {
		margin := j.Gap + j.Win
		if ilo-margin < j.Base || ihi+margin-j.Base > int64(len(j.Re)) {
			return nil, wireErrf("job %d: window [%d, %d) does not cover reads", j.ID, j.Base, j.Base+int64(len(j.Re)))
		}
	}
	return j, nil
}

// wireResult carries one computed stripe back: the owned magnitudes.
type wireResult struct {
	ID  uint64
	Mag []float64
}

func (r *wireResult) encode() []byte {
	var e wire.Enc
	e.U64(r.ID)
	e.Floats(r.Mag)
	return e.B
}

func decodeResult(p []byte) (*wireResult, error) {
	d := wire.NewDec(p)
	r := &wireResult{ID: d.U64(), Mag: d.Floats()}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return r, nil
}

// wireShardErr reports a poisoned shard: the worker's compute panicked
// or failed in a way retrying will not fix. Stage/Pos mirror
// decoder.DecodeError so the coordinator can rebuild the typed error.
type wireShardErr struct {
	ID    uint64
	Stage string
	Pos   int64
	Msg   string
}

func (s *wireShardErr) encode() []byte {
	var e wire.Enc
	e.U64(s.ID)
	e.Str(s.Stage)
	e.I64(s.Pos)
	e.Str(s.Msg)
	return e.B
}

func decodeShardErr(p []byte) (*wireShardErr, error) {
	d := wire.NewDec(p)
	s := &wireShardErr{ID: d.U64(), Stage: d.Str(), Pos: d.I64(), Msg: d.Str()}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// wireHello is the worker's handshake.
type wireHello struct {
	Version uint32
	Name    string
}

func (h *wireHello) encode() []byte {
	var e wire.Enc
	e.U32(h.Version)
	e.Str(h.Name)
	return e.B
}

func decodeHello(p []byte) (*wireHello, error) {
	d := wire.NewDec(p)
	h := &wireHello{Version: d.U32(), Name: d.Str()}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return h, nil
}
