package gate

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"lf/internal/fault"
	"lf/internal/iq"
	"lf/internal/pool"
	"lf/internal/wire"
)

// ErrFlushed reports that the gateway finalized the session before the
// reader declared end of capture — the reader was gone longer than the
// gateway's FlushAfter grace, so the capture was flushed with only the
// samples that had arrived. Frames committed up to that point were
// published (nothing is silently lost); the tail of the capture was
// never decoded.
var ErrFlushed = errors.New("gate: session flushed by gateway before end of capture")

// ClientConfig tunes one reader-side ingest client.
type ClientConfig struct {
	// Addr is the gateway address.
	Addr string
	// Name identifies the reader (sessions aggregate stats by name).
	Name string
	// Nonce identifies the capture within the reader. 0 draws a
	// process-unique value. Reusing a (Name, Nonce) pair against the
	// same gateway resumes that capture's session — which is exactly
	// what the client's reconnect path does on purpose.
	Nonce uint64
	// SampleRate is carried in the hello and overrides the gateway's
	// decoder template rate for this session when > 0.
	SampleRate float64

	// ChunkSamples is the wire chunk size; pushes of any block size are
	// re-chunked to this (decodes are bit-identical at any chunking —
	// the push block-size invariance the streaming tests pin). Default
	// 8192.
	ChunkSamples int
	// AckTimeout bounds the wait for each ack/welcome/done frame; a
	// gateway silent that long is presumed unreachable and the client
	// reconnects. It must exceed the gateway's MaxThrottle or
	// backpressure throttling is misread as death. Default 30s.
	AckTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential reconnect backoff
	// (full jitter, as in internal/dist). Defaults 10ms / 1s.
	BackoffMin, BackoffMax time.Duration
	// MaxAttempts bounds consecutive failed connection attempts before
	// the client gives up (a completed exchange resets the count).
	// 0 selects 64.
	MaxAttempts int
	// Seed drives the jitter draws; 0 seeds from the reader name.
	Seed int64

	// Dial overrides the transport (tests inject pipes or faulty
	// conns). Default: net.Dialer over TCP to Addr.
	Dial func(ctx context.Context) (net.Conn, error)
	// Transport, when active, impairs the client's side of each
	// connection with the seeded wire injectors — the connection
	// attempt index salts the hash, so retries fail independently.
	Transport fault.TransportConfig
	// Logf, when non-nil, receives reconnect/resume logs.
	Logf func(string, ...any)
}

var clientNonce uint64 // process-unique nonce sequence

func init() {
	clientNonce = uint64(time.Now().UnixNano())<<16 ^ uint64(os.Getpid())
}

// Client streams one capture into a gateway session. Not safe for
// concurrent use; one goroutine owns the capture's sample order.
//
// The transport contract: every connection failure — drop, stall,
// corrupt frame, lost ack — is absorbed by reconnecting and resuming
// from the gateway's acked high-water mark, so the sample sequence the
// gateway decodes is exactly the sequence pushed, and the decode is
// byte-identical to a local one. The only errors Push/End surface are
// fatal: a decode failure on the gateway, a protocol version mismatch,
// an early flush (ErrFlushed), or attempts exhausted.
type Client struct {
	ctx     context.Context
	cfg     ClientConfig
	conn    net.Conn
	attempt uint64 // connection attempts; salts the transport injectors
	fails   int    // consecutive failed attempts
	rng     uint64

	// The unacknowledged samples [acked, …) are pending followed by
	// block. pending lives in the client-owned storage buf; block is
	// the rest of the caller's block, borrowed only while Push runs.
	acked   int64
	pending []complex128
	block   []complex128
	buf     []complex128
	frame   []byte // chunk frame storage, reused for every chunk
	done    bool
	frames  uint32
	fatal   error
}

// DialClient opens (or resumes) a gateway session.
func DialClient(ctx context.Context, cfg ClientConfig) (*Client, error) {
	if cfg.Name == "" {
		return nil, errors.New("gate: client needs a reader name")
	}
	if cfg.ChunkSamples <= 0 {
		cfg.ChunkSamples = 8192
	}
	if cfg.ChunkSamples > maxChunkSamples {
		cfg.ChunkSamples = maxChunkSamples
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 30 * time.Second
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 10 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 64
	}
	if cfg.Nonce == 0 {
		cfg.Nonce = atomic.AddUint64(&clientNonce, 1)
	}
	if cfg.Seed == 0 {
		for _, b := range []byte(cfg.Name) {
			cfg.Seed = cfg.Seed*131 + int64(b)
		}
		cfg.Seed ^= int64(cfg.Nonce)
	}
	if cfg.Dial == nil {
		d := &net.Dialer{}
		addr := cfg.Addr
		cfg.Dial = func(ctx context.Context) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Client{ctx: ctx, cfg: cfg, rng: uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 1}
	if err := c.reconnect(); err != nil {
		return nil, err
	}
	return c, nil
}

func splitmix64c(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// reconnect dials until a session is (re-)established, with full-jitter
// exponential backoff between attempts, then re-synchronizes the send
// position from the welcome's high-water mark.
func (c *Client) reconnect() error {
	c.dropConn()
	ceiling := c.cfg.BackoffMin
	for {
		if err := c.ctx.Err(); err != nil {
			c.fatal = err
			return err
		}
		if c.fails >= c.cfg.MaxAttempts {
			c.fatal = fmt.Errorf("gate: reader %q: %d consecutive connection attempts failed", c.cfg.Name, c.fails)
			return c.fatal
		}
		if c.attempt > 0 {
			// Full jitter: sleep a uniform draw of the current ceiling.
			sleep := time.Duration(splitmix64c(&c.rng) % uint64(ceiling))
			select {
			case <-c.ctx.Done():
				c.fatal = c.ctx.Err()
				return c.fatal
			case <-time.After(sleep):
			}
			if ceiling *= 2; ceiling > c.cfg.BackoffMax {
				ceiling = c.cfg.BackoffMax
			}
		}
		c.attempt++
		c.fails++
		if err := c.handshake(); err != nil {
			if c.fatal != nil {
				return c.fatal
			}
			c.cfg.Logf("gate: reader %q: connect attempt %d: %v", c.cfg.Name, c.attempt, err)
			continue
		}
		c.fails = 0
		return nil
	}
}

// handshake performs one dial + hello/welcome exchange and
// re-synchronizes the unacknowledged samples against the gateway's
// resume offset.
func (c *Client) handshake() error {
	conn, err := c.cfg.Dial(c.ctx)
	if err != nil {
		return err
	}
	conn = c.cfg.Transport.Wrap(conn, c.attempt)
	hello := &wireHello{Version: protoVersion, Name: c.cfg.Name, Nonce: c.cfg.Nonce, Rate: c.cfg.SampleRate}
	if err := writeMsg(conn, msgHello, hello); err != nil {
		conn.Close()
		return err
	}
	conn.SetReadDeadline(time.Now().Add(c.cfg.AckTimeout))
	typ, payload, err := proto.ReadFrame(conn, nil)
	if err != nil {
		conn.Close()
		return err
	}
	switch typ {
	case msgErr:
		conn.Close()
		em, derr := decodeErrMsg(payload)
		if derr != nil {
			return derr
		}
		c.fatal = errors.New(em.Msg)
		return c.fatal
	case msgWelcome:
	default:
		conn.Close()
		return wireErrf("expected welcome, got type %d", typ)
	}
	w, err := decodeWelcome(payload)
	if err != nil {
		conn.Close()
		return err
	}
	if w.Version != protoVersion {
		conn.Close()
		c.fatal = fmt.Errorf("gate: gateway speaks version %d, want %d", w.Version, protoVersion)
		return c.fatal
	}
	switch w.State {
	case stateFailed:
		conn.Close()
		c.fatal = fmt.Errorf("gate: reader %q: %s", c.cfg.Name, w.Msg)
		return c.fatal
	case stateDone:
		conn.Close()
		c.done = true
		c.frames = w.Frames
		return nil
	}
	// Resume: the gateway holds w.Have samples; drop the acknowledged
	// prefix and resend only the tail.
	adv := w.Have - c.acked
	switch {
	case adv == 0:
	case adv > 0 && adv <= int64(c.unacked()):
		c.cfg.Logf("gate: reader %q: resumed at %d (+%d acked while away)", c.cfg.Name, w.Have, adv)
		c.advance(int(adv))
	case adv > 0 && c.unacked() == 0 && c.acked == 0:
		// A fresh client adopting an in-progress session (the reader
		// process restarted): start at the gateway's high-water mark.
		// The caller checks Acked() and supplies samples from there.
		c.cfg.Logf("gate: reader %q: adopting session at %d", c.cfg.Name, w.Have)
		c.acked = w.Have
	default:
		conn.Close()
		return wireErrf("welcome resume offset %d outside [%d, %d]", w.Have, c.acked, c.acked+int64(c.unacked()))
	}
	c.conn = conn
	return nil
}

// Push feeds one block of IQ samples, re-chunking to ChunkSamples and
// flow-controlled by the gateway's acks (stop-and-wait: the ack for a
// chunk arrives only after the gateway has pushed it into the decoder
// and cleared the admission gate, so gateway backpressure blocks right
// here).
//
// Push borrows block for the length of the call and keeps no reference
// to it: full chunks are framed straight from block, and only what is
// still unacknowledged when Push returns — a sub-chunk tail, or the
// rest after an error — is copied into the client's own buffer.
func (c *Client) Push(block []complex128) error {
	if c.fatal != nil {
		return c.fatal
	}
	if c.done {
		return ErrFlushed
	}
	c.block = block
	defer c.keepBlock()
	for c.unacked() >= c.cfg.ChunkSamples {
		if err := c.sendChunk(c.cfg.ChunkSamples); err != nil {
			return err
		}
	}
	return nil
}

// unacked counts the samples pushed but not yet acknowledged.
func (c *Client) unacked() int { return len(c.pending) + len(c.block) }

// advance drops the first n unacknowledged samples, which the gateway
// has acknowledged.
func (c *Client) advance(n int) {
	k := min(n, len(c.pending))
	c.pending = c.pending[k:]
	c.block = c.block[n-k:]
	c.acked += int64(n)
}

// keepBlock ends a Push's borrow of the caller's block: its
// unacknowledged rest is appended to pending, moving pending to the
// front of buf only when there is no room after it. A buf too small
// is swapped for one from internal/pool of at least a chunk, or twice
// its size, which the client returns when its tail is drained.
func (c *Client) keepBlock() {
	rest := c.block
	c.block = nil
	if cap(c.pending)-len(c.pending) < len(rest) {
		if need := len(c.pending) + len(rest); cap(c.buf) < need {
			buf := pool.ComplexUninit(max(need, c.cfg.ChunkSamples, 2*cap(c.buf)))
			c.pending = append(buf[:0], c.pending...)
			pool.PutComplex(c.buf)
			c.buf = buf
		} else {
			c.pending = append(c.buf[:0], c.pending...)
		}
	}
	c.pending = append(c.pending, rest...)
}

// releaseTail returns the tail storage to internal/pool, dropping
// whatever is still pending.
func (c *Client) releaseTail() {
	pool.PutComplex(c.buf)
	c.buf, c.pending = nil, nil
}

// chunkFrame assembles the frame of the chunk at base whose samples
// are head then tail in buf's storage, ready for proto.WriteFrame. A
// buf too small for the frame goes back to internal/pool for one that
// fits, which the client returns when it has no chunk left to send.
func chunkFrame(buf []byte, base int64, head, tail []complex128) []byte {
	if size := wire.Overhead + chunkHeaderLen + iq.SampleSize*(len(head)+len(tail)); cap(buf) < size {
		pool.PutBytes(buf)
		buf = pool.BytesUninit(size)
	}
	return appendChunk(proto.Begin(buf, msgChunk), base, head, tail)
}

// releaseFrame returns the chunk frame storage to internal/pool.
func (c *Client) releaseFrame() {
	pool.PutBytes(c.frame)
	c.frame = nil
}

// sendChunk ships up to n pending samples and waits for the ack,
// reconnecting and resuming on any transport failure.
func (c *Client) sendChunk(n int) error {
	for {
		if c.fatal != nil {
			return c.fatal
		}
		if c.done {
			return ErrFlushed
		}
		if n > c.unacked() {
			n = c.unacked()
		}
		if n == 0 {
			return nil
		}
		if c.conn == nil {
			if err := c.reconnect(); err != nil {
				return err
			}
			continue // done/pending may have changed
		}
		head := c.pending[:min(n, len(c.pending))]
		frame := chunkFrame(c.frame, c.acked, head, c.block[:n-len(head)])
		var err error
		if c.frame, err = proto.WriteFrame(c.conn, frame); err != nil {
			c.cfg.Logf("gate: reader %q: send: %v", c.cfg.Name, err)
			c.dropConn()
			continue
		}
		c.conn.SetReadDeadline(time.Now().Add(c.cfg.AckTimeout))
		typ, payload, err := proto.ReadFrame(c.conn, nil)
		if err != nil {
			c.cfg.Logf("gate: reader %q: await ack: %v", c.cfg.Name, err)
			c.dropConn()
			continue
		}
		switch typ {
		case msgAck:
			a, err := decodeAck(payload)
			if err != nil {
				c.dropConn()
				continue
			}
			adv := a.Have - c.acked
			if adv < 0 || adv > int64(c.unacked()) {
				c.dropConn()
				continue
			}
			c.advance(int(adv))
			return nil
		case msgErr:
			em, derr := decodeErrMsg(payload)
			if derr != nil {
				c.dropConn()
				continue
			}
			c.fatal = fmt.Errorf("gate: reader %q: %s", c.cfg.Name, em.Msg)
			c.dropConn()
			return c.fatal
		default:
			c.dropConn()
			continue
		}
	}
}

// End declares end of capture, waits for the gateway's flush, and
// returns the number of frames published for this capture.
func (c *Client) End() (int, error) {
	if c.fatal != nil {
		return 0, c.fatal
	}
	// Drain the sub-chunk tail first.
	for len(c.pending) > 0 {
		if c.done {
			return int(c.frames), ErrFlushed
		}
		if err := c.sendChunk(c.cfg.ChunkSamples); err != nil {
			return int(c.frames), err
		}
	}
	c.releaseFrame()
	c.releaseTail()
	for {
		if c.fatal != nil {
			return int(c.frames), c.fatal
		}
		if c.done {
			// Flushed while we were away. With nothing pending the
			// gateway saw the whole capture, so this is a clean finish.
			return int(c.frames), nil
		}
		if c.conn == nil {
			if err := c.reconnect(); err != nil {
				return int(c.frames), err
			}
			continue
		}
		if err := writeMsg(c.conn, msgEnd, &wireEnd{Total: c.acked}); err != nil {
			c.dropConn()
			continue
		}
		c.conn.SetReadDeadline(time.Now().Add(c.cfg.AckTimeout))
		typ, payload, err := proto.ReadFrame(c.conn, nil)
		if err != nil {
			c.dropConn()
			continue
		}
		switch typ {
		case msgDone:
			d, derr := decodeDone(payload)
			if derr != nil {
				c.dropConn()
				continue
			}
			c.done = true
			c.frames = d.Frames
			c.dropConn()
			return int(c.frames), nil
		case msgErr:
			em, derr := decodeErrMsg(payload)
			if derr != nil {
				c.dropConn()
				continue
			}
			c.fatal = fmt.Errorf("gate: reader %q: %s", c.cfg.Name, em.Msg)
			c.dropConn()
			return int(c.frames), c.fatal
		default:
			c.dropConn()
			continue
		}
	}
}

// Acked reports how many samples the gateway has acknowledged —
// everything below this is decoded-or-buffered gateway-side and
// survives any disconnect.
func (c *Client) Acked() int64 { return c.acked }

// Close drops the connection without ending the capture; the session
// stays resumable gateway-side until FlushAfter elapses, then is
// flushed best-effort. It returns the client's buffers to
// internal/pool, so Push and End fail afterwards.
func (c *Client) Close() error {
	c.dropConn()
	c.releaseFrame()
	c.releaseTail()
	if c.fatal == nil {
		c.fatal = errClientClosed
	}
	return nil
}

var errClientClosed = errors.New("gate: client closed")
