package fault

// Transport-level impairment: seeded fault injection for the TCP
// protocols (internal/dist, internal/gate). Where the capture-level
// injectors corrupt IQ samples before the decoder sees them, the
// transport injectors corrupt the *wire* between coordinator and
// workers — dropped connections, stalls, short writes, flipped bytes —
// so the dist layer's retry/re-queue/hedge machinery can be driven
// through a deterministic failure matrix. The decoded bits must come
// out identical at any severity: transport faults are recoverable by
// construction (the CRC-guarded framing detects corruption, leases
// detect stalls, and every failure path re-queues the shard), so the
// acceptance test is bit-identity, not degraded output.
//
// Determinism is positional, like the sample injectors: every decision
// is a pure function of (Seed, connection ID, operation index, kind),
// hashed through splitmix64 — never of wall clock or goroutine
// scheduling. Two runs that issue the same operation sequence on the
// same connection IDs experience byte-identical impairment.

import (
	"math"
	"net"
	"sync/atomic"
	"time"
)

const (
	// ConnDrop severs the connection mid-operation — a worker crash or
	// network partition. The peer sees io.EOF / ECONNRESET.
	ConnDrop Kind = "conndrop"
	// Stall delays an operation by up to ~60ms·severity — a GC pause,
	// a congested link, a wedged worker. Long enough to trip lease
	// deadlines and hedging at test-scale timeouts.
	Stall Kind = "stall"
	// PartialWrite delivers only a prefix of a write and then severs
	// the connection — a crash mid-frame. The peer sees a truncated
	// frame (length/CRC check fails or short read).
	PartialWrite Kind = "partialwrite"
	// CorruptFrame flips one byte of a write — line noise or a flaky
	// NIC. The framing CRC must catch it.
	CorruptFrame Kind = "corruptframe"
)

// TransportKinds lists the impairments that operate on connections.
func TransportKinds() []Kind {
	return []Kind{ConnDrop, Stall, PartialWrite, CorruptFrame}
}

// IsTransportLevel reports whether a kind impairs the wire rather than
// samples or emissions.
func IsTransportLevel(k Kind) bool {
	for _, t := range TransportKinds() {
		if k == t {
			return true
		}
	}
	return false
}

// TransportConfig is a seeded wire-impairment mix. The zero value
// injects nothing.
type TransportConfig struct {
	// Seed drives every decision; the same seed, connection IDs, and
	// operation sequence produce identical impairment.
	Seed int64
	// Injectors compose; non-transport kinds are ignored, so a mixed
	// spec can be passed through unfiltered.
	Injectors []Injector
}

// active reports whether any transport-level injector has severity > 0.
func (c TransportConfig) active() bool {
	for _, inj := range c.Injectors {
		if IsTransportLevel(inj.Kind) && inj.Severity > 0 {
			return true
		}
	}
	return false
}

// Wrap impairs a connection. connID must be unique per connection (the
// dist coordinator uses its accept counter; the worker its attempt
// counter) — it salts the positional hash so parallel connections fail
// independently. A config with no active transport injectors returns
// conn unchanged.
func (c TransportConfig) Wrap(conn net.Conn, connID uint64) net.Conn {
	if !c.active() {
		return conn
	}
	fc := &faultyConn{Conn: conn, seed: uint64(c.Seed), connID: connID}
	for _, inj := range c.Injectors {
		if !IsTransportLevel(inj.Kind) || inj.Severity <= 0 {
			continue
		}
		sev := math.Min(inj.Severity, 1)
		switch inj.Kind {
		case ConnDrop:
			fc.pDrop += 0.03 * sev
		case Stall:
			fc.pStall += 0.2 * sev
			if d := time.Duration(sev * 60 * float64(time.Millisecond)); d > fc.maxStall {
				fc.maxStall = d
			}
		case PartialWrite:
			fc.pPartial += 0.05 * sev
		case CorruptFrame:
			fc.pCorrupt += 0.08 * sev
		}
	}
	return fc
}

// faultyConn wraps a net.Conn with positional-hash fault decisions.
// Each Read/Write consumes one operation index; the draws for that
// operation are independent uniforms per fault family (distinct salts),
// so families compose the way independent failure processes do.
type faultyConn struct {
	net.Conn
	seed   uint64
	connID uint64
	op     atomic.Uint64

	pDrop, pStall, pPartial, pCorrupt float64
	maxStall                          time.Duration
	dropped                           atomic.Bool
}

// draw returns a uniform in [0, 1) for (seed, connID, op, salt).
func (f *faultyConn) draw(op uint64, salt uint64) float64 {
	h := splitmix64(f.seed ^ f.connID*0xD6E8FEB86659FD93 ^ op*0x9E3779B97F4A7C15 ^ salt)
	return float64(h>>11) / (1 << 53)
}

const (
	saltDrop    = 0x1111111111111111
	saltStall   = 0x2222222222222222
	saltPartial = 0x3333333333333333
	saltCorrupt = 0x4444444444444444
	saltPos     = 0x5555555555555555
)

// sever closes the underlying connection so the peer observes the
// failure too, and latches so every later op fails fast.
func (f *faultyConn) sever() error {
	f.dropped.Store(true)
	f.Conn.Close()
	return net.ErrClosed
}

func (f *faultyConn) stall(op uint64) {
	if f.pStall > 0 && f.draw(op, saltStall) < f.pStall {
		frac := f.draw(op, saltStall^saltPos)
		time.Sleep(time.Duration(float64(f.maxStall) * (0.25 + 0.75*frac)))
	}
}

func (f *faultyConn) Read(p []byte) (int, error) {
	if f.dropped.Load() {
		return 0, net.ErrClosed
	}
	op := f.op.Add(1)
	f.stall(op)
	if f.pDrop > 0 && f.draw(op, saltDrop) < f.pDrop {
		return 0, f.sever()
	}
	return f.Conn.Read(p)
}

func (f *faultyConn) Write(p []byte) (int, error) {
	if f.dropped.Load() {
		return 0, net.ErrClosed
	}
	op := f.op.Add(1)
	f.stall(op)
	if f.pDrop > 0 && f.draw(op, saltDrop) < f.pDrop {
		return 0, f.sever()
	}
	if f.pPartial > 0 && len(p) > 1 && f.draw(op, saltPartial) < f.pPartial {
		// Deliver a strict prefix, then sever: the peer sees a frame cut
		// mid-payload, exactly the crash-mid-send shape.
		keep := 1 + int(f.draw(op, saltPartial^saltPos)*float64(len(p)-1))
		n, err := f.Conn.Write(p[:keep])
		if err != nil {
			f.dropped.Store(true)
			return n, err
		}
		return n, f.sever()
	}
	if f.pCorrupt > 0 && len(p) > 0 && f.draw(op, saltCorrupt) < f.pCorrupt {
		// Flip one hashed bit of one hashed byte. Copy first: p may be a
		// caller-retained buffer that will be resent after the retry.
		cp := make([]byte, len(p))
		copy(cp, p)
		h := splitmix64(f.seed ^ f.connID ^ op*0xBF58476D1CE4E5B9 ^ saltCorrupt)
		cp[int(h%uint64(len(cp)))] ^= 1 << ((h >> 32) % 8)
		return f.Conn.Write(cp)
	}
	return f.Conn.Write(p)
}
