package gate

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"lf"
	"lf/internal/fault"
	"lf/internal/obs"
	"lf/internal/pool"
)

// Config tunes the gateway.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for tests).
	Addr string

	// Decoder is the per-session decoder template: every reader session
	// gets its own lf.Decoder built from a copy of it (OnFrame is
	// overwritten with the gateway's publisher; SampleRate is taken
	// from the session hello when the hello carries one). Set
	// CalibSamples for bounded-memory streaming and note that enabled
	// SIC (CancellationRounds ≥ 0) retains O(capture) memory per
	// session (gate.retained_peak shows the high-water mark).
	Decoder lf.DecoderConfig

	// Workers bounds the shared decode fleet: at most this many
	// sessions advance a Push or Flush at once, however many readers
	// are connected. 0 selects GOMAXPROCS.
	Workers int

	// FlushAfter is the disconnect grace period: a session whose reader
	// has been gone this long is flushed best-effort, publishing every
	// frame already committed, and marked done (a late-returning reader
	// learns this from its welcome). 0 selects 3s.
	FlushAfter time.Duration
	// SessionTTL is how long a finished session's record (resume state,
	// frame count) is kept for late-returning readers before it is
	// pruned. 0 selects 10×FlushAfter.
	SessionTTL time.Duration
	// IdleTimeout bounds the wait for the next frame on a reader
	// connection; a reader silent this long is presumed dead and its
	// connection dropped (the session then rides the FlushAfter path).
	// 0 selects 30s.
	IdleTimeout time.Duration

	// Sinks receive every published frame, in commit order. The gateway
	// serializes Publish calls and calls Close exactly once on
	// shutdown. A sink error is counted and logged, never propagated to
	// the reader.
	Sinks []Sink

	// Transport, when active, impairs every accepted connection with
	// the seeded wire injectors (tests).
	Transport fault.TransportConfig
	// Logf, when non-nil, receives gateway lifecycle logs.
	Logf func(string, ...any)
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.FlushAfter <= 0 {
		cfg.FlushAfter = 3 * time.Second
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 10 * cfg.FlushAfter
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// errStolen aborts a connection's work when a reconnecting reader has
// taken its session over; the stale connection just dies quietly.
var errStolen = errors.New("gate: session taken over by reconnect")

// session is one capture's ingest state, keyed by (reader, nonce). It
// outlives the connections that serve it: a disconnect detaches the
// session, a resume re-attaches it, and only FlushAfter of sustained
// absence (or an explicit End) finishes it.
type session struct {
	key   string
	name  string
	nonce uint64

	// mu serializes decode progress (Push/Flush) and guards the fields
	// below. Lock order everywhere: fleet slot → session.mu → sinkMu.
	mu         sync.Mutex
	conn       net.Conn // owning connection; nil while detached
	have       int64    // samples ingested (the resume point)
	frames     uint32   // frames published so far
	done       bool     // flushed (or failed); have/frames are final
	failed     error    // latched decode error, nil unless stateFailed
	detachedAt time.Time
	doneAt     time.Time

	dec *lf.Decoder
	sd  *lf.StreamDecoder
}

func (s *session) state() (byte, string) {
	switch {
	case s.failed != nil:
		return stateFailed, s.failed.Error()
	case s.done:
		return stateDone, ""
	default:
		return stateActive, ""
	}
}

// Gateway is the reader-facing ingest service.
type Gateway struct {
	cfg   Config
	ln    net.Listener
	reg   *obs.Registry // gate.* runtime metrics, apart from decode stats
	m     obs.GateMetrics
	slots chan struct{} // shared decode fleet: one token per worker

	mu        sync.Mutex
	sessions  map[string]*session
	conns     map[net.Conn]struct{}
	connected int
	connSeq   uint64
	readerAgg map[string]*obs.Snapshot // per reader name, folded at flush
	closed    bool

	closedCh  chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error

	sinkMu sync.Mutex
}

// NewGateway starts a gateway listening for reader connections.
func NewGateway(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("gate: listen: %w", err)
	}
	reg := obs.NewRegistry()
	g := &Gateway{
		cfg:       cfg,
		ln:        ln,
		reg:       reg,
		m:         obs.NewGateMetrics(reg),
		slots:     make(chan struct{}, cfg.Workers),
		sessions:  make(map[string]*session),
		conns:     make(map[net.Conn]struct{}),
		readerAgg: make(map[string]*obs.Snapshot),
		closedCh:  make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		g.slots <- struct{}{}
	}
	g.wg.Add(2)
	go g.acceptLoop()
	go g.reaper()
	return g, nil
}

// Addr reports the gateway's listen address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// Stats snapshots the gateway-level gate.* metrics.
func (g *Gateway) Stats() *obs.Snapshot { return g.reg.Snapshot() }

// ReaderStats returns the accumulated decode-class stats per reader
// name, folded from every session flushed so far. The decode-class
// identity of each reader's entry matches a local decode of the same
// captures (gateway transport never influences a decoded bit).
func (g *Gateway) ReaderStats() map[string]*obs.Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]*obs.Snapshot, len(g.readerAgg))
	for name, agg := range g.readerAgg {
		s := obs.NewSnapshot()
		s.Add(agg)
		out[name] = s
	}
	return out
}

func (g *Gateway) acceptLoop() {
	defer g.wg.Done()
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			select {
			case <-g.closedCh:
			default:
				g.cfg.Logf("gate: accept: %v", err)
			}
			return
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			return
		}
		g.connSeq++
		id := g.connSeq
		wrapped := g.cfg.Transport.Wrap(&countingConn{Conn: conn, n: g.m.Bytes}, id)
		g.conns[wrapped] = struct{}{}
		g.connected++
		g.m.Connected.Max(int64(g.connected))
		g.wg.Add(1)
		g.mu.Unlock()
		go g.serve(wrapped)
	}
}

// countingConn totals bytes both directions into an obs counter — the
// innermost wrapper, so it counts what the fault injectors let
// through.
type countingConn struct {
	net.Conn
	n *obs.Counter
}

func (cc *countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.n.Add(int64(n))
	return n, err
}

func (cc *countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.n.Add(int64(n))
	return n, err
}

func (g *Gateway) serve(conn net.Conn) {
	defer g.wg.Done()
	defer func() {
		conn.Close()
		g.mu.Lock()
		delete(g.conns, conn)
		g.connected--
		g.mu.Unlock()
	}()

	conn.SetReadDeadline(time.Now().Add(g.cfg.IdleTimeout))
	typ, payload, err := proto.ReadFrame(conn, nil)
	if err != nil || typ != msgHello {
		return
	}
	hello, err := decodeHello(payload)
	if err != nil {
		return
	}
	if hello.Version != protoVersion {
		e := &wireErrMsg{Msg: fmt.Sprintf("gate: protocol version %d, want %d", hello.Version, protoVersion)}
		writeMsg(conn, msgErr, e)
		return
	}
	s, welcome, err := g.attach(hello, conn)
	if err != nil {
		writeMsg(conn, msgErr, &wireErrMsg{Msg: err.Error()})
		return
	}
	defer g.detach(s, conn)
	if err := writeMsg(conn, msgWelcome, welcome); err != nil {
		return
	}
	g.cfg.Logf("gate: reader %q capture %x attached from %s (resume at %d)", s.name, s.nonce, conn.RemoteAddr(), welcome.Have)

	for {
		// Frame bodies and chunk samples come from internal/pool after a
		// frame's header has arrived and go back as soon as they are
		// consumed, so an idle connection holds neither.
		conn.SetReadDeadline(time.Now().Add(g.cfg.IdleTimeout))
		typ, payload, err := proto.ReadFrame(conn, pool.BytesUninit)
		if err != nil {
			pool.PutBytes(payload)
			return
		}
		switch typ {
		case msgChunk:
			c, err := decodeChunk(payload, pool.ComplexUninit)
			pool.PutBytes(payload)
			if err != nil {
				g.cfg.Logf("gate: reader %q: %v", s.name, err)
				return
			}
			have, err := g.pushChunk(s, conn, c)
			pool.PutComplex(c.Samples)
			if err != nil {
				if s.isFailed() {
					writeMsg(conn, msgErr, &wireErrMsg{Msg: err.Error()})
				}
				return
			}
			if err := writeMsg(conn, msgAck, &wireAck{Have: have}); err != nil {
				return
			}
		case msgEnd:
			end, err := decodeEnd(payload)
			pool.PutBytes(payload)
			if err != nil {
				return
			}
			frames, err := g.endSession(s, conn, end.Total)
			if err != nil {
				if s.isFailed() {
					writeMsg(conn, msgErr, &wireErrMsg{Msg: err.Error()})
				}
				return
			}
			if err := writeMsg(conn, msgDone, &wireDone{Frames: frames}); err != nil {
				return
			}
		default:
			pool.PutBytes(payload)
			g.cfg.Logf("gate: reader %q sent unexpected frame type %d", s.name, typ)
			return
		}
	}
}

func (s *session) isFailed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed != nil
}

// attach finds or creates the session for a hello and makes conn its
// owner, severing any previous owner. It returns the welcome carrying
// the resume offset — read under the session lock, so any in-flight
// push from the previous connection has settled first.
func (g *Gateway) attach(h *wireHello, conn net.Conn) (*session, *wireWelcome, error) {
	key := fmt.Sprintf("%s/%016x", h.Name, h.Nonce)
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, nil, errors.New("gate: gateway closed")
	}
	s, ok := g.sessions[key]
	if !ok {
		dcfg := g.cfg.Decoder
		if h.Rate > 0 {
			dcfg.SampleRate = h.Rate
		}
		s = &session{key: key, name: h.Name, nonce: h.Nonce}
		dcfg.OnFrame = func(sr *lf.StreamResult) {
			// Runs on the pushing goroutine inside Push/Flush, under
			// session.mu — frames index and publish in commit order.
			f := FrameOf(s.name, s.nonce, int(s.frames), sr)
			s.frames++
			g.publish(f)
		}
		dec, err := lf.NewDecoder(dcfg)
		if err != nil {
			g.mu.Unlock()
			return nil, nil, fmt.Errorf("gate: reader %q: %w", h.Name, err)
		}
		sd, err := dec.NewStream()
		if err != nil {
			g.mu.Unlock()
			return nil, nil, fmt.Errorf("gate: reader %q: %w", h.Name, err)
		}
		s.dec, s.sd = dec, sd
		g.sessions[key] = s
		g.m.Readers.Inc()
	}
	g.mu.Unlock()

	s.mu.Lock()
	old := s.conn
	s.conn = conn
	st, msg := s.state()
	w := &wireWelcome{Version: protoVersion, Have: s.have, State: st, Frames: s.frames, Msg: msg}
	s.mu.Unlock()
	if old != nil && old != conn {
		// The previous connection is presumed dead (the reader moved
		// on); sever it so its serve loop exits instead of idling.
		old.Close()
	}
	return s, w, nil
}

func (g *Gateway) detach(s *session, conn net.Conn) {
	s.mu.Lock()
	if s.conn == conn {
		s.conn = nil
		s.detachedAt = time.Now()
	}
	s.mu.Unlock()
}

// pushChunk feeds the chunk into the session's decoder under a fleet
// slot and returns the new cumulative high-water mark. The reader is
// paced by the ack, which serve sends only after this returns, and by
// the slots, which bound how many sessions decode at once.
func (g *Gateway) pushChunk(s *session, conn net.Conn, c wireChunk) (int64, error) {
	// Fleet slot, then the session lock (global lock order).
	select {
	case <-g.slots:
	case <-g.closedCh:
		return 0, errors.New("gate: gateway closed")
	}
	defer func() { g.slots <- struct{}{} }()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != conn {
		return 0, errStolen
	}
	if s.done {
		if s.failed != nil {
			return 0, s.failed
		}
		return 0, fmt.Errorf("gate: reader %q capture %x: already flushed", s.name, s.nonce)
	}
	g.m.RetainedPeak.Max(s.sd.RetainedBytes())
	samples := c.Samples
	switch {
	case c.Base == s.have:
	case c.Base+int64(len(samples)) <= s.have:
		// Pure duplicate of already-ingested samples (an ack was lost);
		// re-ack the high-water mark.
		return s.have, nil
	case c.Base < s.have:
		// Partial overlap: push only the unseen tail.
		samples = samples[s.have-c.Base:]
	default:
		return 0, wireErrf("chunk base %d ahead of session offset %d", c.Base, s.have)
	}
	if len(samples) > 0 {
		if err := s.sd.Push(samples); err != nil {
			g.finishLocked(s, err)
			return 0, err
		}
		s.have += int64(len(samples))
	}
	return s.have, nil
}

// endSession validates the declared total and flushes. Duplicate Ends
// (a reader retrying after a lost done frame) return the cached count.
func (g *Gateway) endSession(s *session, conn net.Conn, total int64) (uint32, error) {
	s.mu.Lock()
	if !s.done && total != s.have {
		have := s.have
		s.mu.Unlock()
		// The reader believes a different sample count was ingested
		// than the gateway holds — drop the connection; the resume
		// handshake re-synchronizes and the reader completes the tail.
		return 0, wireErrf("end total %d != ingested %d", total, have)
	}
	s.mu.Unlock()
	return g.flushSession(s, conn)
}

// flushSession drains the session's decoder, publishing every frame
// still in flight, and finalizes the session. conn non-nil demands
// ownership (reader-requested flush); conn nil demands detachment
// (reaper/Close best-effort flush). Idempotent. During Close every
// serve loop has exited, so every session is detached and closedCh
// stands in for the slot.
func (g *Gateway) flushSession(s *session, conn net.Conn) (uint32, error) {
	took := false
	select {
	case <-g.slots:
		took = true
	case <-g.closedCh:
		// Shutdown: Close drains sessions after every serve loop has
		// exited, so flushing without a slot is safe.
	}
	defer func() {
		if took {
			g.slots <- struct{}{}
		}
	}()

	s.mu.Lock()
	defer s.mu.Unlock()
	if conn != nil && s.conn != conn {
		return 0, errStolen
	}
	if conn == nil && s.conn != nil {
		// The reader resumed between the reaper's scan and now; its
		// connection owns the session again, nothing to do.
		return s.frames, nil
	}
	if s.done {
		return s.frames, s.failed
	}
	_, err := s.sd.Flush()
	g.finishLocked(s, err)
	g.cfg.Logf("gate: reader %q capture %x flushed: %d samples, %d frames", s.name, s.nonce, s.have, s.frames)
	return s.frames, s.failed
}

// finishLocked marks the session done, latching err (nil on a clean
// flush), and folds its decode stats into the per-reader aggregate.
// Caller holds s.mu.
func (g *Gateway) finishLocked(s *session, err error) {
	s.failed = err
	s.done = true
	s.doneAt = time.Now()
	st := s.dec.Stats()
	g.mu.Lock()
	agg, ok := g.readerAgg[s.name]
	if !ok {
		agg = obs.NewSnapshot()
		g.readerAgg[s.name] = agg
	}
	agg.Add(st)
	g.mu.Unlock()
}

func (g *Gateway) publish(f *Frame) {
	g.sinkMu.Lock()
	defer g.sinkMu.Unlock()
	for _, sink := range g.cfg.Sinks {
		if err := sink.Publish(f); err != nil {
			g.m.SinkErrors.Inc()
			g.cfg.Logf("gate: sink %T: %v", sink, err)
		}
	}
	g.m.Frames.Inc()
}

// reaper walks detached sessions: past FlushAfter they are flushed
// best-effort (committed frames are published, never lost), and past
// SessionTTL finished records are pruned.
func (g *Gateway) reaper() {
	defer g.wg.Done()
	tick := g.cfg.FlushAfter / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-g.closedCh:
			return
		case <-t.C:
		}
		g.mu.Lock()
		snapshot := make([]*session, 0, len(g.sessions))
		for _, s := range g.sessions {
			snapshot = append(snapshot, s)
		}
		g.mu.Unlock()
		for _, s := range snapshot {
			s.mu.Lock()
			flush := s.conn == nil && !s.done && !s.detachedAt.IsZero() && time.Since(s.detachedAt) > g.cfg.FlushAfter
			prune := s.done && time.Since(s.doneAt) > g.cfg.SessionTTL
			s.mu.Unlock()
			if flush {
				if _, err := g.flushSession(s, nil); err != nil && err != errStolen {
					g.cfg.Logf("gate: reader %q capture %x: flush after disconnect: %v", s.name, s.nonce, err)
				}
			}
			if prune {
				g.mu.Lock()
				delete(g.sessions, s.key)
				g.mu.Unlock()
			}
		}
	}
}

// Close stops accepting, severs every reader connection, flushes every
// unfinished session best-effort (committed frames are published), and
// closes the sinks. Idempotent; concurrent calls share one shutdown.
func (g *Gateway) Close() error {
	g.closeOnce.Do(func() {
		g.mu.Lock()
		g.closed = true
		close(g.closedCh)
		g.ln.Close()
		for conn := range g.conns {
			conn.Close()
		}
		g.mu.Unlock()
		g.wg.Wait()

		g.mu.Lock()
		snapshot := make([]*session, 0, len(g.sessions))
		for _, s := range g.sessions {
			snapshot = append(snapshot, s)
		}
		g.mu.Unlock()
		for _, s := range snapshot {
			if _, err := g.flushSession(s, nil); err != nil {
				g.cfg.Logf("gate: close: reader %q capture %x: %v", s.name, s.nonce, err)
			}
		}

		g.sinkMu.Lock()
		for _, sink := range g.cfg.Sinks {
			if err := sink.Close(); err != nil && g.closeErr == nil {
				g.closeErr = err
			}
		}
		g.sinkMu.Unlock()
	})
	return g.closeErr
}
