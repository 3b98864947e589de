package dist

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lf/internal/decoder"
	"lf/internal/edgedetect"
	"lf/internal/fault"
	"lf/internal/obs"
	"lf/internal/wire"
)

// CoordinatorConfig tunes the shard coordinator.
type CoordinatorConfig struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for tests).
	Addr string

	// LeaseTimeout bounds how long a worker may hold a shard before the
	// lease expires: once a job is sent, the serving connection must
	// deliver the result (or a shard error) within this window or the
	// shard re-queues and the connection is dropped. 0 selects 2s.
	LeaseTimeout time.Duration
	// HedgeAfter is the straggler threshold: a shard outstanding longer
	// than this is speculatively re-queued for another worker while the
	// original lease keeps running — first valid result wins, identical
	// bytes either way. 0 selects LeaseTimeout/2; negative disables
	// hedging.
	HedgeAfter time.Duration
	// MaxAttempts bounds serve attempts per shard (initial + retries +
	// hedges). A shard that exhausts its attempts falls back to local
	// compute — transport trouble never fails a decode. 0 selects 5.
	MaxAttempts int
	// QuarantineAfter is how many typed remote failures poison a shard
	// (surfaced as lf.DecodeError for that shard; the coordinator and
	// its pool survive). 0 selects 2 — one flaky worker gets a second
	// opinion before the shard is declared poisoned.
	QuarantineAfter int

	// Transport, when active, impairs every accepted connection with
	// the seeded wire injectors (fault.TransportKinds) — the test and
	// bench harness for the failure matrix.
	Transport fault.TransportConfig

	// Logf, when non-nil, receives coordinator lifecycle events.
	Logf func(format string, args ...any)
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 2 * time.Second
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = c.LeaseTimeout / 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 2
	}
	return c
}

// pending is one shard job's coordinator-side state. All fields are
// guarded by Coordinator.mu except job geometry (immutable) and doneCh
// (closed exactly once, under mu, after done/err settle — so a reader
// that sees doneCh closed sees the final state without the lock).
type pending struct {
	id  uint64
	job *edgedetect.StripeJob

	queued   bool // sitting in the queue awaiting a serve
	leases   int  // connections currently serving it
	attempts int  // serves started (initial + retries + hedges)
	remote   int  // typed remote failures observed

	// dispatched is when the most recent serve started; the hedge
	// monitor compares against it so each serve gets a full HedgeAfter
	// before a speculative duplicate is queued.
	dispatched time.Time

	exhausted bool // attempts ≥ MaxAttempts: local fallback owns it
	done      bool
	err       error
	doneCh    chan struct{}
}

// Coordinator serves the stripe queue to pulled workers and merges
// results into the jobs' Dst buffers. One coordinator serves any
// number of sequential or concurrent callers (job IDs are global).
type Coordinator struct {
	cfg CoordinatorConfig
	ln  net.Listener

	mu      sync.Mutex
	cond    *sync.Cond // signalled on queue push and close
	queue   []*pending // FIFO serve order (hedges re-append)
	jobs    map[uint64]*pending
	nextID  uint64
	workers int
	closed  bool

	closedCh chan struct{}
	connSeq  atomic.Uint64
	wg       sync.WaitGroup // accept loop + serve loops + monitor

	reg *obs.Registry
	m   obs.DistMetrics
}

// NewCoordinator starts listening and serving immediately.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen: %w", err)
	}
	// Dist metrics live in the coordinator's own registry (read back
	// via Stats), out of the decode Pipeline: distribution is invisible
	// to decode-class stats.
	reg := obs.NewRegistry()
	c := &Coordinator{
		cfg: cfg, ln: ln,
		jobs:     map[uint64]*pending{},
		closedCh: make(chan struct{}),
		reg:      reg,
		m:        obs.NewDistMetrics(reg),
	}
	c.cond = sync.NewCond(&c.mu)
	c.wg.Add(2)
	go c.acceptLoop()
	go c.monitor()
	return c, nil
}

// Addr returns the listen address workers should dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Stats snapshots the coordinator's runtime metrics (dist.*).
func (c *Coordinator) Stats() *obs.Snapshot { return c.reg.Snapshot() }

// Workers returns the number of currently connected workers.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers
}

// WaitWorkers blocks until at least n workers are connected or the
// timeout elapses, reporting whether the fleet arrived. Decodes work
// either way (RunStripe falls back to local compute); the wait just
// lets callers ensure the measurement they asked for is the one they
// get.
func (c *Coordinator) WaitWorkers(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		ok := c.workers >= n
		closed := c.closed
		c.mu.Unlock()
		if ok {
			return true
		}
		if closed || time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Close shuts the coordinator down: the listener closes, every worker
// connection is torn down, in-flight RunStripe calls finish locally
// (their jobs are marked exhausted), and Close returns once every
// serve loop has exited. Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	close(c.closedCh)
	c.cond.Broadcast()
	c.mu.Unlock()
	c.ln.Close()
	c.wg.Wait()
}

// RunStripe serves job to the worker fleet and returns when the job's
// Dst holds the stripe (or the stripe is quarantined). With no fleet —
// none connected, fleet drained, or attempts exhausted — the stripe is
// computed locally, so the call always completes. Safe for concurrent
// use.
func (c *Coordinator) RunStripe(job *edgedetect.StripeJob) error {
	c.m.Shards.Inc()
	p := c.submit(job)
	if p == nil {
		c.m.Local.Inc()
		job.Run()
		return nil
	}
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-p.doneCh:
			return p.err
		case <-c.closedCh:
			if c.steal(p) {
				c.m.Local.Inc()
				job.Run()
				return nil
			}
			<-p.doneCh
			return p.err
		case <-ticker.C:
			if c.shouldSteal(p) && c.steal(p) {
				c.m.Local.Inc()
				job.Run()
				return nil
			}
		}
	}
}

// submit enqueues a job for remote serving, or returns nil when the
// caller should compute locally (closed, or no workers connected).
func (c *Coordinator) submit(job *edgedetect.StripeJob) *pending {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.workers == 0 {
		return nil
	}
	c.nextID++
	p := &pending{id: c.nextID, job: job, queued: true, doneCh: make(chan struct{})}
	c.jobs[p.id] = p
	c.queue = append(c.queue, p)
	c.cond.Signal()
	return p
}

// shouldSteal reports whether the local fallback should reclaim the
// job: the fleet drained while it was outstanding, or every serve
// attempt was spent.
func (c *Coordinator) shouldSteal(p *pending) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.done {
		return false
	}
	return c.workers == 0 || p.exhausted
}

// steal reclaims a job for local compute. Once it returns true no
// remote result will ever touch the job's Dst (deliver checks done
// under mu), so the caller owns the buffer.
func (c *Coordinator) steal(p *pending) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.done {
		return false
	}
	p.done = true
	p.queued = false
	delete(c.jobs, p.id)
	close(p.doneCh)
	return true
}

// take blocks until a job is available (returns it with a lease) or
// the coordinator closes (returns nil). Stolen/settled jobs are
// skipped.
func (c *Coordinator) take() *pending {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.queue) > 0 {
			p := c.queue[0]
			copy(c.queue, c.queue[1:])
			c.queue = c.queue[:len(c.queue)-1]
			if p.done || !p.queued {
				continue
			}
			p.queued = false
			p.leases++
			p.attempts++
			p.dispatched = time.Now()
			return p
		}
		if c.closed {
			return nil
		}
		c.cond.Wait()
	}
}

// release drops a serve's lease; requeue re-offers the job unless it
// settled or ran out of attempts (then the local fallback takes over
// via exhausted).
func (c *Coordinator) release(p *pending, requeue bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p.leases--
	if p.done || !requeue || p.queued {
		return
	}
	if p.attempts >= c.cfg.MaxAttempts {
		p.exhausted = true
		return
	}
	p.queued = true
	c.queue = append(c.queue, p)
	c.cond.Signal()
}

// deliver settles a job with a remote result. Returns false when the
// result is unusable (wrong length — a corrupt frame that passed CRC
// by luck is still caught by the length invariant). Late results for
// settled or stolen jobs are silently discarded: first valid result
// wins, and per the determinism argument every valid result carries
// identical bytes.
func (c *Coordinator) deliver(id uint64, mag []float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.jobs[id]
	if !ok || p.done {
		return true // stale duplicate — not the connection's fault
	}
	if int64(len(mag)) != p.job.Hi-p.job.Lo {
		return false
	}
	copy(p.job.Dst, mag)
	p.done = true
	p.queued = false
	delete(c.jobs, id)
	close(p.doneCh)
	return true
}

// recordShardErr notes a typed remote failure and reports whether the
// shard should be retried. Below the quarantine threshold it should
// (maybe the worker, not the shard, is poisoned); at the threshold the
// shard settles with a typed lf.DecodeError, which poisons that one
// stripe's ticket — never the pool or the coordinator. A failure for
// an already-settled shard is stale and ignored.
func (c *Coordinator) recordShardErr(we *wireShardErr, p *pending) (retry bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.done {
		return false
	}
	p.remote++
	if p.remote < c.cfg.QuarantineAfter {
		return true
	}
	p.done = true
	p.queued = false
	p.err = &decoder.DecodeError{
		Stage: decoder.Stage(we.Stage),
		Pos:   we.Pos,
		Err:   fmt.Errorf("dist: shard %d poisoned after %d remote failures: %s", we.ID, p.remote, we.Msg),
	}
	delete(c.jobs, p.id)
	close(p.doneCh)
	return false
}

// monitor is the hedge loop: every tick it re-queues jobs whose
// current serve has been outstanding longer than HedgeAfter, so a
// straggling worker never gates the merge — some other worker (or the
// straggler itself, racing its duplicate) settles the shard first.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	if c.cfg.HedgeAfter < 0 {
		return
	}
	tick := c.cfg.HedgeAfter / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-c.closedCh:
			return
		case <-ticker.C:
		}
		now := time.Now()
		c.mu.Lock()
		for _, p := range c.jobs {
			if p.done || p.queued || p.exhausted || p.leases == 0 {
				continue
			}
			if now.Sub(p.dispatched) < c.cfg.HedgeAfter {
				continue
			}
			if p.attempts >= c.cfg.MaxAttempts {
				p.exhausted = true
				continue
			}
			// Reset the clock so the hedge itself gets a full window
			// before a second hedge piles on.
			p.dispatched = now
			p.queued = true
			c.queue = append(c.queue, p)
			c.m.Hedges.Inc()
			c.cond.Signal()
		}
		c.mu.Unlock()
	}
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		id := c.connSeq.Add(1)
		wrapped := c.cfg.Transport.Wrap(&countingConn{Conn: conn, n: c.m.Bytes}, id)
		c.wg.Add(1)
		go c.serve(wrapped)
	}
}

// addWorker/dropWorker maintain the fleet census the submit/steal
// decisions read.
func (c *Coordinator) addWorker() {
	c.mu.Lock()
	c.workers++
	c.m.Workers.Max(int64(c.workers))
	c.mu.Unlock()
}

func (c *Coordinator) dropWorker() {
	c.mu.Lock()
	c.workers--
	c.mu.Unlock()
}

// serve runs one worker connection: handshake, then a pull → job →
// result loop. Any failure — transport error, framing violation,
// lease expiry, protocol confusion — re-queues whatever was leased and
// drops the connection; the worker's reconnect loop gets a fresh one.
func (c *Coordinator) serve(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()

	// Tear the connection down on Close so blocked reads unwind.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-c.closedCh:
			conn.Close()
		case <-stop:
		}
	}()

	conn.SetDeadline(time.Now().Add(c.cfg.LeaseTimeout))
	typ, payload, err := readFrame(conn)
	if err != nil || typ != msgHello {
		return
	}
	hello, err := decodeHello(payload)
	if err != nil || hello.Version != protoVersion {
		return
	}
	var e wire.Enc
	e.U32(protoVersion)
	if err := writeFrame(conn, msgWelcome, e.B); err != nil {
		return
	}
	c.addWorker()
	defer c.dropWorker()
	c.logf("dist: worker %q connected from %s", hello.Name, conn.RemoteAddr())

	for {
		// Pulls may be arbitrarily far apart (idle worker waiting out an
		// empty queue happens coordinator-side, in take), so the pull
		// read itself is unbounded; the Close watchdog unblocks it.
		conn.SetDeadline(time.Time{})
		typ, _, err := readFrame(conn)
		if err != nil || typ != msgPull {
			return
		}
		p := c.take()
		if p == nil {
			return // closed
		}
		if !c.serveJob(conn, p) {
			return
		}
	}
}

// serveJob ships one leased job and awaits its settlement within the
// lease window. Returns false when the connection must be dropped.
func (c *Coordinator) serveJob(conn net.Conn, p *pending) bool {
	wj := shipJob(p)
	conn.SetDeadline(time.Now().Add(c.cfg.LeaseTimeout))
	if err := writeFrame(conn, msgJob, wj.encode()); err != nil {
		c.m.Retries.Inc()
		c.release(p, true)
		return false
	}
	// The lease: the result (or shard error) must land before the
	// deadline set above, or the conn is cut and the shard re-queued.
	typ, payload, err := readFrame(conn)
	if err != nil {
		c.m.Retries.Inc()
		c.release(p, true)
		return false
	}
	switch typ {
	case msgResult:
		res, derr := decodeResult(payload)
		if derr != nil || res.ID != p.id || !c.deliver(res.ID, res.Mag) {
			c.m.Retries.Inc()
			c.release(p, true)
			return false
		}
		c.release(p, false)
		return true
	case msgShardErr:
		se, derr := decodeShardErr(payload)
		if derr != nil || se.ID != p.id {
			c.m.Retries.Inc()
			c.release(p, true)
			return false
		}
		if c.recordShardErr(se, p) {
			c.m.Retries.Inc()
			c.release(p, true)
		} else {
			c.release(p, false)
		}
		// The worker reported cleanly; it survives to pull again.
		return true
	default:
		c.m.Retries.Inc()
		c.release(p, true)
		return false
	}
}

// shipJob builds the wire form of a pending job: geometry verbatim,
// prefix sums cut down to the exact window the dense kernel reads
// ([ilo−margin, ihi+margin) in absolute positions). The prefix sums
// are from-origin absolute values, so the shipped subslice reproduces
// every difference bit-exactly.
func shipJob(p *pending) *wireJob {
	j := p.job
	wj := &wireJob{
		ID: p.id, Lo: j.Lo, Hi: j.Hi,
		IntLo: j.IntLo, IntHi: j.IntHi,
		Gap: j.Gap, Win: j.Win,
	}
	ilo, ihi := max(j.Lo, j.IntLo), min(j.Hi, j.IntHi)
	if ilo >= ihi {
		// Pure-blank stripe: nothing to compute, ship no window.
		wj.Base = ilo
		return wj
	}
	margin := edgedetect.SweepMargin(j.Gap, j.Win)
	shipLo, shipHi := ilo-margin, ihi+margin
	wj.Base = shipLo
	wj.Re = j.Re[shipLo-j.Base : shipHi-j.Base]
	wj.Im = j.Im[shipLo-j.Base : shipHi-j.Base]
	return wj
}

// countingConn totals bytes both directions into an obs counter — the
// innermost wrapper, so it counts what the network actually carried,
// including corrupted and truncated frames.
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
