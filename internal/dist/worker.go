package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"lf/internal/decoder"
	"lf/internal/edgedetect"
	"lf/internal/fault"
	"lf/internal/wire"
)

// WorkerConfig tunes one worker process's pull loop.
type WorkerConfig struct {
	// Addr is the coordinator's address.
	Addr string
	// Name identifies the worker in coordinator logs.
	Name string

	// BackoffMin/BackoffMax bound the exponential reconnect backoff
	// (full jitter: each sleep is a seeded uniform draw of the current
	// ceiling). Defaults 10ms / 1s. A completed job resets the ceiling,
	// so a healthy fleet reconnects fast after a one-off drop.
	BackoffMin, BackoffMax time.Duration
	// Seed drives the jitter draws; 0 seeds from the worker name so
	// identically configured workers still dejitter apart.
	Seed int64

	// Dial overrides the transport (tests inject pipes or faulty
	// conns). Default: net.Dialer over TCP.
	Dial func(ctx context.Context) (net.Conn, error)
	// Transport, when active, impairs the worker's side of each
	// connection with the seeded wire injectors — connection attempt
	// index salts the hash, so retries fail independently.
	Transport fault.TransportConfig
	// Compute overrides stripe computation (tests inject stalls and
	// poison). Default: (*edgedetect.StripeJob).Run.
	Compute func(*edgedetect.StripeJob)
	// Logf, when non-nil, receives worker lifecycle events.
	Logf func(format string, args ...any)
}

// RunWorker dials the coordinator and serves pulls until ctx is
// cancelled: pull a stripe, compute it, stream the result back. Every
// transport failure — dial refusal, dropped conn, corrupt frame —
// degrades to an exponential-backoff-with-jitter reconnect; a compute
// panic is reported as a typed shard error on the wire (the worker
// survives). Returns ctx.Err() on cancellation.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 10 * time.Millisecond
	}
	if cfg.BackoffMax < cfg.BackoffMin {
		cfg.BackoffMax = time.Second
	}
	if cfg.Dial == nil {
		d := &net.Dialer{}
		cfg.Dial = func(ctx context.Context) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", cfg.Addr)
		}
	}
	if cfg.Compute == nil {
		cfg.Compute = (*edgedetect.StripeJob).Run
	}
	seed := uint64(cfg.Seed)
	if seed == 0 {
		for _, b := range []byte(cfg.Name) {
			seed = seed*131 + uint64(b)
		}
		seed++
	}

	backoff := cfg.BackoffMin
	for attempt := uint64(0); ; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		conn, err := cfg.Dial(ctx)
		if err == nil {
			wrapped := cfg.Transport.Wrap(conn, attempt+1)
			served, serr := workerSession(ctx, wrapped, cfg)
			if cfg.Logf != nil && serr != nil && ctx.Err() == nil {
				cfg.Logf("dist: worker %q session ended after %d jobs: %v", cfg.Name, served, serr)
			}
			if served > 0 {
				backoff = cfg.BackoffMin // healthy session: forgive the failure
			}
		} else if cfg.Logf != nil && ctx.Err() == nil {
			cfg.Logf("dist: worker %q dial: %v", cfg.Name, err)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// Full-jitter sleep in [BackoffMin, backoff], then double the
		// ceiling — the celestia reconnect shape: collapsed workers
		// don't thunder back in phase.
		h := splitmix64w(seed ^ (attempt+1)*0x9E3779B97F4A7C15)
		frac := float64(h>>11) / (1 << 53)
		sleep := cfg.BackoffMin + time.Duration(frac*float64(backoff-cfg.BackoffMin))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > cfg.BackoffMax {
			backoff = cfg.BackoffMax
		}
	}
}

// workerSession runs one connection's pull loop, returning how many
// jobs it completed and why it ended.
func workerSession(ctx context.Context, conn net.Conn, cfg WorkerConfig) (served int, err error) {
	defer conn.Close()
	// Watchdog: cancellation severs the conn so blocked reads unwind.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()

	hello := &wireHello{Version: protoVersion, Name: cfg.Name}
	if err := writeFrame(conn, msgHello, hello.encode()); err != nil {
		return 0, err
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return 0, err
	}
	if typ != msgWelcome {
		return 0, wireErrf("expected welcome, got type %d", typ)
	}
	d := wire.NewDec(payload)
	if v := d.U32(); d.Err() != nil || v != protoVersion {
		return 0, wireErrf("coordinator speaks version %d, want %d", v, protoVersion)
	}

	for {
		if err := writeFrame(conn, msgPull, nil); err != nil {
			return served, err
		}
		typ, payload, err := readFrame(conn)
		if err != nil {
			return served, err
		}
		if typ != msgJob {
			return served, wireErrf("expected job, got type %d", typ)
		}
		wj, err := decodeJob(payload)
		if err != nil {
			return served, err
		}
		reply, rtyp := computeJob(wj, cfg.Compute)
		if err := writeFrame(conn, rtyp, reply); err != nil {
			return served, err
		}
		served++
	}
}

// computeJob runs one shipped stripe and encodes the reply: a result
// frame, or a shard-error frame when the compute panics (poisoned
// shard — the coordinator decides whether to retry or quarantine).
func computeJob(wj *wireJob, compute func(*edgedetect.StripeJob)) (payload []byte, typ byte) {
	job := &edgedetect.StripeJob{
		Lo: wj.Lo, Hi: wj.Hi,
		IntLo: wj.IntLo, IntHi: wj.IntHi,
		Re: wj.Re, Im: wj.Im, Base: wj.Base,
		Gap: wj.Gap, Win: wj.Win,
		Dst: make([]float64, wj.Hi-wj.Lo),
	}
	if perr := runGuarded(job, compute); perr != nil {
		se := &wireShardErr{ID: wj.ID, Stage: string(decoder.StageEdgeDetect), Pos: wj.Lo, Msg: perr.Error()}
		var de *decoder.DecodeError
		if errors.As(perr, &de) {
			se.Stage, se.Pos = string(de.Stage), de.Pos
		}
		return se.encode(), msgShardErr
	}
	res := &wireResult{ID: wj.ID, Mag: job.Dst}
	return res.encode(), msgResult
}

// runGuarded converts a compute panic into an error, preserving
// error-valued panics (typed decode errors included) via %w.
func runGuarded(job *edgedetect.StripeJob, compute func(*edgedetect.StripeJob)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("dist: stripe compute panic: %w", e)
			} else {
				err = fmt.Errorf("dist: stripe compute panic: %v", r)
			}
		}
	}()
	compute(job)
	return nil
}

// splitmix64w is the jitter hash — the same full-avalanche mix the
// fault injectors use for positional draws.
func splitmix64w(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
