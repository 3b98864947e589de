package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"lf"
	"lf/internal/gate"
	"lf/internal/streams"
)

// gateway_loopback: an in-process gate.Gateway on 127.0.0.1:0 with the
// default Config and a JSONL sink writing to io.Discard. Its decoder is
// the 8-tag network config with CalibSamples = 32768 and SIC off.
// readerCount reader goroutines each run gate.DialClient sessions back
// to back over their own sequence of captures, one session and nonce
// per capture, pushing 8192-sample blocks.
const (
	gatewayTags   = 8
	gatewayPool   = 64
	gatewayCorpus = 64
)

// Quality ceilings for gateway_loopback (see README.md).
const (
	gatewayMaxBER = 0.3
	gatewayMaxFER = 0.4
)

// readerCount is the number of concurrent readers: one per CPU.
func readerCount() int { return runtime.NumCPU() }

// gatewayConfig is the gateway's per-session decoder template. Its
// decoder seed is left at the default, so every session decodes alike
// whatever network a capture came from.
func gatewayConfig(c *lf.DecoderConfig) {
	c.CancellationRounds = -1
	c.Seed = 0
}

type gatewayRig struct {
	pool *capturePool
	sink *frameSink
	g    *gate.Gateway
}

func (rig *gatewayRig) close() error { return rig.g.Close() }

// gatewaySetup synthesises the pool and starts a gateway whose decoder
// template is cfg-adjusted by tweak (nil for the shipped template).
func gatewaySetup(seed int64, tweak func(*lf.DecoderConfig)) (*gatewayRig, error) {
	pool, err := networkPool(seed, gatewayTags, gatewayPool, gatewayConfig)
	if err != nil {
		return nil, err
	}
	rig := &gatewayRig{pool: pool}
	if err := rig.start(tweak); err != nil {
		return nil, err
	}
	return rig, nil
}

// start launches a fresh gateway (and sink) for the rig's pool.
func (rig *gatewayRig) start(tweak func(*lf.DecoderConfig)) error {
	cfg := rig.pool.cfgs[0]
	if tweak != nil {
		tweak(&cfg)
	}
	sink := &frameSink{inner: gate.NewJSONLSink(io.Discard), sessions: map[uint64]*gwSession{}}
	g, err := gate.NewGateway(gate.Config{
		Addr:    "127.0.0.1:0",
		Decoder: cfg,
		Sinks:   []gate.Sink{sink},
	})
	if err != nil {
		return err
	}
	rig.sink, rig.g = sink, g
	return nil
}

// gwSession is one capture's session as the sink sees it.
type gwSession struct {
	clk        frameClock
	sampleRate float64
	mu         sync.Mutex
	frames     []*gate.Frame
}

// frameSink wraps the gateway's JSONL sink: it times each Publish and
// stamps each frame's emission for frame latency.
type frameSink struct {
	inner gate.Sink

	mu        sync.Mutex
	sessions  map[uint64]*gwSession
	publishNs int64
	publishes int64
}

func (s *frameSink) open(nonce uint64, sampleRate float64) *gwSession {
	sess := &gwSession{sampleRate: sampleRate}
	sess.clk.reset(blockSamples)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions[nonce] = sess
	return sess
}

func (s *frameSink) closeSession(nonce uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, nonce)
}

func (s *frameSink) Publish(f *gate.Frame) error {
	start := time.Now()
	err := s.inner.Publish(f)
	d := time.Since(start)
	s.mu.Lock()
	s.publishNs += int64(d)
	s.publishes++
	sess := s.sessions[f.Capture]
	s.mu.Unlock()
	if sess != nil {
		sess.clk.emitted(frameEnd(f.Offset, sess.sampleRate/f.Rate, len(f.Bits)), start)
		sess.mu.Lock()
		sess.frames = append(sess.frames, f)
		sess.mu.Unlock()
	}
	return err
}

func (s *frameSink) Close() error { return s.inner.Close() }

// publishUs is the mean time one JSONL Publish took, in µs.
func (s *frameSink) publishUs() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.publishes == 0 {
		return 0
	}
	return float64(s.publishNs) / float64(s.publishes) / 1e3
}

// resultOf rebuilds the decode-determined part of a result from
// published frames, for scoring and fingerprinting.
func resultOf(frames []*gate.Frame) *lf.Result {
	res := &lf.Result{}
	for _, f := range frames {
		res.Streams = append(res.Streams, &lf.StreamResult{
			Stream:     &streams.Stream{Rate: f.Rate, Offset: f.Offset},
			Bits:       f.Bits,
			Confidence: f.Confidence,
		})
	}
	return res
}

// sessionStats is what one reader session observed.
type sessionStats struct {
	reader string
	frames []*gate.Frame
	acks   []float64
	lat    []float64
	dial   time.Duration // dial to welcome
}

// runSession streams one capture through a fresh client session.
func runSession(ctx context.Context, rig *gatewayRig, reader int, nonce uint64, ep *lf.Epoch) (*sessionStats, error) {
	fs := ep.Capture.SampleRate
	sess := rig.sink.open(nonce, fs)
	defer rig.sink.closeSession(nonce)
	st := &sessionStats{reader: readerName(reader)}
	start := time.Now()
	c, err := gate.DialClient(ctx, gate.ClientConfig{
		Addr:       rig.g.Addr(),
		Name:       st.reader,
		Nonce:      nonce,
		SampleRate: fs,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	st.dial = time.Since(start)
	samples := ep.Capture.Samples
	for lo := 0; lo < len(samples); lo += blockSamples {
		hi := min(lo+blockSamples, len(samples))
		t := time.Now()
		sess.clk.push(t)
		if err := c.Push(samples[lo:hi]); err != nil {
			return nil, err
		}
		st.acks = append(st.acks, ms(time.Since(t)))
	}
	sess.clk.end(time.Now())
	if _, err := c.End(); err != nil {
		return nil, err
	}
	sess.mu.Lock()
	st.frames = sess.frames
	sess.mu.Unlock()
	st.lat = sess.clk.latencies()
	return st, nil
}

func readerName(r int) string { return fmt.Sprintf("reader-%d", r) }

// readerFleet runs readerCount readers against rig until budget has
// elapsed and every pool capture has been streamed at least once.
// Reader r streams pool entries r, r+readers, … cyclically, session
// nonces counting up from *nonce. each is called after every session,
// serialised.
func readerFleet(rig *gatewayRig, budget time.Duration, nonce *uint64, each func(i int, nonce uint64, st *sessionStats, err error)) {
	readers := readerCount()
	n := len(rig.pool.eps)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	deadline := time.Now().Add(budget)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := r; k < n || time.Now().Before(deadline); k += readers {
				mu.Lock()
				*nonce++
				id := *nonce
				mu.Unlock()
				i := k % n
				st, err := runSession(ctx, rig, r, id, rig.pool.eps[i])
				mu.Lock()
				each(i, id, st, err)
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
}

func runGateway(seed int64, budget time.Duration) (*report, error) {
	rig, times, err := setupTimes(func() (*gatewayRig, error) { return gatewaySetup(seed, nil) },
		func(rig *gatewayRig) { rig.close() })
	if err != nil {
		return nil, err
	}
	defer rig.close()
	pool := rig.pool
	e := &endToEnd{setup: times}
	r := newReport()
	cons := newConsistency(len(pool.eps), func(i int, res *lf.Result) { e.pool.add(pool.eps[i], res) })
	var nonce uint64
	e.timed(func() {
		readerFleet(rig, budget, &nonce, func(i int, _ uint64, st *sessionStats, err error) {
			r.Attempted++
			if err != nil {
				r.Failed++
				r.check(false, "capture %d: %v", i, err)
				return
			}
			e.observe(pool.capSec[i], st.acks, st.lat)
			cons.add(r, i, resultOf(st.frames))
		})
	})
	for i := 0; i < gatewayCorpus; i++ {
		r.Attempted++
		ep, _, _, err := networkCapture(corpusSeed+int64(i), gatewayTags, nil)
		if err == nil {
			nonce++
			var st *sessionStats
			if st, err = runSession(context.Background(), rig, 0, nonce, ep); err == nil {
				e.corpus.add(ep, resultOf(st.frames))
			}
		}
		if err != nil {
			r.Failed++
			r.check(false, "corpus capture %d: %v", i, err)
		}
	}
	if err := rig.close(); err != nil {
		return nil, err
	}
	e.addRetained(rig.g.Stats().Gauges["gate.retained_peak"])
	e.checkQuality(r, gatewayMaxBER, gatewayMaxFER)
	e.fill(r)
	return r, nil
}

func traceGateway(seed int64, budget time.Duration) (*report, error) {
	rig, err := gatewaySetup(seed, nil)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	tr := &spanLog{}
	traced := &gatewayRig{pool: rig.pool}
	if err := traced.start(func(c *lf.DecoderConfig) { c.Tracer = tr }); err != nil {
		return nil, err
	}
	defer traced.close()
	pool := rig.pool
	r := newTraceReport()
	r.put("reader.synth_ms", median(pool.synth))
	share := budgetShares(budget, 4, 2, 1)

	// Untraced and traced gateways take turns serving the whole fleet.
	plain, withSpans := &endToEnd{}, &endToEnd{}
	var (
		nonce           uint64
		dials           []float64
		sessions, wired int64
	)
	first := make([]*sessionStats, len(pool.eps))
	firstNonce := make([]uint64, len(pool.eps))
	fleet := func(rig *gatewayRig, e *endToEnd, account bool) {
		e.timed(func() {
			readerFleet(rig, share[0]/6, &nonce, func(i int, id uint64, st *sessionStats, err error) {
				r.Attempted++
				if err != nil {
					r.Failed++
					r.check(false, "capture %d: %v", i, err)
					return
				}
				e.observe(pool.capSec[i], st.acks, st.lat)
				if !account {
					return
				}
				dials = append(dials, ms(st.dial))
				sessions++
				wired += int64(len(pool.eps[i].Capture.Samples))
				if first[i] == nil {
					first[i], firstNonce[i] = st, id
				}
			})
		})
	}
	for k := 0; k < 3; k++ {
		fleet(rig, plain, true)
		fleet(traced, withSpans, false)
	}
	r.put("trace.overhead_ratio", withSpans.realtime()/plain.realtime())
	fmt.Fprintf(os.Stderr, "lfperf: spans kept: %s\n", spanSummary(tr.take()))
	gs := rig.g.Stats()
	r.put("gate.session_setup_ms", median(dials))
	r.put("gate.backpressure_ms", float64(gs.Counter("gate.backpressure_ns"))/1e6/float64(sessions))
	r.put("gate.sink_publish_us", rig.sink.publishUs())
	r.put("gate.wire_bytes_per_sample", float64(gs.Counter("gate.bytes"))/float64(wired))

	// The gateway's frames must be byte-identical to a local streaming
	// decode of the same capture with the same decoder template.
	template := pool.cfgs[0]
	for i, st := range first {
		var want []*gate.Frame
		cfg := template
		cfg.OnFrame = func(sr *lf.StreamResult) {
			want = append(want, gate.FrameOf(st.reader, firstNonce[i], len(want), sr))
		}
		dec, err := lf.NewDecoder(cfg)
		if err != nil {
			return nil, err
		}
		r.Attempted++
		if _, _, err := streamDecode(dec, pool.eps[i].Capture.Samples, nil); err != nil {
			r.Failed++
			r.check(false, "local decode of capture %d: %v", i, err)
			continue
		}
		r.check(sameFrames(st.frames, want), "capture %d: gateway frames differ from the local decode", i)
	}

	s := streamSubject(pool, func(int) lf.DecoderConfig { return template })
	if err := inPath(r, s, len(pool.eps), 8, share[1]); err != nil {
		return nil, err
	}
	statsOverhead(r, s, 32, share[2])
	return r, nil
}

// sameFrames reports whether two frame sequences marshal identically,
// payload bits included.
func sameFrames(got, want []*gate.Frame) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		a, errA := json.Marshal(got[i])
		b, errB := json.Marshal(want[i])
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			return false
		}
	}
	return true
}
