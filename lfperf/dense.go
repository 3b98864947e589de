package main

import (
	"reflect"
	"slices"
	"time"

	"lf"
)

// dense16_stream: every capture is a fresh 16-tag network at 100 kbps
// with 2 ms payloads, every tag firing at carrier-on as on the paper's
// 16-Moo testbed, decoded by a streaming decoder fed 8192-sample
// pushes on one goroutine with the default three SIC rounds.
const (
	denseTags    = 16
	densePayload = 2e-3
	densePool    = 96
	denseCorpus  = 64
)

// Quality ceilings for dense16_stream (see README.md).
const (
	denseMaxBER = 0.45
	denseMaxFER = 0.65
)

// capturePool is a workload's generated inputs: one capture (with its
// ground truth) and one decoder configuration per pool entry.
type capturePool struct {
	eps    []*lf.Epoch
	cfgs   []lf.DecoderConfig
	decs   []*lf.Decoder
	capSec []float64 // capture-seconds of each entry
	synth  []float64 // ms to synthesise each capture
}

func (p *capturePool) add(ep *lf.Epoch, capSec float64, cfg lf.DecoderConfig, synth time.Duration) error {
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		return err
	}
	p.eps = append(p.eps, ep)
	p.capSec = append(p.capSec, capSec)
	p.cfgs = append(p.cfgs, cfg)
	p.decs = append(p.decs, dec)
	p.synth = append(p.synth, ms(synth))
	return nil
}

// networkCapture synthesises one capture of a tags-tag network and
// returns it with its decoder configuration (CalibSamples set, then
// tweak applied) and the synthesis time.
func networkCapture(seed int64, tags int, tweak func(*lf.DecoderConfig)) (*lf.Epoch, lf.DecoderConfig, time.Duration, error) {
	start := time.Now()
	net, err := lf.NewNetwork(lf.NetworkConfig{NumTags: tags, PayloadSeconds: densePayload, Seed: seed})
	if err != nil {
		return nil, lf.DecoderConfig{}, 0, err
	}
	ep, err := net.RunEpoch()
	if err != nil {
		return nil, lf.DecoderConfig{}, 0, err
	}
	synth := time.Since(start)
	cfg := net.DecoderConfig()
	cfg.CalibSamples = calibSamples
	if tweak != nil {
		tweak(&cfg)
	}
	return ep, cfg, synth, nil
}

// networkPool synthesises n captures of tags-tag networks seeded seed,
// seed+1, … and builds their decoders.
func networkPool(seed int64, tags, n int, tweak func(*lf.DecoderConfig)) (*capturePool, error) {
	p := &capturePool{}
	for i := 0; i < n; i++ {
		ep, cfg, synth, err := networkCapture(seed+int64(i), tags, tweak)
		if err != nil {
			return nil, err
		}
		if err := p.add(ep, ep.Capture.Duration(), cfg, synth); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// pushObs is what a streaming decode's caller observed.
type pushObs struct {
	wall     time.Duration
	acks     []float64 // ms per Push
	retained int64     // RetainedBytes high-water
	stats    *lf.Stats // the stream's own metrics
}

// streamDecode pushes samples through a fresh stream of dec in
// blockSamples pushes, stamping each push on clk (when non-nil) for
// frame latency.
func streamDecode(dec *lf.Decoder, samples []complex128, clk *frameClock) (*lf.Result, pushObs, error) {
	var o pushObs
	sd, err := dec.NewStream()
	if err != nil {
		return nil, o, err
	}
	if clk != nil {
		clk.reset(blockSamples)
	}
	start := time.Now()
	for lo := 0; lo < len(samples); lo += blockSamples {
		hi := min(lo+blockSamples, len(samples))
		t := time.Now()
		if clk != nil {
			clk.push(t)
		}
		if err := sd.Push(samples[lo:hi]); err != nil {
			return nil, o, err
		}
		o.acks = append(o.acks, ms(time.Since(t)))
		o.retained = max(o.retained, sd.RetainedBytes())
	}
	if clk != nil {
		clk.end(time.Now())
	}
	res, err := sd.Flush()
	o.wall = time.Since(start)
	o.stats = sd.Stats()
	return res, o, err
}

// untilDone calls step(i) round-robin over n pool entries until budget
// has elapsed and every entry has run at least once.
func untilDone(n int, budget time.Duration, step func(i int)) {
	deadline := time.Now().Add(budget)
	for k := 0; k < n || time.Now().Before(deadline); k++ {
		step(k % n)
	}
}

func runDense(seed int64, budget time.Duration) (*report, error) {
	clk := &frameClock{}
	pool, times, err := setupTimes(func() (*capturePool, error) {
		return networkPool(seed, denseTags, densePool, func(c *lf.DecoderConfig) { c.OnFrame = clk.onFrame })
	}, nil)
	if err != nil {
		return nil, err
	}
	e := &endToEnd{setup: times}
	r := newReport()
	cons := newConsistency(len(pool.eps), func(i int, res *lf.Result) { e.pool.add(pool.eps[i], res) })
	e.timed(func() {
		untilDone(len(pool.eps), budget, func(i int) {
			r.Attempted++
			res, o, err := streamDecode(pool.decs[i], pool.eps[i].Capture.Samples, clk)
			if err != nil {
				r.Failed++
				r.check(false, "capture %d: %v", i, err)
				return
			}
			e.observe(pool.capSec[i], o.acks, clk.latencies())
			e.addRetained(o.retained)
			cons.add(r, i, res)
		})
	})
	for i := 0; i < denseCorpus; i++ {
		r.Attempted++
		ep, cfg, _, err := networkCapture(corpusSeed+int64(i), denseTags, nil)
		if err == nil {
			var dec *lf.Decoder
			if dec, err = lf.NewDecoder(cfg); err == nil {
				var res *lf.Result
				if res, _, err = streamDecode(dec, ep.Capture.Samples, nil); err == nil {
					e.corpus.add(ep, res)
				}
			}
		}
		if err != nil {
			r.Failed++
			r.check(false, "corpus capture %d: %v", i, err)
		}
	}
	e.checkQuality(r, denseMaxBER, denseMaxFER)
	e.fill(r)
	return r, nil
}

// streamSubject decodes pool entries the streaming way.
func streamSubject(pool *capturePool, cfg func(i int) lf.DecoderConfig) *subject {
	return &subject{
		capSec:  pool.capSec,
		cfg:     cfg,
		samples: func(i int) ([]complex128, error) { return pool.eps[i].Capture.Samples, nil },
		decode: func(cfg lf.DecoderConfig, i int) (*lf.Result, time.Duration, *lf.Stats, error) {
			dec, err := lf.NewDecoder(cfg)
			if err != nil {
				return nil, 0, nil, err
			}
			res, o, err := streamDecode(dec, pool.eps[i].Capture.Samples, nil)
			return res, o.wall, o.stats, err
		},
	}
}

func traceDense(seed int64, budget time.Duration) (*report, error) {
	pool, err := networkPool(seed, denseTags, densePool, nil)
	if err != nil {
		return nil, err
	}
	r := newTraceReport()
	r.put("reader.synth_ms", median(pool.synth))
	s := streamSubject(pool, func(i int) lf.DecoderConfig { return pool.cfgs[i] })
	share := budgetShares(budget, 2, 1, 1, 2, 4)
	traceOverhead(r, s, 32, share[0])
	statsOverhead(r, s, 32, share[1])
	sicCost(r, s, 32, share[2])
	if err := inPath(r, s, len(pool.eps), 8, share[3]); err != nil {
		return nil, err
	}
	if err := shapes(r, s, 12, share[4]); err != nil {
		return nil, err
	}
	// Batch Decode must equal the streaming decode of the same capture.
	for i := 0; i < 4; i++ {
		dec, err := lf.NewDecoder(pool.cfgs[i])
		if err != nil {
			return nil, err
		}
		c := *pool.eps[i].Capture
		c.Samples = slices.Clone(c.Samples)
		r.Attempted += 2
		batch, err := dec.DecodeCapture(&c)
		if err != nil {
			return nil, err
		}
		stream, _, _, err := s.decode(pool.cfgs[i], i)
		if err != nil {
			return nil, err
		}
		r.check(reflect.DeepEqual(batch, stream), "capture %d: batch decode differs from streaming decode", i)
	}
	return r, nil
}
