package main

import (
	"bytes"
	"math"
	"runtime"
	"time"

	"lf"
	"lf/internal/experiment"
	"lf/internal/iq"
)

// slotted_replay: the slotted listening windows of
// experiment.SICBenchEpoch (8 tags in 6 of 16 response slots, 650k
// samples, ~90% quiet carrier), serialised to LFIQ bytes during set-up
// and replayed with lf.ReadCapture + Decoder.DecodeCapture: the whole
// window in one batch push, default SIC.
const (
	slottedPool   = 16 // windows per generation
	slottedPasses = 2  // replays of each window per generation
	slottedCorpus = 16
)

// Quality ceilings for slotted_replay (see README.md).
const (
	slottedMaxBER = 0.2
	slottedMaxFER = 0.25
)

// replayPool holds each window only as LFIQ bytes; its epoch keeps the
// ground truth with the samples dropped.
type replayPool struct {
	capturePool
	lfiq [][]byte
}

// slottedWindow synthesises window seed and serialises it.
func slottedWindow(seed int64) (*lf.Epoch, lf.DecoderConfig, []byte, time.Duration, error) {
	start := time.Now()
	ep, cfg, err := experiment.SICBenchEpoch(seed)
	if err != nil {
		return nil, cfg, nil, 0, err
	}
	synth := time.Since(start)
	var buf bytes.Buffer
	if err := lf.WriteCapture(&buf, ep); err != nil {
		return nil, cfg, nil, 0, err
	}
	return ep, cfg, buf.Bytes(), synth, nil
}

func slottedSetup(seed int64, onFrame func(*lf.StreamResult)) (*replayPool, error) {
	p := &replayPool{}
	for i := 0; i < slottedPool; i++ {
		ep, cfg, lfiq, synth, err := slottedWindow(seed + int64(i))
		if err != nil {
			return nil, err
		}
		cfg.OnFrame = onFrame
		truth := *ep
		truth.Capture = nil
		if err := p.add(&truth, ep.Capture.Duration(), cfg, synth); err != nil {
			return nil, err
		}
		p.lfiq = append(p.lfiq, lfiq)
	}
	return p, nil
}

// parse reads pool entry i's window back from its LFIQ bytes.
func (p *replayPool) parse(i int) (*iq.Capture, error) {
	return lf.ReadCapture(bytes.NewReader(p.lfiq[i]))
}

// scoreWith scores res against truth, whose samples were dropped, using
// the capture the decode read.
func scoreWith(q *quality, truth *lf.Epoch, capture *iq.Capture, res *lf.Result) {
	ep := *truth
	ep.Capture = capture
	q.add(&ep, res)
}

// replay parses one serialised window and batch-decodes it. Every
// frame's last sample was handed in when ReadCapture started.
func replay(dec *lf.Decoder, lfiq []byte, clk *frameClock) (*lf.Result, *iq.Capture, time.Duration, error) {
	start := time.Now()
	if clk != nil {
		clk.reset(math.MaxInt)
		clk.push(start)
		clk.end(start)
	}
	capture, err := lf.ReadCapture(bytes.NewReader(lfiq))
	if err != nil {
		return nil, nil, 0, err
	}
	res, err := dec.DecodeCapture(capture)
	return res, capture, time.Since(start), err
}

// runSlotted works through generations of slottedPool windows until the
// budget is spent: each generation is set up (timed for setup_s),
// replayed slottedPasses times round-robin (timed for the other
// metrics), and dropped. About one window in six costs 1.5–2x the
// others to decode, so a single pool of 16 would make realtime_factor
// swing by ±10% between seeds with the luck of the draw; the hundreds
// of windows a run sees this way average that out, while only one
// generation is held in memory at a time. The whole window is one
// chunk, so chunk_ack_* is the time from ReadCapture to DecodeCapture
// returning, one sample per replay.
func runSlotted(seed int64, budget time.Duration) (*report, error) {
	clk := &frameClock{}
	e := &endToEnd{}
	r := newReport()
	deadline := time.Now().Add(budget)
	for g := 0; g < setupReps || time.Now().Before(deadline); g++ {
		runtime.GC()
		start := time.Now()
		pool, err := slottedSetup(seed+int64(g*slottedPool), clk.onFrame)
		if err != nil {
			return nil, err
		}
		e.setup = append(e.setup, time.Since(start).Seconds())
		var last *iq.Capture
		cons := newConsistency(len(pool.eps), func(i int, res *lf.Result) { scoreWith(&e.pool, pool.eps[i], last, res) })
		e.timed(func() {
			for k := 0; k < slottedPasses*len(pool.eps); k++ {
				i := k % len(pool.eps)
				r.Attempted++
				res, capture, wall, err := replay(pool.decs[i], pool.lfiq[i], clk)
				if err != nil {
					r.Failed++
					r.check(false, "generation %d capture %d: %v", g, i, err)
					continue
				}
				e.observe(pool.capSec[i], []float64{ms(wall)}, clk.latencies())
				last = capture
				cons.add(r, i, res)
			}
		})
		if g == 0 {
			if err := addOneBlockRetained(e, pool); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < slottedCorpus; i++ {
		r.Attempted++
		ep, cfg, lfiq, _, err := slottedWindow(corpusSeed + int64(i))
		if err == nil {
			var dec *lf.Decoder
			if dec, err = lf.NewDecoder(cfg); err == nil {
				var res *lf.Result
				var capture *iq.Capture
				if res, capture, _, err = replay(dec, lfiq, nil); err == nil {
					scoreWith(&e.corpus, ep, capture, res)
				}
			}
		}
		if err != nil {
			r.Failed++
			r.check(false, "corpus capture %d: %v", i, err)
		}
	}
	e.checkQuality(r, slottedMaxBER, slottedMaxFER)
	e.fill(r)
	return r, nil
}

// addOneBlockRetained records the memory a batch decode of each pool
// window pins: the caller's capture (SIC subtracts from it) plus the
// detector's windows, the same state a streaming decode fed the window
// as one block reports as RetainedBytes.
func addOneBlockRetained(e *endToEnd, pool *replayPool) error {
	for i, cfg := range pool.cfgs {
		cfg.OnFrame = nil
		capture, err := pool.parse(i)
		if err != nil {
			return err
		}
		n, err := oneBlockRetained(cfg, capture.Samples)
		if err != nil {
			return err
		}
		e.addRetained(n)
	}
	return nil
}

// oneBlockRetained pushes samples as one block and returns the
// decoder's RetainedBytes before Flush.
func oneBlockRetained(cfg lf.DecoderConfig, samples []complex128) (int64, error) {
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		return 0, err
	}
	sd, err := dec.NewStream()
	if err != nil {
		return 0, err
	}
	if err := sd.Push(samples); err != nil {
		return 0, err
	}
	n := sd.RetainedBytes()
	_, err = sd.Flush()
	return n, err
}

func traceSlotted(seed int64, budget time.Duration) (*report, error) {
	pool, err := slottedSetup(seed, nil)
	if err != nil {
		return nil, err
	}
	r := newTraceReport()
	r.put("reader.synth_ms", median(pool.synth))
	s := &subject{
		capSec: pool.capSec,
		cfg:    func(i int) lf.DecoderConfig { return pool.cfgs[i] },
		samples: func(i int) ([]complex128, error) {
			c, err := pool.parse(i)
			if err != nil {
				return nil, err
			}
			return c.Samples, nil
		},
		decode: func(cfg lf.DecoderConfig, i int) (*lf.Result, time.Duration, *lf.Stats, error) {
			dec, err := lf.NewDecoder(cfg)
			if err != nil {
				return nil, 0, nil, err
			}
			res, _, wall, err := replay(dec, pool.lfiq[i], nil)
			return res, wall, dec.Stats(), err
		},
	}
	share := budgetShares(budget, 2, 1, 1, 2, 2)
	traceOverhead(r, s, slottedPool, share[0])
	statsOverhead(r, s, slottedPool, share[1])
	sicCost(r, s, slottedPool, share[2])
	if err := inPath(r, s, slottedPool, 4, share[3]); err != nil {
		return nil, err
	}
	putSweepAndResidual(r, s, abRun(r, s, slottedPool/2, sweepAndResidual, share[4]))
	return r, nil
}
