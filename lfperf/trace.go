package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"lf"
	"lf/internal/dist"
)

// The traced run (-trace 1) produces the per-layer metrics. It never
// instruments the program: layer timings come from calling each layer's
// public functions from these files (layers.go), and the decoder's own
// lf.Stats counters and lf.Tracer span events are read back to check
// that the replay saw what the real decode saw.

// perLayer lists every per-layer metric with its unit. A traced run
// prints all of them; a layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"edgedetect.ns_per_sample", "ns/sample"},
	{"edgedetect.edges", "count"},
	{"dsp.sweep_dense_ns_per_sample", "ns/sample"},
	{"dsp.sweep_sparse_ns_per_sample", "ns/sample"},
	{"dsp.suppress_ns_per_peak", "ns/peak"},
	{"streams.register_ms", "ms"},
	{"streams.registered", "count"},
	{"streams.walk_ns_per_slot", "ns/slot"},
	{"streams.slots", "count"},
	{"collide.points", "count"},
	{"collide.separate_ms", "ms"},
	{"viterbi.ns_per_slot", "ns/slot"},
	{"decoder.sic_ms", "ms"},
	{"decoder.sic_recovered", "count"},
	{"decoder.sic_dirty_frac", "fraction"},
	{"decoder.allocs_per_capture", "count"},
	{"decoder.alloc_mb_per_capture", "MB"},
	{"decoder.push_ms", "ms"},
	{"decoder.commit_ms", "ms"},
	{"decoder.flush_ms", "ms"},
	{"decoder.default_rt", "ratio"},
	{"decoder.full_residual_rt", "ratio"},
	{"edgedetect.dense_sweep_rt", "ratio"},
	{"work.serial_rt", "ratio"},
	{"stage.pipelined_rt", "ratio"},
	{"shard.sharded_rt", "ratio"},
	{"dist.loopback_rt", "ratio"},
	{"iq.read_ns_per_sample", "ns/sample"},
	{"reader.synth_ms", "ms"},
	{"gate.session_setup_ms", "ms"},
	{"gate.backpressure_ms", "ms"},
	{"gate.sink_publish_us", "us"},
	{"gate.wire_bytes_per_sample", "B/sample"},
	{"obs.overhead_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

func newTraceReport() *report {
	r := newReport()
	for _, m := range perLayer {
		r.set(m.name, m.unit, 0)
	}
	return r
}

// put sets an already listed per-layer metric.
func (r *report) put(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("lfperf: unlisted per-layer metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}

// spanLog keeps the lf.Tracer span events of decodes in memory.
type spanLog struct {
	mu     sync.Mutex
	events []lf.SpanEvent
}

func (l *spanLog) Trace(ev lf.SpanEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

func (l *spanLog) take() []lf.SpanEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.events
	l.events = nil
	return out
}

// summary counts events per stage, for the stderr span summary.
func spanSummary(events []lf.SpanEvent) string {
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Stage]++
	}
	var parts []string
	for stage, n := range counts {
		parts = append(parts, fmt.Sprintf("%s=%d", stage, n))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// subject is what the traced phases need from a workload: its pool,
// the shipped decoder configuration of each entry (OnFrame unset), and
// how one entry is decoded the workload's way.
type subject struct {
	capSec  []float64
	cfg     func(i int) lf.DecoderConfig
	samples func(i int) ([]complex128, error)
	decode  func(cfg lf.DecoderConfig, i int) (*lf.Result, time.Duration, *lf.Stats, error)
}

// variant is one decoder configuration in an interleaved A/B run.
type variant struct {
	name  string
	tweak func(*lf.DecoderConfig)
	// sameOutput: the variant must reproduce the first variant's decode.
	sameOutput bool
}

// abRun decodes pool entries [0, m) with every variant interleaved per
// entry, until budget has elapsed and every entry has had two passes.
// It returns each variant's fastest decode per entry, in seconds.
func abRun(r *report, s *subject, m int, variants []variant, budget time.Duration) [][]float64 {
	best := make([][]float64, len(variants))
	for v := range best {
		best[v] = make([]float64, m)
	}
	first := make([]uint64, m)
	deadline := time.Now().Add(budget)
	for k := 0; k < 2*m || time.Now().Before(deadline); k++ {
		i := k % m
		for v, va := range variants {
			cfg := s.cfg(i)
			if va.tweak != nil {
				va.tweak(&cfg)
			}
			r.Attempted++
			res, wall, _, err := s.decode(cfg, i)
			if err != nil {
				r.Failed++
				r.check(false, "%s: capture %d: %v", va.name, i, err)
				continue
			}
			fp := fingerprint(res)
			switch {
			case v == 0:
				first[i] = fp
			case va.sameOutput:
				r.check(fp == first[i], "%s: capture %d decodes differently from %s", va.name, i, variants[0].name)
			}
			if sec := wall.Seconds(); best[v][i] == 0 || sec < best[v][i] {
				best[v][i] = sec
			}
		}
	}
	return best
}

// rt is the realtime factor of the first m pool entries decoded in the
// given per-entry wall-seconds.
func (s *subject) rt(walls []float64) float64 {
	var capSec, wall float64
	for i, w := range walls {
		capSec += s.capSec[i]
		wall += w
	}
	return capSec / wall
}

// traceOverhead measures trace.overhead_ratio: traced over untraced
// realtime_factor, from interleaved decodes.
func traceOverhead(r *report, s *subject, m int, budget time.Duration) {
	tr := &spanLog{}
	best := abRun(r, s, m, []variant{
		{name: "untraced"},
		{name: "traced", tweak: func(c *lf.DecoderConfig) { c.Tracer = tr }, sameOutput: true},
	}, budget)
	r.put("trace.overhead_ratio", s.rt(best[1])/s.rt(best[0]))
	fmt.Fprintf(os.Stderr, "lfperf: spans kept: %s\n", spanSummary(tr.take()))
}

// statsOverhead measures obs.overhead_ratio: instrumented over NoStats
// decode time, from interleaved decodes.
func statsOverhead(r *report, s *subject, m int, budget time.Duration) {
	best := abRun(r, s, m, []variant{
		{name: "nostats", tweak: func(c *lf.DecoderConfig) { c.NoStats = true }},
		{name: "instrumented", sameOutput: true},
	}, budget)
	r.put("obs.overhead_ratio", s.rt(best[0])/s.rt(best[1]))
}

// sicCost measures decoder.sic_ms: the shipped decode minus the same
// decode with cancellation off, per capture, from interleaved decodes.
func sicCost(r *report, s *subject, m int, budget time.Duration) {
	best := abRun(r, s, m, []variant{
		{name: "sic"},
		{name: "nosic", tweak: func(c *lf.DecoderConfig) { c.CancellationRounds = -1 }},
	}, budget)
	var d float64
	for i := range best[0] {
		d += best[0][i] - best[1][i]
	}
	r.put("decoder.sic_ms", 1e3*d/float64(m))
}

// sweepAndResidual measures the two single-knob A/B rows every SIC
// workload carries: ForceDenseSweep and ForceFullResidual against the
// shipped decode.
var sweepAndResidual = []variant{
	{name: "default"},
	{name: "dense_sweep", tweak: func(c *lf.DecoderConfig) { c.ForceDenseSweep = true }, sameOutput: true},
	{name: "full_residual", tweak: func(c *lf.DecoderConfig) { c.ForceFullResidual = true }, sameOutput: true},
}

func putSweepAndResidual(r *report, s *subject, best [][]float64) {
	r.put("decoder.default_rt", s.rt(best[0]))
	r.put("edgedetect.dense_sweep_rt", s.rt(best[1]))
	r.put("decoder.full_residual_rt", s.rt(best[2]))
}

// shapes measures every execution shape of one streaming decode on
// top of the shipped configuration, plus the sweep/residual knobs.
func shapes(r *report, s *subject, m int, budget time.Duration) error {
	workers := runtime.NumCPU()
	coord, stop, err := loopbackFleet(workers)
	if err != nil {
		return err
	}
	defer stop()
	vs := append([]variant{}, sweepAndResidual...)
	vs = append(vs,
		variant{name: "serial", tweak: func(c *lf.DecoderConfig) { c.Parallelism = 1 }, sameOutput: true},
		variant{name: "pipelined", tweak: func(c *lf.DecoderConfig) { c.PipelineParallelism = 2 }, sameOutput: true},
		variant{name: "sharded", tweak: func(c *lf.DecoderConfig) { c.ShardParallelism = workers }, sameOutput: true},
		variant{name: "dist", tweak: func(c *lf.DecoderConfig) {
			c.ShardParallelism = workers
			c.StripeRunner = coord.RunStripe
		}, sameOutput: true},
	)
	best := abRun(r, s, m, vs, budget)
	putSweepAndResidual(r, s, best)
	r.put("work.serial_rt", s.rt(best[3]))
	r.put("stage.pipelined_rt", s.rt(best[4]))
	r.put("shard.sharded_rt", s.rt(best[5]))
	r.put("dist.loopback_rt", s.rt(best[6]))
	return nil
}

// loopbackFleet starts an in-process dist coordinator with n loopback
// TCP workers. stop shuts the fleet down and waits for every worker.
func loopbackFleet(n int) (*dist.Coordinator, func(), error) {
	c, err := dist.NewCoordinator(dist.CoordinatorConfig{Addr: "127.0.0.1:0", LeaseTimeout: 500 * time.Millisecond})
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dist.RunWorker(ctx, dist.WorkerConfig{Addr: c.Addr(), Name: fmt.Sprintf("bench-w%d", i)})
		}(i)
	}
	stop := func() {
		cancel()
		c.Close()
		wg.Wait()
	}
	if !c.WaitWorkers(n, 5*time.Second) {
		stop()
		return nil, nil, fmt.Errorf("dist fleet of %d never connected", n)
	}
	return c, stop, nil
}

// inPath decodes the n pool entries round-robin with the shipped
// configuration, a span log and allocation accounting, and replays each
// through the layers, until budget has elapsed (at least minCaptures
// decodes). It fills the decoder's in-path metrics and every layer
// metric, and checks the replay against what the decode counted.
func inPath(r *report, s *subject, n, minCaptures int, budget time.Duration) error {
	var (
		ls                            layerStats
		allocs, allocMB               []float64
		pushMs, commitMs, flushMs     []float64
		recovered, dirty, roundSample float64
	)
	deadline := time.Now().Add(budget)
	captures, distinct := 0, 0
	for k := 0; k < minCaptures || time.Now().Before(deadline); k++ {
		i := k % n
		tr := &spanLog{}
		cfg := s.cfg(i)
		cfg.Tracer = tr
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.Attempted++
		_, _, st, err := s.decode(cfg, i)
		runtime.ReadMemStats(&after)
		if err != nil {
			r.Failed++
			r.check(false, "in-path capture %d: %v", i, err)
			continue
		}
		captures++
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		pushMs = append(pushMs, float64(st.Timings["stage.push_ns"].TotalNs)/1e6)
		commitMs = append(commitMs, float64(st.Timings["stage.commit_ns"].TotalNs)/1e6)
		flushMs = append(flushMs, float64(st.Timings["stage.flush_ns"].TotalNs)/1e6)

		samples, err := s.samples(i)
		if err != nil {
			return err
		}
		rc, err := replayLayers(layersOf(s.cfg(i)), samples, &ls)
		if err != nil {
			return fmt.Errorf("layer replay of capture %d: %w", i, err)
		}
		events := tr.take()
		r.check(int64(rc.edges) == st.Counter("edge.edges"),
			"capture %d: replay found %d edges, the decode counted %d", i, rc.edges, st.Counter("edge.edges"))
		regN, ok := registerEvent(events)
		r.check(ok && regN == int64(rc.registered),
			"capture %d: replay registered %d streams, the decode's register event says %d", i, rc.registered, regN)
		if k < n { // counts: first pass only, as in layerStats
			distinct++
			recovered += float64(st.Counter("sic.recovered"))
			dirty += float64(st.Counter("sic.dirty_samples"))
			roundSample += float64(st.Counter("sic.rounds")) * float64(len(samples))
			checkFirstPass(r, s, i, rc)
		}
	}
	if captures == 0 {
		return fmt.Errorf("no capture decoded")
	}
	r.put("decoder.allocs_per_capture", median(allocs))
	r.put("decoder.alloc_mb_per_capture", median(allocMB))
	r.put("decoder.push_ms", median(pushMs))
	r.put("decoder.commit_ms", median(commitMs))
	r.put("decoder.flush_ms", median(flushMs))
	r.put("decoder.sic_recovered", recovered/float64(max(distinct, 1)))
	if roundSample > 0 {
		r.put("decoder.sic_dirty_frac", dirty/roundSample)
	}
	ls.put(r, n)
	return nil
}

// checkFirstPass holds the replay's slot, collision and Viterbi counts
// to the decoder's own counters for the same capture decoded with
// cancellation off, so SIC rounds do not add to them. The replay copies
// decoder internals (alignSlack, minBlindPoints, the claim grouping,
// the collision source's derivation); a decoder that changes any of
// them fails the traced run instead of leaving the layer timings on a
// stale copy.
func checkFirstPass(r *report, s *subject, i int, rc replayCounts) {
	cfg := s.cfg(i)
	cfg.CancellationRounds = -1
	r.Attempted++
	_, _, st, err := s.decode(cfg, i)
	if err != nil {
		r.Failed++
		r.check(false, "first-pass decode of capture %d: %v", i, err)
		return
	}
	for _, c := range []struct {
		counter string
		replay  int
	}{
		{"walk.slots", rc.slots},
		{"viterbi.slots", rc.slots},
		{"collide.groups_pair", rc.pairs},
		{"collide.groups_joint", rc.joints},
		{"collide.pair_blind", rc.blind},
		{"collide.pair_anchored", rc.anchored},
	} {
		got := st.Counter(c.counter)
		r.check(got == int64(c.replay), "capture %d: replay counted %d for %s, the decode %d", i, c.replay, c.counter, got)
	}
}

// registerEvent returns the N of the decode's "register" span event.
func registerEvent(events []lf.SpanEvent) (int64, bool) {
	for _, ev := range events {
		if ev.Stage == "register" {
			return ev.N, true
		}
	}
	return 0, false
}

// budgetShares splits a traced run's budget by weight.
func budgetShares(budget time.Duration, weights ...float64) []time.Duration {
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make([]time.Duration, len(weights))
	for i, w := range weights {
		out[i] = time.Duration(float64(budget) * w / total)
	}
	return out
}
