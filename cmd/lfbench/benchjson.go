package main

// Machine-readable micro-benchmarks (-benchjson FILE). The suite
// measures the hot pipeline stages with testing.Benchmark so the
// numbers match `go test -bench` semantics (ns/op, B/op, allocs/op),
// sweeps the worker-pool stages across fixed worker counts, and
// profiles the streaming decoder's bounded-memory pipeline (sustained
// samples/sec, peak retained window, first-frame latency). It emits
// one JSON document that CI can diff across commits without scraping
// table output; Makefile's `benchguard` target compares the committed
// document against a fresh run.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"lf"
	"lf/internal/edgedetect"
	"lf/internal/experiment"
	"lf/internal/gate"
)

// streamBenchBlock matches the SDR DMA buffer size the streaming
// pipeline is tuned for (see cmd/lfsim -block).
const streamBenchBlock = 8192

// streamBenchCalib bounds threshold calibration so detection runs
// incrementally from mid-capture instead of deferring to Flush.
const streamBenchCalib = 32768

// workerSweep is the worker-count ladder every pool stage is measured
// at: 1, 2, 4, ... capped at the machine's core count. Rungs beyond
// NumCPU would time-slice goroutines over the same cores and report
// phantom "parallel" numbers no other machine could compare against
// (the committed baseline once showed workers=2/4 slower than 1 for
// exactly that reason); the report's num_cpu/gomaxprocs fields let
// -benchguard refuse cross-machine comparisons outright.
func workerSweep() []int {
	sweep := []int{1}
	for w := 2; w <= runtime.NumCPU(); w *= 2 {
		sweep = append(sweep, w)
	}
	return sweep
}

// benchResult is one benchmark's measurement.
type benchResult struct {
	Name string `json:"name"`
	// Workers is the worker-pool size the stage ran at (0 for stages
	// with no parallelism knob).
	Workers     int     `json:"workers,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// GoodputBps is the aggregate decoded goodput of the benchmarked
	// epoch (decode benchmarks only; 0 elsewhere).
	GoodputBps float64 `json:"goodput_bps,omitempty"`
}

// streamingMetrics characterizes the bounded-memory streaming decode
// of the benchmark epoch.
type streamingMetrics struct {
	BlockSamples   int `json:"block_samples"`
	CaptureSamples int `json:"capture_samples"`
	// SamplesPerSecSustained is capture samples over the measured
	// wall-clock time of one full push+flush pass (from the streaming
	// benchmark's ns/op, so it includes every pipeline stage).
	SamplesPerSecSustained float64 `json:"samples_per_sec_sustained"`
	// RealtimeFactor is sustained throughput over the capture's own
	// sample rate: >1 means the decoder keeps up with a live SDR feed.
	// Gated by -benchguard: a >15% drop against the committed baseline
	// fails the guard (skipped, like every baseline comparison, when
	// the machine is not comparable).
	RealtimeFactor float64 `json:"realtime_factor"`
	// PeakRetainedBytes is the high-water mark of RetainedBytes across
	// the push sequence; CaptureBytes is what batch decode would hold.
	PeakRetainedBytes int64 `json:"peak_retained_bytes"`
	CaptureBytes      int64 `json:"capture_bytes"`
	// FirstFrameSeconds is the capture-time position (seconds of signal
	// pushed) at which the first decoded frame was emitted, against the
	// full CaptureSeconds a batch decoder would wait for.
	FirstFrameSeconds float64 `json:"first_frame_seconds"`
	CaptureSeconds    float64 `json:"capture_seconds"`
	// GatewayFramesPerSec is the frame throughput of a loopback
	// gateway run: gatewayBenchReaders concurrent readers streaming the
	// bench capture over TCP through per-session decoders on the shared
	// worker fleet (best of gatewayBenchPasses). Gated by -benchguard
	// like RealtimeFactor: a >15% drop against the committed baseline
	// fails the guard.
	GatewayFramesPerSec float64 `json:"gateway_frames_per_sec,omitempty"`
}

// sicMetrics characterizes the incremental-SIC residual decode on the
// fixed slotted bench capture (experiment.SICBenchEpoch): how much of
// the listening window one cancellation round marked dirty, what the
// round cost against a from-scratch re-decode, and the carry-over
// counters the dirty-span mechanics are built on (DESIGN.md §17).
type sicMetrics struct {
	CaptureSamples int `json:"capture_samples"`
	// DirtySamples is the sample count the cancellation round re-swept
	// (obs counter sic.dirty_samples); CarriedStreams and
	// RecoveredStreams are the corresponding sic.* counters from the
	// same instrumented decode.
	DirtySamples     int64 `json:"dirty_samples"`
	CarriedStreams   int64 `json:"carried_streams"`
	RecoveredStreams int64 `json:"recovered_streams"`
	// FirstPassNs is a cancellation-disabled decode of the capture —
	// exactly what re-running detection over the whole window costs.
	// IncrementalNs and FullResidualNs are one-round decodes in
	// dirty-span and ForceFullResidual mechanics respectively (each the
	// minimum over interleaved passes; the two are byte-identical by
	// contract and checked on every measurement).
	FirstPassNs    int64 `json:"first_pass_ns"`
	IncrementalNs  int64 `json:"incremental_round_ns"`
	FullResidualNs int64 `json:"full_round_ns"`
	// RedecodeFraction is (IncrementalNs − FirstPassNs) / FirstPassNs:
	// the marginal cost of the residual pass as a fraction of a full
	// re-decode. Gated ≤ sicRedecodeCap by -benchguard within the run,
	// plus a regression comparison against the committed baseline.
	RedecodeFraction float64 `json:"sic_redecode_fraction"`
}

// benchReport is the top-level JSON document.
type benchReport struct {
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS is pinned to NumCPU for the suite so the parallel
	// rungs of the worker sweep measure real concurrency.
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       int64             `json:"seed"`
	Benchmarks []benchResult     `json:"benchmarks"`
	Streaming  *streamingMetrics `json:"streaming"`
	// SIC is the incremental-cancellation cost profile on the slotted
	// bench capture.
	SIC *sicMetrics `json:"sic,omitempty"`
	// DecodeSpeedup is serial decode ns/op over the best swept decode
	// ns/op on this machine. Meaningful only when NumCPU > 1.
	DecodeSpeedup float64 `json:"decode_speedup"`
	// PipelineStats is one instrumented streaming decode's metric
	// snapshot — per-stage counters plus wall-time breakdown — so a
	// committed report documents where the pipeline spends its time.
	PipelineStats *lf.Stats `json:"pipeline_stats,omitempty"`
	// StatsOverheadRatio is decode/streaming ns/op over
	// decode/streaming/nostats ns/op: the wall-clock cost of the
	// always-on instrumentation. Gated < 1.03 by -benchguard.
	StatsOverheadRatio float64 `json:"stats_overhead_ratio,omitempty"`
}

// benchEpoch builds the fixed 8-tag epoch every decode benchmark runs
// against.
func benchEpoch(seed int64) (*lf.Network, *lf.Epoch, error) {
	net, err := lf.NewNetwork(lf.NetworkConfig{
		NumTags:        8,
		PayloadSeconds: 2e-3,
		Seed:           seed,
	})
	if err != nil {
		return nil, nil, err
	}
	ep, err := net.RunEpoch()
	if err != nil {
		return nil, nil, err
	}
	return net, ep, nil
}

// measure runs fn under testing.Benchmark with allocation tracking.
func measure(name string, workers int, fn func(b *testing.B)) benchResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return benchResult{
		Name:        name,
		Workers:     workers,
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// profileStreaming runs one instrumented streaming pass (peak retained
// window, first-frame position), then fills in throughput from the
// streaming benchmark's ns/op.
func profileStreaming(net *lf.Network, ep *lf.Epoch) (*streamingMetrics, benchResult, error) {
	m := &streamingMetrics{
		BlockSamples:   streamBenchBlock,
		CaptureSamples: ep.Capture.Len(),
		CaptureBytes:   int64(ep.Capture.Len()) * 16,
		CaptureSeconds: float64(ep.Capture.Len()) / ep.Capture.SampleRate,
	}

	cfg := net.DecoderConfig()
	cfg.CalibSamples = streamBenchCalib
	var pushed int64
	firstFrame := int64(-1)
	cfg.OnFrame = func(*lf.StreamResult) {
		if firstFrame < 0 {
			firstFrame = pushed
		}
	}
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		return nil, benchResult{}, err
	}
	sd, err := dec.NewStream()
	if err != nil {
		return nil, benchResult{}, err
	}
	err = ep.Blocks(streamBenchBlock, func(block []complex128) error {
		if e := sd.Push(block); e != nil {
			return e
		}
		pushed += int64(len(block))
		if r := sd.RetainedBytes(); r > m.PeakRetainedBytes {
			m.PeakRetainedBytes = r
		}
		return nil
	})
	if err != nil {
		return nil, benchResult{}, err
	}
	if _, err := sd.Flush(); err != nil {
		return nil, benchResult{}, err
	}
	if firstFrame >= 0 {
		m.FirstFrameSeconds = float64(firstFrame) / ep.Capture.SampleRate
	}

	// Throughput from the benchmark loop so it reflects steady state
	// (pooled buffers warm) rather than a cold first pass.
	bcfg := net.DecoderConfig()
	bcfg.CalibSamples = streamBenchCalib
	bdec, err := lf.NewDecoder(bcfg)
	if err != nil {
		return nil, benchResult{}, err
	}
	r := measure("decode/streaming", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := bdec.NewStream()
			if err != nil {
				b.Fatal(err)
			}
			if err := ep.Blocks(streamBenchBlock, s.Push); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if r.NsPerOp > 0 {
		m.SamplesPerSecSustained = float64(m.CaptureSamples) / (r.NsPerOp / 1e9)
		m.RealtimeFactor = m.SamplesPerSecSustained / ep.Capture.SampleRate
	}
	return m, r, nil
}

// profileSIC measures the incremental-SIC redecode fraction on the
// fixed slotted bench capture. One cancellation round; the timing
// passes are interleaved min-of-rounds (MeasureSIC), which also
// re-checks the incremental/ForceFullResidual byte-identity contract.
func profileSIC(seed int64) (*sicMetrics, error) {
	ep, cfg, err := experiment.SICBenchEpoch(seed)
	if err != nil {
		return nil, err
	}
	const sicBenchPasses = 6
	t, snap, err := experiment.MeasureSIC(ep, cfg, 1, sicBenchPasses)
	if err != nil {
		return nil, err
	}
	return &sicMetrics{
		CaptureSamples:   ep.Capture.Len(),
		DirtySamples:     snap.Counter("sic.dirty_samples"),
		CarriedStreams:   snap.Counter("sic.carried_streams"),
		RecoveredStreams: snap.Counter("sic.recovered"),
		FirstPassNs:      t.Off.Nanoseconds(),
		IncrementalNs:    t.Incremental.Nanoseconds(),
		FullResidualNs:   t.Full.Nanoseconds(),
		RedecodeFraction: t.RedecodeFraction(),
	}, nil
}

// pairedOverheadRatio measures the instrumented-vs-NoStats streaming
// decode cost ratio with alternating single passes and a min-of-rounds
// estimator. Interleaving cancels slow drift (thermal, frequency
// scaling) that would bias two back-to-back benchmark runs in one
// direction, and the per-variant minimum over rounds is the classic
// low-noise estimate of a deterministic workload's true cost — the
// decode does identical work every pass, so every excess over the
// minimum is scheduler interference, not signal.
func pairedOverheadRatio(ep *lf.Epoch, instrumented, noStats *lf.Decoder) (float64, error) {
	onePass := func(dec *lf.Decoder) (time.Duration, error) {
		s, err := dec.NewStream()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := ep.Blocks(streamBenchBlock, s.Push); err != nil {
			return 0, err
		}
		if _, err := s.Flush(); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	// One untimed warmup each so pooled buffers are hot for both.
	if _, err := onePass(instrumented); err != nil {
		return 0, err
	}
	if _, err := onePass(noStats); err != nil {
		return 0, err
	}
	const rounds = 16
	runtime.GC() // start every round sequence from a settled heap
	minI, minN := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		order := []*lf.Decoder{instrumented, noStats}
		if r%2 == 1 { // alternate which variant runs first each round
			order[0], order[1] = order[1], order[0]
		}
		for _, dec := range order {
			d, err := onePass(dec)
			if err != nil {
				return 0, err
			}
			if dec == instrumented && d < minI {
				minI = d
			}
			if dec == noStats && d < minN {
				minN = d
			}
		}
	}
	if minN <= 0 {
		return 0, nil
	}
	return float64(minI) / float64(minN), nil
}

// benchBaseline is the on-disk baseline document: one recorded report
// per machine shape, keyed by (num_cpu, gomaxprocs). A single file can
// then hold the 1-core CI section and a multi-core workstation section
// side by side, and -benchguard compares against the section matching
// the machine it runs on instead of warning-and-skipping whenever the
// committed baseline came from a different box.
type benchBaseline struct {
	Sections []*benchReport `json:"sections"`
}

// loadBaseline parses a baseline document, accepting both the sectioned
// format and the legacy single-report layout (treated as a one-section
// document keyed by its own num_cpu/gomaxprocs).
func loadBaseline(data []byte) (*benchBaseline, error) {
	var bb benchBaseline
	if err := json.Unmarshal(data, &bb); err == nil && len(bb.Sections) > 0 {
		return &bb, nil
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.NumCPU == 0 {
		return nil, fmt.Errorf("baseline has neither sections nor a legacy report")
	}
	return &benchBaseline{Sections: []*benchReport{&r}}, nil
}

// section returns the report recorded on a machine with the given
// shape, or nil.
func (bb *benchBaseline) section(numCPU, gomaxprocs int) *benchReport {
	for _, s := range bb.Sections {
		if s.NumCPU == numCPU && s.GOMAXPROCS == gomaxprocs {
			return s
		}
	}
	return nil
}

// upsert replaces the section matching report's machine shape, or
// appends one, keeping sections ordered by core count for stable
// diffs.
func (bb *benchBaseline) upsert(r *benchReport) {
	for i, s := range bb.Sections {
		if s.NumCPU == r.NumCPU && s.GOMAXPROCS == r.GOMAXPROCS {
			bb.Sections[i] = r
			return
		}
	}
	bb.Sections = append(bb.Sections, r)
	sort.Slice(bb.Sections, func(i, j int) bool {
		a, b := bb.Sections[i], bb.Sections[j]
		if a.NumCPU != b.NumCPU {
			return a.NumCPU < b.NumCPU
		}
		return a.GOMAXPROCS < b.GOMAXPROCS
	})
}

// writeBenchJSON runs the suite and upserts this machine's section into
// the baseline document at path, preserving sections recorded on other
// machine shapes.
func writeBenchJSON(path string, seed int64) error {
	report, err := buildBenchReport(seed)
	if err != nil {
		return err
	}
	bb := &benchBaseline{}
	if prev, err := os.ReadFile(path); err == nil {
		if loaded, lerr := loadBaseline(prev); lerr == nil {
			bb = loaded
		} else {
			fmt.Fprintf(os.Stderr, "lfbench: %s is not a baseline document (%v); rewriting it\n", path, lerr)
		}
	}
	bb.upsert(report)
	data, err := json.MarshalIndent(bb, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// buildBenchReport runs the full suite and returns the report.
func buildBenchReport(seed int64) (*benchReport, error) {
	// Pin GOMAXPROCS to the machine's core count so the worker sweep's
	// parallel rungs measure real concurrency even when the binary
	// inherits a restricted setting.
	runtime.GOMAXPROCS(runtime.NumCPU())

	net, ep, err := benchEpoch(seed)
	if err != nil {
		return nil, err
	}

	// Decoded once outside the timer to record the epoch's goodput.
	decodeAt := func(parallelism int) (*lf.Result, error) {
		cfg := net.DecoderConfig()
		cfg.Parallelism = parallelism
		dec, err := lf.NewDecoder(cfg)
		if err != nil {
			return nil, err
		}
		return dec.Decode(ep)
	}
	res, err := decodeAt(1)
	if err != nil {
		return nil, err
	}
	goodput := lf.ScoreEpoch(ep, res).AggregateBps

	report := benchReport{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}

	var serialNs, bestNs float64
	for _, w := range workerSweep() {
		w := w
		r := measure("decode", w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := decodeAt(w); err != nil {
					b.Fatal(err)
				}
			}
		})
		r.GoodputBps = goodput
		report.Benchmarks = append(report.Benchmarks, r)
		if w == 1 {
			serialNs = r.NsPerOp
		}
		if bestNs == 0 || r.NsPerOp < bestNs {
			bestNs = r.NsPerOp
		}
	}
	if bestNs > 0 {
		report.DecodeSpeedup = serialNs / bestNs
	}

	for _, w := range workerSweep() {
		cfg := edgedetect.DefaultConfig()
		cfg.Parallelism = w
		report.Benchmarks = append(report.Benchmarks, measure("edgedetect", w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				det, err := edgedetect.New(ep.Capture, cfg)
				if err != nil {
					b.Fatal(err)
				}
				det.Release()
			}
		}))
	}

	streaming, streamBench, err := profileStreaming(net, ep)
	if err != nil {
		return nil, err
	}
	report.Streaming = streaming
	report.Benchmarks = append(report.Benchmarks, streamBench)

	gwFPS, err := profileGateway(net, ep)
	if err != nil {
		return nil, err
	}
	streaming.GatewayFramesPerSec = gwFPS

	sic, err := profileSIC(seed)
	if err != nil {
		return nil, err
	}
	report.SIC = sic

	// A/B instrumented vs uninstrumented streaming decode. The decode
	// itself is bit-identical; the ratio is the pure metrics cost and
	// -benchguard fails when it exceeds 3%.
	ncfg := net.DecoderConfig()
	ncfg.CalibSamples = streamBenchCalib
	ncfg.NoStats = true
	ndec, err := lf.NewDecoder(ncfg)
	if err != nil {
		return nil, err
	}
	noStats := measure("decode/streaming/nostats", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := ndec.NewStream()
			if err != nil {
				b.Fatal(err)
			}
			if err := ep.Blocks(streamBenchBlock, s.Push); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	})
	report.Benchmarks = append(report.Benchmarks, noStats)
	// The gated ratio comes from a paired interleaved measurement, not
	// from dividing the two independent benchmark runs above: two
	// separate testing.Benchmark invocations carry uncorrelated
	// scheduler/frequency noise that swamps a few-percent signal.
	icfg := net.DecoderConfig()
	icfg.CalibSamples = streamBenchCalib
	idec, err := lf.NewDecoder(icfg)
	if err != nil {
		return nil, err
	}
	ratio, err := pairedOverheadRatio(ep, idec, ndec)
	if err != nil {
		return nil, err
	}
	report.StatsOverheadRatio = ratio

	// One instrumented pass for the report's stage breakdown.
	scfg := net.DecoderConfig()
	scfg.CalibSamples = streamBenchCalib
	sdec, err := lf.NewDecoder(scfg)
	if err != nil {
		return nil, err
	}
	ss, err := sdec.NewStream()
	if err != nil {
		return nil, err
	}
	if err := ep.Blocks(streamBenchBlock, ss.Push); err != nil {
		return nil, err
	}
	if _, err := ss.Flush(); err != nil {
		return nil, err
	}
	report.PipelineStats = ss.Stats()

	report.Benchmarks = append(report.Benchmarks, measure("synthesize", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := net.RunEpoch(); err != nil {
				b.Fatal(err)
			}
		}
	}))

	report.Benchmarks = append(report.Benchmarks, measure("capture/roundtrip", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf writeCounter
			if _, err := ep.Capture.WriteTo(&buf); err != nil {
				b.Fatal(err)
			}
		}
	}))

	return &report, nil
}

// gatewayBenchReaders is the loopback fleet size the gateway
// throughput profile streams with; gatewayBenchPasses the number of
// full round trips measured (the best is reported, matching the
// minimum-over-passes convention of the SIC timings — a gateway round
// trip is tens of milliseconds of wall clock, so scheduler noise on a
// loaded box moves single passes by double-digit percentages).
const (
	gatewayBenchReaders = 4
	gatewayBenchPasses  = 5
)

// profileGateway measures end-to-end gateway frame throughput: a
// loopback gateway with gatewayBenchReaders concurrent readers all
// streaming the bench capture over TCP, each decoded in its own
// session on the shared worker fleet. Reported as frames/sec over the
// wall-clock of the whole round trip (connect through final flush), so
// it covers wire framing, admission, decode, and sink publication.
func profileGateway(net *lf.Network, ep *lf.Epoch) (float64, error) {
	dcfg := net.DecoderConfig()
	dcfg.CalibSamples = streamBenchCalib
	dcfg.CancellationRounds = -1
	readers := map[string]gate.LoopbackReader{}
	for i := 0; i < gatewayBenchReaders; i++ {
		readers[fmt.Sprintf("bench-%d", i)] = gate.LoopbackReader{
			Samples:    ep.Capture.Samples,
			SampleRate: ep.Capture.SampleRate,
			Nonce:      uint64(i + 1),
			Block:      streamBenchBlock,
		}
	}
	best := 0.0
	for pass := 0; pass < gatewayBenchPasses; pass++ {
		res, err := gate.Loopback(context.Background(), gate.Config{Decoder: dcfg}, readers)
		if err != nil {
			return 0, err
		}
		if res.FramesTotal == 0 {
			return 0, fmt.Errorf("gateway profile decoded no frames")
		}
		if res.FramesPerSec > best {
			best = res.FramesPerSec
		}
	}
	return best, nil
}

// writeCounter discards writes while counting them, so serialization
// benchmarks measure marshalling, not disk.
type writeCounter struct{ n int64 }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
