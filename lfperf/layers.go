package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"lf"
	"lf/internal/cluster"
	"lf/internal/collide"
	"lf/internal/dsp"
	"lf/internal/edgedetect"
	"lf/internal/iq"
	"lf/internal/rng"
	"lf/internal/streams"
	"lf/internal/viterbi"
)

// The outside-in layer replay: one capture is run through the public
// functions of each layer in pipeline order — edge detection, the
// differential sweep kernels and NMS, stream registration and the slot
// walk, collision separation, Viterbi, capture IO — with every call
// timed from here. It mirrors the decoder's first pass, not its SIC
// rounds (decoder.sic_ms measures those by difference).

// Decoder constants the replay mirrors (internal/decoder). The traced
// run's fidelity check (checkFirstPass) fails when they go stale.
const (
	alignSlack     = 4  // slots walked past the nominal frame end
	minBlindPoints = 24 // recurrences before blind separation is tried
)

// layerConfig is what lf.NewDecoder derives from a DecoderConfig for
// the layers the replay calls.
type layerConfig struct {
	edge    edgedetect.Config
	calib   int64
	streams streams.Config
	payload func(rate float64) int
	seed    int64
	blind   bool // hybrid or blind separation may try the blind path
	window  int  // Viterbi window (0 = default)
}

// replayCounts is what the replay of one capture counted, for the
// fidelity check against the decoder's own counters.
type replayCounts struct {
	edges, registered, slots int
	pairs, joints            int // collision groups by arity
	blind, anchored          int // pair groups by how they were separated
}

func layersOf(cfg lf.DecoderConfig) layerConfig {
	sc := streams.DefaultConfig(cfg.SampleRate, cfg.Rates)
	sc.Registration = cfg.Registration
	if cfg.StartWindowSeconds > 0 {
		sc.MaxStart = int64(cfg.StartWindowSeconds * cfg.SampleRate)
	}
	ec := edgedetect.DefaultConfig()
	ec.DenseSweep = cfg.ForceDenseSweep
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return layerConfig{edge: ec, calib: cfg.CalibSamples, streams: sc, payload: cfg.PayloadBits,
		seed: seed, blind: cfg.Separation != lf.SeparationAnchored, window: cfg.ViterbiWindow}
}

// layerStats collects per-capture layer figures; put reports the
// medians of rates and the means of counts. Counts are averaged over
// the first pass through the pool only, so they repeat exactly from run
// to run however many decodes the time budget allowed.
type layerStats struct {
	edgeNs, edges           []float64
	sweepDense, sweepSparse []float64
	suppressNs              []float64
	registerMs, registered  []float64
	walkNs, slots           []float64
	points, separateMs      []float64
	viterbiNs               []float64
	readNs                  []float64
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func (ls *layerStats) put(r *report, pool int) {
	count := func(xs []float64) float64 { return mean(xs[:min(len(xs), pool)]) }
	r.put("edgedetect.ns_per_sample", median(ls.edgeNs))
	r.put("edgedetect.edges", count(ls.edges))
	r.put("dsp.sweep_dense_ns_per_sample", median(ls.sweepDense))
	r.put("dsp.sweep_sparse_ns_per_sample", median(ls.sweepSparse))
	r.put("dsp.suppress_ns_per_peak", median(ls.suppressNs))
	r.put("streams.register_ms", median(ls.registerMs))
	r.put("streams.registered", count(ls.registered))
	r.put("streams.walk_ns_per_slot", median(ls.walkNs))
	r.put("streams.slots", count(ls.slots))
	r.put("collide.points", count(ls.points))
	r.put("collide.separate_ms", median(ls.separateMs))
	r.put("viterbi.ns_per_slot", median(ls.viterbiNs))
	r.put("iq.read_ns_per_sample", median(ls.readNs))
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// replayLayers runs samples through every layer and returns what it
// counted.
func replayLayers(lc layerConfig, samples []complex128, ls *layerStats) (replayCounts, error) {
	var rc replayCounts
	if err := replayIQ(samples, ls); err != nil {
		return rc, err
	}

	start := time.Now()
	det, err := edgedetect.NewStream(edgedetect.StreamConfig{Config: lc.edge, CalibSamples: lc.calib})
	if err != nil {
		return rc, err
	}
	for lo := 0; lo < len(samples); lo += blockSamples {
		if err := det.Push(samples[lo:min(lo+blockSamples, len(samples))]); err != nil {
			return rc, err
		}
	}
	if err := det.Close(); err != nil {
		return rc, err
	}
	ls.edgeNs = append(ls.edgeNs, nsPer(time.Since(start), len(samples)))
	edges := det.Edges()
	rc.edges = len(edges)
	ls.edges = append(ls.edges, float64(len(edges)))

	sweepKernels(lc.edge, samples, det.Threshold(), ls)

	start = time.Now()
	sts, err := streams.Register(edges, lc.streams, lc.payload)
	if err != nil {
		return rc, err
	}
	ls.registerMs = append(ls.registerMs, ms(time.Since(start)))
	rc.registered = len(sts)
	ls.registered = append(ls.registered, float64(len(sts)))

	walked := make([][]streams.SlotObs, len(sts))
	start = time.Now()
	for i, st := range sts {
		walked[i] = streams.Walk(st, det, lc.streams, streams.FrameSlots(lc.streams, lc.payload(st.Rate))+alignSlack)
		rc.slots += len(walked[i])
	}
	ls.walkNs = append(ls.walkNs, nsPer(time.Since(start), rc.slots))
	ls.slots = append(ls.slots, float64(rc.slots))

	separate(lc, sts, walked, &rc, ls)
	decodeSlots(lc.window, det.NoiseFloor(), sts, walked, ls)
	return rc, nil
}

// replayIQ times lf.ReadCapture over the capture's LFIQ bytes.
func replayIQ(samples []complex128, ls *layerStats) error {
	var buf bytes.Buffer
	if _, err := (&iq.Capture{SampleRate: 25e6, Samples: samples}).WriteTo(&buf); err != nil {
		return err
	}
	start := time.Now()
	c, err := lf.ReadCapture(&buf)
	if err != nil {
		return err
	}
	ls.readNs = append(ls.readNs, nsPer(time.Since(start), len(c.Samples)))
	return nil
}

// sweepKernels times the dense and coarse-to-fine differential sweeps
// over the whole capture's interior, and greedy NMS over the raw local
// maxima of the dense sweep.
func sweepKernels(ec edgedetect.Config, samples []complex128, threshold float64, ls *layerStats) {
	margin := int(ec.Gap + ec.Win)
	n := len(samples)
	if n <= 2*margin {
		return
	}
	p := dsp.NewPrefixSoA(samples)
	defer p.Release()
	dense := make([]float64, n-2*margin)
	start := time.Now()
	dsp.DiffSweep(p.Re, p.Im, margin, ec.Gap, ec.Win, dense)
	ls.sweepDense = append(ls.sweepDense, nsPer(time.Since(start), len(dense)))

	sparse := make([]float64, len(dense))
	start = time.Now()
	dsp.DiffSweepSparse(p.Re, p.Im, margin, ec.Gap, ec.Win, ec.Gap+2, threshold, margin, n-margin, sparse)
	ls.sweepSparse = append(ls.sweepSparse, nsPer(time.Since(start), len(sparse)))

	var raw []dsp.Peak
	for i, v := range dense {
		if v >= threshold && (i == 0 || dense[i-1] < v) && (i+1 == len(dense) || dense[i+1] <= v) {
			raw = append(raw, dsp.Peak{Pos: int64(i + margin), Value: v})
		}
	}
	if len(raw) > 0 {
		start = time.Now()
		dsp.Suppress(raw, ec.MinSpacing)
		ls.suppressNs = append(ls.suppressNs, nsPer(time.Since(start), len(raw)))
	}
}

// separate groups every edge two or more walked slots claimed by the
// claiming streams, as the decoder's collision stage does, then times
// the collide calls: blind (k-means + parallelogram) or anchored
// separation per recurring pair, joint classification per edge of three
// or more claims. It counts the groups and the pair dispositions the
// decoder's collide.* counters count.
func separate(lc layerConfig, sts []*streams.Stream, walked [][]streams.SlotObs, rc *replayCounts, ls *layerStats) {
	type claim struct{ edge, stream, slot int }
	var all []claim
	for si, obs := range walked {
		for ki, o := range obs {
			if o.EdgeIdx >= 0 {
				all = append(all, claim{o.EdgeIdx, si, ki})
			}
		}
	}
	slices.SortFunc(all, func(a, b claim) int {
		if a.edge != b.edge {
			return a.edge - b.edge
		}
		if a.stream != b.stream {
			return a.stream - b.stream
		}
		return a.slot - b.slot
	})
	type group struct {
		streams []int        // one per claim, ascending
		points  []complex128 // per edge: the first claim's observation
	}
	groups := map[string]*group{}
	var keys []string
	for lo := 0; lo < len(all); {
		hi := lo + 1
		for hi < len(all) && all[hi].edge == all[lo].edge {
			hi++
		}
		cl := all[lo:hi]
		lo = hi
		if len(cl) < 2 {
			continue
		}
		var key []byte
		for _, c := range cl {
			key = binary.BigEndian.AppendUint32(key, uint32(c.stream))
		}
		g, ok := groups[string(key)]
		if !ok {
			g = &group{}
			for _, c := range cl {
				g.streams = append(g.streams, c.stream)
			}
			groups[string(key)] = g
			keys = append(keys, string(key))
		}
		g.points = append(g.points, walked[cl[0].stream][cl[0].slot].Obs)
	}
	slices.Sort(keys)

	// The decoder draws one merged-pair split source per stream from its
	// root source before the collision source.
	root := rng.New(lc.seed)
	for i := range sts {
		root.Split(fmt.Sprintf("split/%d", i))
	}
	src := root.Split("collisions")
	warm := &cluster.Warm{}
	points := 0
	start := time.Now()
	for _, k := range keys {
		g := groups[k]
		pts := g.points
		points += len(pts)
		if len(g.streams) > 2 {
			rc.joints++
			es := make([]complex128, len(g.streams))
			for i, s := range g.streams {
				es[i] = sts[s].E
			}
			for _, d := range pts {
				collide.ClassifyJoint(d, es)
			}
			continue
		}
		rc.pairs++
		if g.streams[0] == g.streams[1] {
			continue // one stream claiming an edge twice: nothing to separate
		}
		if lc.blind && len(pts) >= minBlindPoints {
			if _, err := collide.SeparateBlindWarm(pts, src, warm); err == nil {
				rc.blind++
				continue
			}
		}
		collide.SeparateAnchored(pts, sts[g.streams[0]].E, sts[g.streams[1]].E)
		rc.anchored++
	}
	ls.separateMs = append(ls.separateMs, ms(time.Since(start)))
	ls.points = append(ls.points, float64(points))
}

// decodeSlots times the windowed Viterbi over every walked stream.
func decodeSlots(window int, floor float64, sts []*streams.Stream, walked [][]streams.SlotObs, ls *layerStats) {
	// The decoder's observation variance: |d| under noise is Rayleigh
	// with median ≈ 0.8326·σ.
	s := floor / 0.8326
	sigma2 := max(s*s, 1e-18)
	ems := make([][]viterbi.Emission, len(sts))
	slots := 0
	for i, obs := range walked {
		for _, o := range obs {
			s2 := sigma2
			if o.Kind == streams.MatchForeign {
				s2 *= 4
			}
			ems[i] = append(ems[i], viterbi.Emission{Obs: o.Obs, E: sts[i].E, Sigma2: s2})
		}
		slots += len(obs)
	}
	start := time.Now()
	for _, em := range ems {
		viterbi.NewDecoder(0.5, viterbi.Down).DecodeWindowedMargin(em, window)
	}
	ls.viterbiNs = append(ls.viterbiNs, nsPer(time.Since(start), slots))
}
