package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"lf"
	"lf/internal/tag"
)

const (
	// blockSamples is the push block (and gateway wire chunk) size.
	blockSamples = 8192
	// calibSamples bounds threshold calibration so streaming decodes
	// emit frames before end of capture.
	calibSamples = 32768
	// setupReps is how many times set-up runs per benchmark run.
	setupReps = 5
)

// endToEnd accumulates the untraced run's user-visible figures. The
// timed loops decode the pool round-robin; realtime_factor is every
// capture-second they decoded over their total elapsed wall time, and
// the latency percentiles are taken over every frame and chunk they
// observed, so GC, scheduling and contention costs all count.
type endToEnd struct {
	setup  []float64     // seconds per set-up repetition
	capSec float64       // capture-seconds decoded in the timed loops
	wall   time.Duration // elapsed wall time of the timed loops
	acks   []float64     // ms per handed-in chunk
	lat    []float64     // ms per emitted frame

	retained int64 // high-water retained bytes
	// pool scores the first decode of each timed pool entry; corpus
	// scores the fixed quality corpus the quality metrics report.
	pool, corpus quality
}

// timed runs one timed loop and adds its elapsed wall time.
func (e *endToEnd) timed(loop func()) {
	start := time.Now()
	loop()
	e.wall += time.Since(start)
}

// observe records one decode of capSec capture-seconds.
func (e *endToEnd) observe(capSec float64, acks, lat []float64) {
	e.capSec += capSec
	e.acks = append(e.acks, acks...)
	e.lat = append(e.lat, lat...)
}

func (e *endToEnd) addRetained(n int64) { e.retained = max(e.retained, n) }

// realtime is capture-seconds decoded per wall-second at the 25 Msps
// reader rate. Concurrent readers decode within the same wall time, so
// on the gateway it is the sum over readers.
func (e *endToEnd) realtime() float64 { return e.capSec / e.wall.Seconds() }

// fill writes every end-to-end metric into r.
func (e *endToEnd) fill(r *report) {
	lat, acks := e.lat, e.acks
	r.set("realtime_factor", "ratio", e.realtime())
	r.set("frame_latency_p50_ms", "ms", quantile(lat, 0.50))
	r.set("frame_latency_p99_ms", "ms", quantile(lat, 0.99))
	r.set("chunk_ack_p50_ms", "ms", quantile(acks, 0.50))
	r.set("chunk_ack_p99_ms", "ms", quantile(acks, 0.99))
	r.set("goodput_kbps", "kbit/s", float64(e.corpus.correctBits)/e.corpus.seconds/1e3)
	r.set("ber", "fraction", e.corpus.ber())
	r.set("frame_error_rate", "fraction", e.corpus.fer())
	r.set("peak_retained_mb", "MB", float64(e.retained)/1e6)
	r.set("setup_s", "s", median(e.setup))
	r.samples = fmt.Sprintf("%d frames, %d chunks, %.3f capture-s in %.1f s; quality over %d corpus captures",
		len(lat), len(acks), e.capSec, e.wall.Seconds(), e.corpus.captures)
}

// corpusSeed seeds the quality corpus. It does not depend on -seed, so
// the quality metrics are exact functions of the code under test and
// any change in decode accuracy shows at full resolution.
const corpusSeed = 1

// quality scores decoded captures against the simulator's ground truth.
type quality struct {
	correctBits, totalBits int64
	frames, badFrames      int64 // transmitted frames; those not delivered bit-exact
	seconds                float64
	captures               int
}

func (q *quality) add(ep *lf.Epoch, res *lf.Result) {
	s := lf.ScoreEpoch(ep, res)
	q.correctBits += int64(s.CorrectBits)
	q.totalBits += int64(s.TotalBits)
	q.seconds += s.EpochSeconds
	q.captures++
	for _, t := range s.PerTag {
		q.frames++
		if !t.Registered || t.BitErrors > 0 {
			q.badFrames++
		}
	}
}

func (q *quality) ber() float64 { return float64(q.totalBits-q.correctBits) / float64(q.totalBits) }
func (q *quality) fer() float64 { return float64(q.badFrames) / float64(q.frames) }

// check holds the scored decodes to the ceilings a correct decoder
// stays under on this workload.
func (q *quality) check(r *report, what string, maxBER, maxFER float64) {
	r.check(q.captures > 0, "%s: nothing scored", what)
	r.check(q.ber() <= maxBER, "%s: BER %.4f above %.4f", what, q.ber(), maxBER)
	r.check(q.fer() <= maxFER, "%s: frame error rate %.4f above %.4f", what, q.fer(), maxFER)
}

// checkQuality applies the workload's ceilings to both scored sets.
func (e *endToEnd) checkQuality(r *report, maxBER, maxFER float64) {
	e.pool.check(r, "pool", maxBER, maxFER)
	e.corpus.check(r, "corpus", maxBER, maxFER)
}

// frameClock timestamps each emitted frame against the moment the
// sample that ends it was handed to the decoder: the start of the push
// carrying that sample, or the start of Flush for frames that end past
// the capture. The gateway's sink calls it from gateway goroutines.
type frameClock struct {
	mu       sync.Mutex
	pushes   []time.Time // start of each push of the current capture
	endStart time.Time
	block    int // samples per push
	lat      []float64
}

func (c *frameClock) reset(block int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pushes = c.pushes[:0]
	c.endStart = time.Time{}
	c.block = block
	c.lat = nil
}

func (c *frameClock) push(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pushes = append(c.pushes, t)
}

func (c *frameClock) end(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.endStart = t
}

// emitted records one frame whose last sample sits at position end.
func (c *frameClock) emitted(end float64, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := int(end) / c.block
	var in time.Time
	switch {
	case b < len(c.pushes):
		in = c.pushes[b]
	case !c.endStart.IsZero():
		in = c.endStart
	case len(c.pushes) > 0:
		in = c.pushes[len(c.pushes)-1]
	default:
		return
	}
	c.lat = append(c.lat, ms(at.Sub(in)))
}

// latencies returns the frame latencies recorded since reset.
func (c *frameClock) latencies() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lat
}

// onFrame is an OnFrame hook feeding c.
func (c *frameClock) onFrame(sr *lf.StreamResult) {
	c.emitted(frameEnd(sr.Stream.Offset, sr.Stream.Period, len(sr.Bits)), time.Now())
}

// frameEnd is the sample position of a decoded frame's last slot.
func frameEnd(offset, period float64, payloadBits int) float64 {
	return offset + float64(tag.FrameOverhead+payloadBits)*period
}

// fingerprint hashes the decode-determined content of a result, so a
// repeated decode of one capture can be checked against the first.
func fingerprint(res *lf.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, sr := range res.Streams {
		put(math.Float64bits(sr.Stream.Rate))
		put(math.Float64bits(sr.Stream.Offset))
		put(math.Float64bits(sr.Confidence))
		put(uint64(len(sr.Bits)))
		h.Write(sr.Bits)
	}
	return h.Sum64()
}

// consistency checks that every decode of a pool entry reproduces its
// first decode, and hands each first decode to score.
type consistency struct {
	first []uint64
	seen  []bool
	score func(i int, res *lf.Result)
}

func newConsistency(n int, score func(i int, res *lf.Result)) *consistency {
	return &consistency{first: make([]uint64, n), seen: make([]bool, n), score: score}
}

func (c *consistency) add(r *report, i int, res *lf.Result) {
	fp := fingerprint(res)
	if !c.seen[i] {
		c.seen[i] = true
		c.first[i] = fp
		c.score(i, res)
		return
	}
	r.check(fp == c.first[i], "capture %d: repeated decode differs from the first", i)
}
