// Package obs is the decode pipeline's observability layer: pre-registered
// atomic counters, gauges, fixed-bucket histograms, and per-stage wall-time
// accumulators, collected in a snapshotable registry.
//
// Two properties shape every type here:
//
//   - Zero allocation on the hot path. Metrics are registered once at
//     pipeline construction; recording is a single atomic add (plus one
//     branch for the disabled case — a nil metric is a no-op receiver, so
//     uninstrumented decodes pay one predictable branch per record site
//     and nothing else).
//
//   - Determinism safety. Every metric is classified ClassDecode or
//     ClassRuntime. Decode-class values are pure functions of the sample
//     sequence: they are either recorded from serial pipeline stages, or
//     recorded through commutative atomic additions whose totals cannot
//     depend on goroutine scheduling. Histogram means use fixed-point
//     integer sums (micro-units, rounded per observation) for the same
//     reason — a float sum would reassociate under concurrency. Runtime-
//     class values (wall time, pool occupancy) legitimately vary run to
//     run and are excluded from Snapshot.Identity, the canonical form the
//     determinism and golden-trace tests compare byte for byte.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Class partitions metrics by determinism contract.
type Class int

const (
	// ClassDecode: a pure function of the decoded sample sequence,
	// identical at any streaming block size. Included in
	// Snapshot.Identity.
	ClassDecode Class = iota
	// ClassRuntime: scheduling- or clock-dependent (wall time, gateway
	// session bookkeeping). Reported in snapshots and text dumps but excluded
	// from Snapshot.Identity.
	ClassRuntime
)

// Counter is a monotonically increasing atomic count. The zero value is
// ready to use; a nil *Counter is a no-op, which is how the disabled
// (NoStats) pipeline records nothing without any conditional wiring.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (no-op on a nil receiver).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count (0 on a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic level with high-water semantics. Nil-safe like
// Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores n unconditionally.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Max raises the gauge to n if n is higher (lock-free high-water mark).
func (g *Gauge) Max(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current level (0 on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Bounds are upper bucket
// edges (values ≤ bounds[i] land in bucket i; the final implicit bucket
// is +Inf). The running sum is kept in integer micro-units, rounded per
// observation, so concurrent observation order cannot perturb it.
type Histogram struct {
	bounds   []float64
	buckets  []atomic.Int64 // len(bounds)+1
	count    atomic.Int64
	sumMicro atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	return &Histogram{bounds: cp, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value (no-op on a nil receiver). Non-finite
// values clamp into the overflow bucket with a saturated sum
// contribution, so a pathological input cannot poison the total.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	micro := v * 1e6
	switch {
	case math.IsNaN(micro):
		micro = 0
	case micro > 9e15:
		micro = 9e15
	case micro < -9e15:
		micro = -9e15
	}
	h.sumMicro.Add(int64(math.Round(micro)))
}

// Timing accumulates wall-clock durations for one pipeline stage.
// Always ClassRuntime. Nil-safe.
type Timing struct {
	ns atomic.Int64
	n  atomic.Int64
}

// Observe adds one measured duration.
func (t *Timing) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.ns.Add(int64(d))
	t.n.Add(1)
}

// Registry holds every metric of one pipeline instance under a unique
// dotted name. All registration happens at construction; the hot path
// only touches the returned metric pointers.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	timings    map[string]*Timing
	class      map[string]Class
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		timings:    map[string]*Timing{},
		class:      map[string]Class{},
	}
}

func (r *Registry) register(name string, c Class) {
	if _, dup := r.class[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.class[name] = c
}

// Counter registers and returns a counter. Nil registries return a nil
// (no-op) counter, so a disabled pipeline needs no special wiring.
func (r *Registry) Counter(name string, class Class) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, class)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name string, class Class) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, class)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram registers and returns a fixed-bucket histogram.
func (r *Registry) Histogram(name string, class Class, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, class)
	h := newHistogram(bounds)
	r.histograms[name] = h
	return h
}

// Timing registers and returns a stage wall-time accumulator (always
// ClassRuntime).
func (r *Registry) Timing(name string) *Timing {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, ClassRuntime)
	t := &Timing{}
	r.timings[name] = t
	return t
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	// Bounds are the upper bucket edges; Buckets has one extra entry
	// for the +Inf overflow bucket.
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
	Count   int64     `json:"count"`
	// SumMicro is the observation sum in fixed-point micro-units
	// (rounded per observation; see Histogram).
	SumMicro int64 `json:"sum_micro"`
}

// Mean returns the distribution mean (0 with no observations).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.SumMicro) / 1e6 / float64(h.Count)
}

// TimingSnapshot is one stage timer's frozen state.
type TimingSnapshot struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
}

// Snapshot is a frozen, JSON-friendly view of a registry. Taking one is
// safe at any time, including mid-decode from the pushing goroutine.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Timings    map[string]TimingSnapshot    `json:"timings,omitempty"`
	// Runtime names the counters and gauges that are ClassRuntime and
	// therefore excluded from Identity (timings always are).
	Runtime map[string]bool `json:"runtime,omitempty"`
}

// NewSnapshot returns an empty snapshot, ready to Add into.
func NewSnapshot() *Snapshot { return (*Registry)(nil).Snapshot() }

// Snapshot freezes the registry's current values.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Timings:    map[string]TimingSnapshot{},
		Runtime:    map[string]bool{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
		if r.class[name] == ClassRuntime {
			s.Runtime[name] = true
		}
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
		if r.class[name] == ClassRuntime {
			s.Runtime[name] = true
		}
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Bounds:   append([]float64(nil), h.bounds...),
			Buckets:  make([]int64, len(h.buckets)),
			Count:    h.count.Load(),
			SumMicro: h.sumMicro.Load(),
		}
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		s.Histograms[name] = hs
		if r.class[name] == ClassRuntime {
			s.Runtime[name] = true
		}
	}
	for name, t := range r.timings {
		s.Timings[name] = TimingSnapshot{Count: t.n.Load(), TotalNs: t.ns.Load()}
	}
	return s
}

// Counter returns a counter's value by name (0 if absent or nil).
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// Add accumulates other into s: counters, histogram buckets and sums,
// and timings add; gauges take the high-water maximum.
func (s *Snapshot) Add(other *Snapshot) {
	if other == nil {
		return
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	for name, v := range other.Gauges {
		if v > s.Gauges[name] {
			s.Gauges[name] = v
		}
	}
	for name, hs := range other.Histograms {
		cur, ok := s.Histograms[name]
		if !ok {
			cur = HistogramSnapshot{
				Bounds:  append([]float64(nil), hs.Bounds...),
				Buckets: make([]int64, len(hs.Buckets)),
			}
		}
		for i := range hs.Buckets {
			if i < len(cur.Buckets) {
				cur.Buckets[i] += hs.Buckets[i]
			}
		}
		cur.Count += hs.Count
		cur.SumMicro += hs.SumMicro
		s.Histograms[name] = cur
	}
	for name, ts := range other.Timings {
		cur := s.Timings[name]
		cur.Count += ts.Count
		cur.TotalNs += ts.TotalNs
		s.Timings[name] = cur
	}
	for name := range other.Runtime {
		s.Runtime[name] = true
	}
}

// Identity renders the decode-class metrics in a canonical text form:
// sorted by name, fixed integer formatting, timing and runtime-class
// entries stripped. Two decodes of the same sample sequence must
// produce byte-identical Identity output at any block size, and
// however many other decodes run beside them — this is the string the determinism and golden-trace tests pin.
func (s *Snapshot) Identity() string {
	var b strings.Builder
	s.write(&b, false)
	return b.String()
}

// WriteText dumps every metric — including runtime-class and timings —
// as sorted "kind name value" lines, expvar style.
func (s *Snapshot) WriteText(w io.Writer) error {
	var b strings.Builder
	s.write(&b, true)
	_, err := io.WriteString(w, b.String())
	return err
}

func (s *Snapshot) write(b *strings.Builder, includeRuntime bool) {
	if s == nil {
		return
	}
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		if includeRuntime || !s.Runtime[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(b, "counter %s %d\n", name, s.Counters[name])
	}
	names = names[:0]
	for name := range s.Gauges {
		if includeRuntime || !s.Runtime[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(b, "gauge %s %d\n", name, s.Gauges[name])
	}
	names = names[:0]
	for name := range s.Histograms {
		if includeRuntime || !s.Runtime[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		hs := s.Histograms[name]
		fmt.Fprintf(b, "histogram %s count=%d sum_micro=%d buckets=", name, hs.Count, hs.SumMicro)
		for i, n := range hs.Buckets {
			if i > 0 {
				b.WriteByte(',')
			}
			if i < len(hs.Bounds) {
				fmt.Fprintf(b, "le%g:%d", hs.Bounds[i], n)
			} else {
				fmt.Fprintf(b, "inf:%d", n)
			}
		}
		b.WriteByte('\n')
	}
	if !includeRuntime {
		return
	}
	names = names[:0]
	for name := range s.Timings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := s.Timings[name]
		fmt.Fprintf(b, "timing %s count=%d total_ns=%d\n", name, ts.Count, ts.TotalNs)
	}
}

// SpanEvent is one structured trace event: a pipeline stage milestone
// anchored at an absolute sample position. Events are emitted on the
// goroutine calling Push/Flush/Decode (mirroring the OnFrame hook) at
// deterministic points, so the event sequence — stages, positions,
// payload counts — is identical at any block size.
type SpanEvent struct {
	// Stage names the milestone: "calibrate", "register", "commit",
	// "frame", "sic", "flush".
	Stage string
	// Stream is the stream ID a frame event belongs to, -1 for
	// capture-level events.
	Stream int
	// Pos is the sample position the event is anchored at (stage
	// horizon, stream offset, or capture end).
	Pos int64
	// N carries the stage's count payload: streams registered, frames
	// committed, bits decoded, streams recovered, edges detected.
	N int64
}

// Tracer receives span events. Implementations must be cheap — Trace is
// called synchronously from the decode path.
type Tracer interface {
	Trace(ev SpanEvent)
}
