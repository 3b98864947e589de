package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"lf/internal/decoder"
	"lf/internal/edgedetect"
	"lf/internal/fault"
)

// makeJob hand-builds a StripeJob over seeded synthetic prefix sums:
// n samples, stripe owning [lo, hi), the geometry small enough that
// unit tests stay fast but every code path (blank margins, interior
// sweep) is exercised.
func makeJob(seed uint64, n, lo, hi int64) *edgedetect.StripeJob {
	re := make([]float64, n+1)
	im := make([]float64, n+1)
	for i := int64(1); i <= n; i++ {
		h := splitmix64w(seed ^ uint64(i)*0xD6E8FEB86659FD93)
		re[i] = re[i-1] + float64(h>>40)/(1<<24)
		im[i] = im[i-1] + float64((h<<24)>>40)/(1<<24)
	}
	var g, w int64 = 4, 8
	margin := edgedetect.SweepMargin(g, w)
	return &edgedetect.StripeJob{
		Lo: lo, Hi: hi,
		IntLo: margin, IntHi: n - margin,
		Re: re, Im: im, Base: 0,
		Gap: g, Win: w,
		Dst: make([]float64, hi-lo),
	}
}

// refRun computes the job's expected Dst via the in-process kernel on
// a fresh copy.
func refRun(job *edgedetect.StripeJob) []float64 {
	cp := *job
	cp.Dst = make([]float64, len(job.Dst))
	cp.Run()
	return cp.Dst
}

func startCoordinator(t *testing.T, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// startWorkers launches n workers against c and returns a stop
// function that cancels and joins them.
func startWorkers(t *testing.T, c *Coordinator, n int, mutate func(i int, cfg *WorkerConfig)) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := WorkerConfig{Addr: c.Addr(), Name: fmt.Sprintf("w%d", i), Seed: int64(i + 1)}
		if mutate != nil {
			mutate(i, &cfg)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunWorker(ctx, cfg)
		}()
	}
	if !c.WaitWorkers(n, 5*time.Second) {
		cancel()
		wg.Wait()
		t.Fatalf("fleet of %d never connected", n)
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			wg.Wait()
		})
	}
	t.Cleanup(stop)
	return stop
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRunStripeRemoteMatchesLocal runs a batch of stripes through a
// real loopback coordinator + fleet and checks every Dst is
// bit-identical to the in-process kernel — including degenerate
// stripes that are all blank margin.
func TestRunStripeRemoteMatchesLocal(t *testing.T) {
	c := startCoordinator(t, CoordinatorConfig{})
	startWorkers(t, c, 2, nil)

	const n = 4096
	jobs := []*edgedetect.StripeJob{
		makeJob(1, n, 0, 512),     // leading blank margin
		makeJob(1, n, 512, 2048),  // pure interior
		makeJob(1, n, 2048, 4096), // trailing blank margin
		makeJob(1, n, 0, 10),      // fully blank (lo < hi ≤ IntLo)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.RunStripe(job)
		}()
	}
	wg.Wait()
	for i, job := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if want := refRun(job); !equalFloats(job.Dst, want) {
			t.Fatalf("job %d: remote result differs from local kernel", i)
		}
	}
	snap := c.Stats()
	if got := snap.Counters["dist.shards"]; got != int64(len(jobs)) {
		t.Fatalf("dist.shards = %d, want %d", got, len(jobs))
	}
	if snap.Counters["dist.bytes"] == 0 {
		t.Fatal("dist.bytes stayed zero across a remote batch")
	}
	if snap.Counters["dist.local"] != 0 {
		t.Fatalf("dist.local = %d with a healthy fleet", snap.Counters["dist.local"])
	}
}

// TestRunStripeNoFleetFallsBackLocal: with no workers the stripe runs
// in-process immediately.
func TestRunStripeNoFleetFallsBackLocal(t *testing.T) {
	c := startCoordinator(t, CoordinatorConfig{})
	job := makeJob(2, 4096, 512, 2048)
	want := refRun(job)
	if err := c.RunStripe(job); err != nil {
		t.Fatal(err)
	}
	if !equalFloats(job.Dst, want) {
		t.Fatal("local fallback differs from kernel")
	}
	snap := c.Stats()
	if snap.Counters["dist.local"] != 1 {
		t.Fatalf("dist.local = %d, want 1", snap.Counters["dist.local"])
	}
}

// TestCoordinatorRefusesOldProtocol: a worker whose hello carries the
// previous protocol version (the job layout with the sparse-sweep
// fields) must be refused at the handshake — no welcome, no job — and
// stripes must then run on the local kernel with in-process bytes.
func TestCoordinatorRefusesOldProtocol(t *testing.T) {
	c := startCoordinator(t, CoordinatorConfig{})
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := &wireHello{Version: protoVersion - 1, Name: "old"}
	if err := writeFrame(conn, msgHello, hello.encode()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, _, err := readFrame(conn)
	if err == nil {
		t.Fatalf("old-version worker got a frame of type %d, want the connection refused", typ)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("coordinator left the old-version worker hanging instead of refusing it")
	}
	if n := c.Workers(); n != 0 {
		t.Fatalf("old-version worker registered: %d workers", n)
	}

	job := makeJob(4, 4096, 512, 2048)
	want := refRun(job)
	if err := c.RunStripe(job); err != nil {
		t.Fatal(err)
	}
	if !equalFloats(job.Dst, want) {
		t.Fatal("local fallback after refusal differs from the in-process stripe")
	}
	if got := c.Stats().Counters["dist.local"]; got != 1 {
		t.Fatalf("dist.local = %d, want 1", got)
	}
}

// TestRunStripeFleetDrainFallsBackLocal kills the fleet while a
// stripe is outstanding: the coordinator must steal the job back and
// compute it locally rather than hang.
func TestRunStripeFleetDrainFallsBackLocal(t *testing.T) {
	c := startCoordinator(t, CoordinatorConfig{LeaseTimeout: 30 * time.Second, HedgeAfter: -1})
	hold := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	var w sync.WaitGroup
	w.Add(1)
	go func() {
		defer w.Done()
		RunWorker(ctx, WorkerConfig{Addr: c.Addr(), Name: "wedge",
			Compute: func(job *edgedetect.StripeJob) { <-hold }})
	}()
	defer func() { cancel(); close(hold); w.Wait() }()
	if !c.WaitWorkers(1, 5*time.Second) {
		t.Fatal("worker never connected")
	}

	job := makeJob(3, 4096, 512, 2048)
	want := refRun(job)
	done := make(chan error, 1)
	go func() { done <- c.RunStripe(job) }()

	// Let the worker lease the stripe, then collapse the fleet: cancel
	// severs the conn (the wedged compute keeps blocking until the
	// deferred release — a drained fleet, not a graceful one).
	time.Sleep(100 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunStripe hung after fleet drain")
	}
	if !equalFloats(job.Dst, want) {
		t.Fatal("post-drain local fallback differs from kernel")
	}
	if c.Stats().Counters["dist.local"] != 1 {
		t.Fatal("drained stripe not counted local")
	}
}

// TestRunStripeHedgesStraggler: with one deliberately wedged worker
// and one healthy one, the hedge monitor must re-queue the straggling
// stripe and the healthy worker's result must win — identical bytes.
func TestRunStripeHedgesStraggler(t *testing.T) {
	c := startCoordinator(t, CoordinatorConfig{
		LeaseTimeout: 10 * time.Second, // lease never expires in-test
		HedgeAfter:   50 * time.Millisecond,
	})
	var mu sync.Mutex
	wedged := false // first compute call wedges; the rest run clean
	hold := make(chan struct{})
	defer close(hold)
	startWorkers(t, c, 2, func(i int, cfg *WorkerConfig) {
		cfg.Compute = func(job *edgedetect.StripeJob) {
			mu.Lock()
			first := !wedged
			wedged = true
			mu.Unlock()
			if first {
				<-hold
				panic("wedged worker released; result must lose the race")
			}
			job.Run()
		}
	})

	job := makeJob(4, 4096, 512, 2048)
	want := refRun(job)
	if err := c.RunStripe(job); err != nil {
		t.Fatal(err)
	}
	if !equalFloats(job.Dst, want) {
		t.Fatal("hedged result differs from kernel")
	}
	if c.Stats().Counters["dist.hedges"] == 0 {
		t.Fatal("straggler did not trigger a hedge")
	}
}

// TestRunStripeLeaseExpiryRetries: a worker that leases a stripe and
// goes silent past the lease deadline must lose the conn; the retry
// (here: the same worker's clean reconnect) completes the stripe.
func TestRunStripeLeaseExpiryRetries(t *testing.T) {
	c := startCoordinator(t, CoordinatorConfig{
		LeaseTimeout: 100 * time.Millisecond,
		HedgeAfter:   -1, // isolate the lease path from hedging
	})
	var mu sync.Mutex
	stalled := false
	startWorkers(t, c, 1, func(i int, cfg *WorkerConfig) {
		cfg.Compute = func(job *edgedetect.StripeJob) {
			mu.Lock()
			first := !stalled
			stalled = true
			mu.Unlock()
			if first {
				time.Sleep(400 * time.Millisecond) // well past the lease
			}
			job.Run()
		}
	})

	job := makeJob(5, 4096, 512, 2048)
	want := refRun(job)
	if err := c.RunStripe(job); err != nil {
		t.Fatal(err)
	}
	if !equalFloats(job.Dst, want) {
		t.Fatal("post-lease-expiry result differs from kernel")
	}
	if c.Stats().Counters["dist.retries"] == 0 {
		t.Fatal("lease expiry did not count a retry")
	}
}

// TestRunStripeQuarantinesPoisonedShard: a stripe whose compute
// panics on every worker must settle as a typed DecodeError after
// QuarantineAfter attempts — and the coordinator must stay healthy
// for the next stripe.
func TestRunStripeQuarantinesPoisonedShard(t *testing.T) {
	c := startCoordinator(t, CoordinatorConfig{QuarantineAfter: 2})
	poison := true
	var mu sync.Mutex
	startWorkers(t, c, 2, func(i int, cfg *WorkerConfig) {
		cfg.Compute = func(job *edgedetect.StripeJob) {
			mu.Lock()
			bad := poison
			mu.Unlock()
			if bad {
				panic(&decoder.DecodeError{Stage: decoder.StageEdgeDetect, Pos: job.Lo,
					Err: errors.New("synthetic poison")})
			}
			job.Run()
		}
	})

	job := makeJob(6, 4096, 512, 2048)
	err := c.RunStripe(job)
	var de *decoder.DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("poisoned stripe returned %v, want DecodeError", err)
	}
	if de.Stage != decoder.StageEdgeDetect || de.Pos != job.Lo {
		t.Fatalf("quarantine lost error anchor: stage=%s pos=%d", de.Stage, de.Pos)
	}

	// The fleet and coordinator must survive quarantine: a clean
	// stripe still decodes remotely.
	mu.Lock()
	poison = false
	mu.Unlock()
	job2 := makeJob(6, 4096, 512, 2048)
	want := refRun(job2)
	if err := c.RunStripe(job2); err != nil {
		t.Fatal(err)
	}
	if !equalFloats(job2.Dst, want) {
		t.Fatal("post-quarantine stripe differs from kernel")
	}
}

// TestRunStripeUnderTransportFaults drives every transport fault kind
// at high severity through a 2-worker fleet: whatever the wire does,
// every stripe must come back bit-identical (retries and local
// fallback are invisible in the bytes).
func TestRunStripeUnderTransportFaults(t *testing.T) {
	for _, kind := range fault.TransportKinds() {
		t.Run(string(kind), func(t *testing.T) {
			c := startCoordinator(t, CoordinatorConfig{
				LeaseTimeout: 500 * time.Millisecond,
				HedgeAfter:   100 * time.Millisecond,
				Transport: fault.TransportConfig{
					Seed:      99,
					Injectors: []fault.Injector{{Kind: kind, Severity: 0.7}},
				},
			})
			startWorkers(t, c, 2, nil)
			const n = 4096
			for i := int64(0); i < 6; i++ {
				job := makeJob(uint64(i+10), n, i*512, (i+1)*512+256)
				want := refRun(job)
				if err := c.RunStripe(job); err != nil {
					t.Fatalf("stripe %d: %v", i, err)
				}
				if !equalFloats(job.Dst, want) {
					t.Fatalf("stripe %d differs under %s", i, kind)
				}
			}
		})
	}
}

// TestCoordinatorShutdownWithInFlight closes the coordinator while
// stripes are leased to a wedged fleet: every RunStripe must complete
// locally (correct bytes), workers must unblock, and no goroutines
// may leak — the distributed mirror of TestPoolStragglerDoesNotStall.
func TestCoordinatorShutdownWithInFlight(t *testing.T) {
	before := runtime.NumGoroutine()

	c, err := NewCoordinator(CoordinatorConfig{LeaseTimeout: 30 * time.Second, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	workers.Add(1)
	go func() {
		defer workers.Done()
		RunWorker(ctx, WorkerConfig{Addr: c.Addr(), Name: "wedge",
			Compute: func(job *edgedetect.StripeJob) { <-hold }})
	}()
	if !c.WaitWorkers(1, 5*time.Second) {
		t.Fatal("worker never connected")
	}

	jobs := make([]*edgedetect.StripeJob, 3)
	wants := make([][]float64, len(jobs))
	done := make(chan error, len(jobs))
	for i := range jobs {
		jobs[i] = makeJob(uint64(20+i), 4096, int64(i)*1024, int64(i+1)*1024)
		wants[i] = refRun(jobs[i])
		go func(j *edgedetect.StripeJob) { done <- c.RunStripe(j) }(jobs[i])
	}
	time.Sleep(100 * time.Millisecond) // let the wedged worker lease one
	c.Close()
	for range jobs {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("RunStripe hung across Close")
		}
	}
	for i := range jobs {
		if !equalFloats(jobs[i].Dst, wants[i]) {
			t.Fatalf("stripe %d wrong after shutdown fallback", i)
		}
	}
	c.Close() // double-Close must be safe
	cancel()
	close(hold)
	workers.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}

// TestWorkerKilledMidStream abruptly severs a worker's conn while it
// holds a lease (kill -9 shape: no goodbye frame). The shard must
// re-queue and complete without stalling.
func TestWorkerKilledMidStream(t *testing.T) {
	c := startCoordinator(t, CoordinatorConfig{LeaseTimeout: 400 * time.Millisecond, HedgeAfter: -1})

	// First worker: wedges inside compute and never sends a frame — the
	// kill (cancel → watchdog severs the conn) happens while it holds
	// the lease, and it stays wedged until the test ends, so no result
	// ever races the re-queue.
	ctx1, cancel1 := context.WithCancel(context.Background())
	var w1 sync.WaitGroup
	w1.Add(1)
	leased := make(chan struct{})
	hold := make(chan struct{})
	go func() {
		defer w1.Done()
		var once sync.Once
		RunWorker(ctx1, WorkerConfig{Addr: c.Addr(), Name: "victim",
			Compute: func(job *edgedetect.StripeJob) {
				once.Do(func() { close(leased) })
				<-hold
			}})
	}()
	defer func() { cancel1(); close(hold); w1.Wait() }()
	if !c.WaitWorkers(1, 5*time.Second) {
		t.Fatal("victim never connected")
	}

	job := makeJob(30, 4096, 512, 2048)
	want := refRun(job)
	done := make(chan error, 1)
	go func() { done <- c.RunStripe(job) }()
	<-leased
	cancel1() // kill: watchdog severs the conn mid-lease, no goodbye frame

	// Second worker arrives and picks up the re-queued shard.
	startWorkers(t, c, 1, nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("merge stalled after worker death")
	}
	if !equalFloats(job.Dst, want) {
		t.Fatal("post-death result differs from kernel")
	}
	if c.Stats().Counters["dist.retries"] == 0 {
		t.Fatal("worker death did not count a retry")
	}
}

// TestWorkerReconnectBackoff: a worker pointed at a dead address must
// keep retrying with backoff and exit promptly on cancel.
func TestWorkerReconnectBackoff(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := RunWorker(ctx, WorkerConfig{Addr: "127.0.0.1:1", Name: "lost",
		BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunWorker = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("worker did not exit promptly on cancel")
	}
}

// TestWireRoundTrip pins the frame codec: every message survives
// encode → decode bit-exactly, and corruption of any single byte is
// detected.
func TestWireRoundTrip(t *testing.T) {
	// All-blank stripe (Hi ≤ IntLo), so the shipped window is free-form
	// and the float fields round-trip without the coverage check.
	job := &wireJob{ID: 42, Lo: 100, Hi: 200, IntLo: 200, IntHi: 4084,
		Base: 88, Gap: 4, Win: 8,
		Re: []float64{1, 2.5, math.Pi}, Im: []float64{-1, 0, 3e-9}}
	got, err := decodeJob(job.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != job.ID || got.Lo != job.Lo || got.Hi != job.Hi || got.IntLo != job.IntLo ||
		got.IntHi != job.IntHi || got.Base != job.Base || got.Gap != job.Gap || got.Win != job.Win ||
		!equalFloats(got.Re, job.Re) || !equalFloats(got.Im, job.Im) {
		t.Fatal("job did not round-trip")
	}

	res := &wireResult{ID: 7, Mag: []float64{0, 1.25, math.Inf(1)}}
	rgot, err := decodeResult(res.encode())
	if err != nil {
		t.Fatal(err)
	}
	if rgot.ID != 7 || !equalFloats(rgot.Mag, res.Mag) {
		t.Fatal("result did not round-trip")
	}

	se := &wireShardErr{ID: 9, Stage: "edgedetect", Pos: 123, Msg: "boom"}
	sgot, err := decodeShardErr(se.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *sgot != *se {
		t.Fatal("shard error did not round-trip")
	}
}
