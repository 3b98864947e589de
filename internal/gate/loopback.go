package gate

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lf/internal/fault"
	"lf/internal/obs"
)

// LoopbackReader describes one simulated reader for Loopback: a whole
// capture to stream, the push block size to stream it at, and optional
// client-side transport faults.
type LoopbackReader struct {
	Samples    []complex128
	SampleRate float64
	// Nonce pins the capture nonce (0 draws a process-unique one);
	// tests pin it so expected frames carry a known Capture field.
	Nonce uint64
	// Block is the reader's push block size (how samples leave the
	// radio front end); 0 pushes the whole capture at once. The wire
	// re-chunks to ChunkSamples regardless — decode is bit-identical
	// either way.
	Block int
	// ChunkSamples overrides the client wire chunk size (0 = default).
	ChunkSamples int
	// Transport impairs the reader's side of every connection.
	Transport fault.TransportConfig
	// Seed drives the reader's reconnect jitter.
	Seed int64
}

// LoopbackResult reports one Loopback run.
type LoopbackResult struct {
	// Frames holds each reader's published frames in publish order —
	// byte-comparable against a local lf.Decoder.NewStream run over the
	// same samples.
	Frames map[string][]*Frame
	// FramesTotal counts frames across all readers.
	FramesTotal int
	// Elapsed is wall time from first push to last capture flushed;
	// FramesPerSec is FramesTotal over that window.
	Elapsed      time.Duration
	FramesPerSec float64
	// Gateway is the gate.* metrics snapshot at shutdown; ReaderStats
	// the per-reader decode-class aggregate.
	Gateway     *obs.Snapshot
	ReaderStats map[string]*obs.Snapshot
}

// Loopback runs a complete gateway round trip in-process: start a
// gateway on a loopback listener, stream every reader's capture
// through its own client concurrently, wait for all captures to flush,
// and shut down. It is the harness behind `lfgate -demo` and the
// acceptance tests.
func Loopback(ctx context.Context, gcfg Config, readers map[string]LoopbackReader) (*LoopbackResult, error) {
	collect := newCollectSink()
	gcfg.Sinks = append(append([]Sink(nil), gcfg.Sinks...), collect)
	g, err := NewGateway(gcfg)
	if err != nil {
		return nil, err
	}
	defer g.Close()

	start := time.Now()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for name, r := range readers {
		wg.Add(1)
		go func(name string, r LoopbackReader) {
			defer wg.Done()
			if err := runLoopbackReader(ctx, g.Addr(), name, r); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("reader %q: %w", name, err))
				mu.Unlock()
			}
		}(name, r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	res := &LoopbackResult{
		Frames:      collect.take(),
		Elapsed:     elapsed,
		ReaderStats: g.ReaderStats(),
	}
	for _, frames := range res.Frames {
		res.FramesTotal += len(frames)
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.FramesPerSec = float64(res.FramesTotal) / sec
	}
	if err := g.Close(); err != nil {
		return nil, err
	}
	res.Gateway = g.Stats()
	return res, nil
}

func runLoopbackReader(ctx context.Context, addr, name string, r LoopbackReader) error {
	c, err := DialClient(ctx, ClientConfig{
		Addr:         addr,
		Name:         name,
		Nonce:        r.Nonce,
		SampleRate:   r.SampleRate,
		ChunkSamples: r.ChunkSamples,
		Transport:    r.Transport,
		Seed:         r.Seed,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	block := r.Block
	if block <= 0 {
		block = len(r.Samples)
	}
	for lo := 0; lo < len(r.Samples); lo += block {
		hi := lo + block
		if hi > len(r.Samples) {
			hi = len(r.Samples)
		}
		if err := c.Push(r.Samples[lo:hi]); err != nil {
			return err
		}
	}
	_, err = c.End()
	return err
}
