package lf_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"lf"
)

// TestDecodeDeterminismAcrossParallelism pins the concurrency contract
// that remains once one decode runs on one goroutine: decodes running
// side by side — the gateway's session fleet, the experiments' epoch
// workers — share only pooled scratch (internal/pool, the edge
// detector's scratch, the eye walk's lattice memos), and must not see
// each other through it. Eight goroutines, each with its own Decoder,
// decode the whole tags×seeds corpus at once, every goroutine starting
// at a different capture, and every Result must equal the lone decode
// of the same capture: same streams in the same order, same bits, same
// quality scores, same SIC recoveries. Under -race the test also
// probes the pools for unsynchronised sharing.
func TestDecodeDeterminismAcrossParallelism(t *testing.T) {
	type capture struct {
		name string
		ep   *lf.Epoch
		cfg  lf.DecoderConfig
		want *lf.Result
	}
	var corpus []capture
	for _, tags := range []int{1, 4, 16} {
		for _, seed := range []int64{1, 7, 42} {
			ep, cfg := buildEpoch(t, tags, seed)
			corpus = append(corpus, capture{fmt.Sprintf("tags=%d/seed=%d", tags, seed), ep, cfg, decodeWith(t, ep, cfg)})
		}
	}
	const goroutines = 8
	got := make([][]*lf.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		got[g] = make([]*lf.Result, len(corpus))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range corpus {
				c := (g + k) % len(corpus)
				dec, err := lf.NewDecoder(corpus[c].cfg)
				if err == nil {
					got[g][c], err = dec.Decode(corpus[c].ep)
				}
				if err != nil {
					errs[g] = fmt.Errorf("%s: %w", corpus[c].name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for c, want := range corpus {
		t.Run(want.name, func(t *testing.T) {
			for g := range goroutines {
				if !reflect.DeepEqual(want.want, got[g][c]) {
					t.Fatalf("goroutine %d's concurrent decode diverged from the lone decode:\nlone:       %+v\nconcurrent: %+v",
						g, want.want, got[g][c])
				}
			}
		})
	}
}

// TestDecodeDeterminismRepeatable guards the weaker property the
// stronger test depends on: the same decode run twice in a row is
// identical (no pool reuse leaking state between runs).
func TestDecodeDeterminismRepeatable(t *testing.T) {
	ep, cfg := buildEpoch(t, 8, 3)
	first := decodeWith(t, ep, cfg)
	second := decodeWith(t, ep, cfg)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("repeated decode of the same epoch diverged")
	}
}

// TestStatsDeterminism extends the determinism contract to the
// observability layer: the decode-class metrics identity of a streaming
// decode must be byte-identical to batch at any push block size.
// Timing metrics are runtime-class and excluded from Identity(), so
// this holds even though wall-clock numbers differ run to run.
func TestStatsDeterminism(t *testing.T) {
	ep, cfg := buildEpoch(t, 8, 13)
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(ep); err != nil {
		t.Fatal(err)
	}
	want := dec.Stats().Identity()

	samples := ep.Capture.Samples
	for _, block := range []int{1, 4096, len(samples)} {
		dec, err := lf.NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := dec.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(samples); lo += block {
			hi := min(lo+block, len(samples))
			if err := sd.Push(samples[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sd.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := sd.Stats().Identity(); got != want {
			t.Errorf("streaming stats identity at block %d diverged from batch:\nwant:\n%s\ngot:\n%s", block, want, got)
		}
	}
}

func buildEpoch(t *testing.T, tags int, seed int64) (*lf.Epoch, lf.DecoderConfig) {
	t.Helper()
	net, err := lf.NewNetwork(lf.NetworkConfig{
		NumTags:        tags,
		PayloadSeconds: 2e-3,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	return ep, net.DecoderConfig()
}

func decodeWith(t *testing.T, ep *lf.Epoch, cfg lf.DecoderConfig) *lf.Result {
	t.Helper()
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dec.Decode(ep)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
