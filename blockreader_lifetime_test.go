package lf_test

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"

	"lf"
	"lf/internal/iq"
	"lf/internal/pool"
)

// TestReadBlockPartialFinalBufferOwnership pins iq.BlockReader.
// ReadBlock's pooled-buffer lifetime on the truncation path: a short
// final read must deliver the samples decoded before the error in a
// buffer the caller exclusively owns — never a buffer that was also
// returned to the shared pool. Each block is fed to PushOwned, and
// between ReadBlock returning it and the push the pool is poisoned
// with NaN scribbles, simulating a concurrent pool consumer; if
// ReadBlock ever pools a buffer it hands to the caller, the scribbles
// land in that block's samples and the decode diverges from the
// plain-Push reference.
func TestReadBlockPartialFinalBufferOwnership(t *testing.T) {
	ep, cfg := buildEpoch(t, 4, 11)
	cfg.CalibSamples = 32768
	samples := ep.Capture.Samples

	var buf bytes.Buffer
	if _, err := ep.Capture.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-block and mid-sample: the final ReadBlock call finds
	// 4196 whole samples plus half of one, so it must return a partial
	// block alongside the truncation error.
	const block = 8192
	headerLen := buf.Len() - 16*len(samples)
	keep := (len(samples)/block-1)*block + 4096 + 100
	data := buf.Bytes()[:headerLen+16*keep+8]

	br, err := iq.NewBlockReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()

	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	var pushed int64
	sawPartial := false
	for {
		blk, rerr := br.ReadBlock(block)
		if len(blk) > 0 {
			pushed += int64(len(blk))
			if rerr != nil {
				sawPartial = true
			}
			// Poison: draw scratch buffers from the shared pool, scribble
			// them, and return them. A live buffer wrongly sitting in the
			// pool gets NaNs written over its samples before the push.
			for i := 0; i < 4; i++ {
				p := pool.ComplexUninit(block)
				for j := range p {
					p[j] = complex(math.NaN(), math.NaN())
				}
				pool.PutComplex(p)
			}
			if perr := sd.PushOwned(blk); perr != nil {
				t.Fatal(perr)
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				t.Fatal("expected a truncation error, got clean EOF")
			}
			break
		}
	}
	if !sawPartial {
		t.Fatal("truncation never produced a partial final block; retune the cut point")
	}
	got, err := sd.Flush()
	if err != nil {
		t.Fatal(err)
	}

	want, _ := streamDecodeSamples(t, samples[:pushed], cfg, 4096)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("decode through poisoned pool diverged from plain-Push reference:\nwant: %+v\ngot:  %+v", want, got)
	}
}
