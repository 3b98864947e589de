// Command lfsim simulates one LF-Backscatter epoch and decodes it,
// printing per-tag results — a one-shot playground for protocol and
// decoder behaviour.
//
// Usage:
//
//	lfsim [-tags N] [-rate bps] [-payload-ms ms] [-seed N] [-workers N]
//	      [-stream] [-block N] [-calib N]
//	      [-record FILE] [-replay FILE]
//	      [-fault SPEC] [-fault-seed N] [-stats] [-v]
//
// -fault injects deterministic impairments before decoding, e.g.
// -fault burst:0.5,dropout:0.3,nonfinite:1 — see internal/fault for
// the kinds. The decode then demonstrates graceful degradation:
// dropped spans and per-stream confidence are printed.
//
// -stats dumps the pipeline observability counters after the decode —
// an expvar-style "kind name value" text listing of every stage's
// metrics (edge disposition, collision groups, Viterbi commits, SIC
// rounds, drops, pool occupancy, per-stage wall time).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lf"
	"lf/internal/fault"
	"lf/internal/iq"
	"lf/internal/reader"
)

func main() {
	tags := flag.Int("tags", 4, "number of tags")
	rate := flag.Float64("rate", 100e3, "per-tag bit rate (bits/s, multiple of 100)")
	payloadMS := flag.Float64("payload-ms", 2, "payload airtime per epoch (ms)")
	seed := flag.Int64("seed", 1, "random seed")
	verbose := flag.Bool("v", false, "print per-stream detail")
	record := flag.String("record", "", "write the epoch's IQ capture to this file (LFIQ container)")
	replay := flag.String("replay", "", "decode a previously recorded capture instead of simulating (scoring unavailable)")
	workers := flag.Int("workers", 0, "decoder parallelism (0 = all cores, 1 = serial); the decode is bit-identical at any setting")
	stream := flag.Bool("stream", false, "decode through the streaming pipeline (bounded memory, frames surface mid-capture); bit-identical to batch")
	block := flag.Int("block", 8192, "streaming block size in samples (with -stream)")
	calib := flag.Int64("calib", 32768, "noise-calibration sample budget for -stream (0 defers decoding to end of capture)")
	faultSpec := flag.String("fault", "", "inject faults before decoding: comma-separated kind:severity list (e.g. burst:0.5,dropout:0.3)")
	faultSeed := flag.Int64("fault-seed", 42, "seed for the fault injectors (same seed, same spec: byte-identical impairment)")
	stats := flag.Bool("stats", false, "dump pipeline metrics (expvar-style text) after the decode")
	flag.Parse()

	var injectors []fault.Injector
	if *faultSpec != "" {
		var err error
		injectors, err = fault.ParseSpec(*faultSpec)
		if err != nil {
			fatal(err)
		}
	}

	net, err := lf.NewNetwork(lf.NetworkConfig{
		NumTags:        *tags,
		BitRates:       []float64{*rate},
		PayloadSeconds: *payloadMS * 1e-3,
		Seed:           *seed,
	})
	if err != nil {
		fatal(err)
	}
	dcfg := net.DecoderConfig()
	dcfg.Parallelism = *workers
	// Streaming-progress observables, fed by OnFrame as frames commit
	// mid-capture.
	var pushed, firstFrame, peak int64
	firstFrame = -1
	if *stream {
		dcfg.CalibSamples = *calib
		dcfg.OnFrame = func(*lf.StreamResult) {
			if firstFrame < 0 {
				firstFrame = pushed
			}
		}
	}
	dec, err := lf.NewDecoder(dcfg)
	if err != nil {
		fatal(err)
	}
	// push feeds one block to a streaming decode, tracking progress.
	push := func(sd *lf.StreamDecoder, blk []complex128) error {
		pushed += int64(len(blk))
		if err := sd.Push(blk); err != nil {
			return err
		}
		if r := sd.RetainedBytes(); r > peak {
			peak = r
		}
		return nil
	}
	streamReport := func(rate float64) {
		if firstFrame >= 0 {
			fmt.Printf("streaming: first frame after %.2f of %.2f ms, peak retained %d KiB\n",
				float64(firstFrame)/rate*1e3, float64(pushed)/rate*1e3, peak/1024)
		} else {
			fmt.Printf("streaming: no frame before end of capture, peak retained %d KiB\n", peak/1024)
		}
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		var res *lf.Result
		var durMS float64
		var nSamples int64
		if *stream {
			// Bounded-memory replay: the capture never materializes; the
			// container streams straight into the decode pipeline.
			br, err := iq.NewBlockReader(f)
			if err != nil {
				fatal(err)
			}
			defer br.Close()
			sd, err := dec.NewStream()
			if err != nil {
				fatal(err)
			}
			buf := make([]complex128, *block)
			for {
				n, err := br.Read(buf)
				if n > 0 {
					if perr := push(sd, buf[:n]); perr != nil {
						fatal(perr)
					}
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					fatal(err)
				}
			}
			res, err = sd.Flush()
			if err != nil {
				fatal(err)
			}
			durMS = float64(br.Len()) / br.SampleRate() * 1e3
			nSamples = br.Len()
			streamReport(br.SampleRate())
		} else {
			capture, err := lf.ReadCapture(f)
			if err != nil {
				fatal(err)
			}
			res, err = dec.DecodeCapture(capture)
			if err != nil {
				fatal(err)
			}
			durMS = capture.Duration() * 1e3
			nSamples = int64(capture.Len())
		}
		fmt.Printf("replayed %s: %.2f ms, %d samples\n", *replay, durMS, nSamples)
		fmt.Printf("edges detected: %d (noise floor %.2e)\n", res.EdgeCount, res.NoiseFloor)
		fmt.Printf("streams: %d\n", len(res.Streams))
		for i, sr := range res.Streams {
			fmt.Printf("  stream %2d: %s rate=%.0f offset=%.1f bits=%d conf=%.2f crc=%v\n",
				i, sr.Stream.Source, sr.Stream.Rate, sr.Stream.Offset, len(sr.Bits), sr.Confidence, sr.CRCOK)
		}
		reportDropped(res)
		if *stats {
			dumpStats(dec)
		}
		return
	}

	ep, err := net.RunEpoch()
	if err != nil {
		fatal(err)
	}
	if len(injectors) > 0 {
		// Tag-level impairments (clock drift, tag death) rewrite the
		// emissions and re-synthesize; capture-level impairments corrupt
		// the recorded samples. Both are deterministic in -fault-seed.
		capInjs, tagInjs := fault.SplitLevels(injectors)
		if len(tagInjs) > 0 {
			ems, err := fault.Config{Seed: *faultSeed, Injectors: tagInjs}.ApplyEmissions(ep.Emissions)
			if err != nil {
				fatal(err)
			}
			re, err := reader.Synthesize(net.Channel(), ems, ep.Config)
			if err != nil {
				fatal(err)
			}
			ep = &lf.Epoch{Capture: re.Capture, Emissions: ems, Config: ep.Config}
		}
		if len(capInjs) > 0 {
			capture, err := fault.Config{Seed: *faultSeed, Injectors: capInjs}.ApplyCapture(ep.Capture)
			if err != nil {
				fatal(err)
			}
			ep = &lf.Epoch{Capture: capture, Emissions: ep.Emissions, Config: ep.Config}
		}
		fmt.Printf("fault: injected %s (seed %d)\n", *faultSpec, *faultSeed)
	}
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fatal(err)
		}
		if err := lf.WriteCapture(f, ep); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded capture to %s\n", *record)
	}
	var res *lf.Result
	if *stream {
		sd, err := dec.NewStream()
		if err != nil {
			fatal(err)
		}
		if err := ep.Blocks(*block, func(blk []complex128) error { return push(sd, blk) }); err != nil {
			fatal(err)
		}
		res, err = sd.Flush()
		if err != nil {
			fatal(err)
		}
		streamReport(ep.Config.SampleRate)
	} else {
		res, err = dec.Decode(ep)
		if err != nil {
			fatal(err)
		}
	}
	score := lf.ScoreEpoch(ep, res)

	fmt.Printf("epoch: %.2f ms, %d samples @%.0f Msps\n",
		ep.Capture.Duration()*1e3, ep.Capture.Len(), ep.Config.SampleRate/1e6)
	fmt.Printf("edges detected: %d (noise floor %.2e)\n", res.EdgeCount, res.NoiseFloor)
	fmt.Printf("streams: %d (merged splits %d, SIC recovered %d, 2-way collisions %d, ≥3-way %d)\n",
		len(res.Streams), res.MergedSplits, res.RecoveredStreams, res.Collisions2, res.Collisions3)
	if *verbose {
		for i, sr := range res.Streams {
			fmt.Printf("  stream %2d: %s rate=%.0f offset=%.1f period=%.4f collided=%d conf=%.2f crc=%v\n",
				i, sr.Stream.Source, sr.Stream.Rate, sr.Stream.Offset, sr.Stream.Period, sr.CollidedSlots,
				sr.Confidence, sr.CRCOK)
		}
	}
	reportDropped(res)
	for _, ts := range score.PerTag {
		status := "lost"
		if ts.Registered {
			status = fmt.Sprintf("stream %d, %d/%d bits correct", ts.StreamID, ts.CorrectBits, ts.PayloadBits)
		}
		fmt.Printf("tag %2d: %s\n", ts.TagID, status)
	}
	fmt.Printf("aggregate goodput: %.1f kbps of %.1f kbps offered (BER %.4f)\n",
		score.AggregateBps/1e3, lf.OfferedBps(ep)/1e3, score.BER())
	if *stats {
		dumpStats(dec)
	}
}

// dumpStats prints the decoder's accumulated pipeline metrics as an
// expvar-style text listing.
func dumpStats(dec *lf.Decoder) {
	fmt.Println("pipeline stats:")
	if err := dec.Stats().WriteText(os.Stdout); err != nil {
		fatal(err)
	}
}

// reportDropped prints the decoder's graceful-degradation bookkeeping:
// where the decode gave up and why, per affected span or stream.
func reportDropped(res *lf.Result) {
	if len(res.Dropped) == 0 {
		return
	}
	fmt.Printf("dropped: %d\n", len(res.Dropped))
	for _, d := range res.Dropped {
		who := "capture"
		if d.Stream >= 0 {
			who = fmt.Sprintf("stream %d", d.Stream)
		}
		span := ""
		if d.Lo >= 0 {
			span = fmt.Sprintf(" samples [%d, %d)", d.Lo, d.Hi)
		}
		fmt.Printf("  %s: %s%s — %s\n", who, d.Reason, span, d.Detail)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lfsim:", err)
	os.Exit(1)
}
