package experiment

import (
	"fmt"

	"lf"
	"lf/internal/baseline/buzz"
	"lf/internal/baseline/tdma"
	"lf/internal/epc"
	"lf/internal/rng"
	"lf/internal/stats"
)

// lfIdentify runs the LF-Backscatter identification protocol of §5.2:
// every tag transmits its 96-bit EPC + CRC-5 each epoch at 100 kbps
// with a fresh random offset; tags whose frame decodes with a valid
// CRC are identified; the reader keeps issuing epochs until all tags
// are identified (or maxEpochs pass). Returns the total time.
func lfIdentify(n int, seed int64, maxEpochs int) (seconds float64, epochs int, err error) {
	src := rng.New(seed)
	ids := make([]epc.ID, n)
	idSet := make(map[epc.ID]bool)
	for i := range ids {
		ids[i] = epc.Random(src)
		idSet[ids[i]] = true
	}
	net, err := lf.NewNetwork(lf.NetworkConfig{
		NumTags: n,
		Seed:    seed,
	})
	if err != nil {
		return 0, 0, err
	}
	for i := range ids {
		if err := net.SetPayload(i, ids[i].Frame()); err != nil {
			return 0, 0, err
		}
	}
	identified := make(map[epc.ID]bool)
	for epochs < maxEpochs {
		epochs++
		ep, res, err := decodeEpoch(net, nil)
		if err != nil {
			return 0, 0, err
		}
		seconds += ep.Capture.Duration()
		for _, sr := range res.Streams {
			if id, ok := epc.ParseFrame(sr.Bits); ok && idSet[id] {
				identified[id] = true
			}
		}
		if len(identified) == len(ids) {
			return seconds, epochs, nil
		}
	}
	return seconds, epochs, nil
}

// buzzIdentify models Buzz inventorying: all tags transmit their
// 101-bit identification frames in lock-step; tags whose decoded frame
// fails its CRC force another full epoch (Buzz's lock-step retransmission
// includes everyone).
func buzzIdentify(n int, seed int64, maxEpochs int) (float64, error) {
	bc := buzz.DefaultConfig()
	bc.MessageBits = epc.FrameBits
	src := rng.New(seed)
	coeffs := randomCoeffs(n, src)
	nw, err := buzz.NewNetwork(bc, coeffs, src.Split("buzz"))
	if err != nil {
		return 0, err
	}
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = epc.Random(src).Frame()
	}
	var seconds float64
	for e := 0; e < maxEpochs; e++ {
		res, err := nw.Epoch(frames)
		if err != nil {
			return 0, err
		}
		seconds += res.Seconds
		ok := true
		for _, decoded := range res.Decoded {
			if !epc.CheckCRC5(decoded) {
				ok = false
				break
			}
		}
		if ok {
			return seconds, nil
		}
	}
	return seconds, nil
}

// Fig12 reproduces the node-identification latency comparison.
func Fig12(cfg Config) (*Result, error) {
	ns := []int{4, 8, 12, 16}
	if cfg.Quick {
		ns = []int{4, 8}
	}
	table := &stats.Table{
		Title:  "Fig. 12 — identification time (ms) vs number of devices",
		Header: []string{"nodes", "TDMA", "Buzz", "LF-Backscatter", "LF epochs", "TDMA/LF", "Buzz/LF"},
	}
	series := []stats.Series{{Label: "TDMA"}, {Label: "Buzz"}, {Label: "LF-Backscatter"}}
	src := rng.New(cfg.Seed)
	// The TDMA baseline draws from the shared source, so its per-n
	// splits are created serially in sweep order before the populations
	// fan out; everything else inside a point is seeded from (Seed, n).
	tdmaSrcs := make([]*rng.Source, len(ns))
	for i, n := range ns {
		tdmaSrcs[i] = src.Split(fmt.Sprint("tdma", n))
	}
	type point struct {
		tSec, bSec, lSec float64
		epochs           int
	}
	points, err := each(len(ns), func(i int) (point, error) {
		n := ns[i]
		// TDMA: Q-algorithm slotted ALOHA, averaged.
		tc := tdma.DefaultConfig()
		tc.SlotBits = epc.FrameBits
		tSec, err := tc.MeanInventorySeconds(n, 8, tdmaSrcs[i])
		if err != nil {
			return point{}, err
		}
		bSec, err := buzzIdentify(n, cfg.Seed+int64(n), 8)
		if err != nil {
			return point{}, err
		}
		lSec, epochs, err := lfIdentify(n, cfg.Seed+int64(n)*17, 12)
		if err != nil {
			return point{}, err
		}
		return point{tSec: tSec, bSec: bSec, lSec: lSec, epochs: epochs}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		p := points[i]
		table.AddRow(fmt.Sprint(n), ms(p.tSec), ms(p.bSec), ms(p.lSec), fmt.Sprint(p.epochs), ratio(p.tSec, p.lSec), ratio(p.bSec, p.lSec))
		series[0].Add(float64(n), p.tSec*1e3)
		series[1].Add(float64(n), p.bSec*1e3)
		series[2].Add(float64(n), p.lSec*1e3)
	}
	return &Result{Table: table, Series: series}, nil
}
