package experiment

import (
	"fmt"

	"lf"
	"lf/internal/baseline/buzz"
	"lf/internal/capacity"
	"lf/internal/reliable"
	"lf/internal/rng"
	"lf/internal/stats"
)

// DynamicsRobustness quantifies the paper's §2.2 argument for
// estimation-free decoding: Buzz separates signals through channel
// coefficients estimated at epoch start, so when the environment moves
// (Fig. 1) its decode degrades with estimation staleness — while
// LF-Backscatter re-derives everything it needs (edge vectors, grids)
// from each epoch's own preamble and clusters, so coefficient drift
// between epochs costs it nothing.
//
// Workload: 4 tags; between consecutive epochs every coefficient takes
// a random-walk step of the given relative scale. LF decodes each
// epoch fresh. Buzz (a) reuses its epoch-0 estimate (stale — what
// skipping re-estimation would buy in overhead costs in errors) and
// (b) re-estimates every epoch (fresh — correct but paying the pilot
// overhead every time).
func DynamicsRobustness(cfg Config) (*Result, error) {
	n := 4
	epochs := 5
	msgBits := 96
	driftScales := []float64{0, 0.05, 0.15, 0.3}
	if cfg.Quick {
		driftScales = []float64{0, 0.3}
		epochs = 3
	}
	table := &stats.Table{
		Title:  "Dynamics robustness — BER under inter-epoch coefficient drift",
		Header: []string{"drift/epoch", "LF", "Buzz (stale est.)", "Buzz (re-est.)"},
	}
	trials := 3
	if cfg.Quick {
		trials = 1
	}
	for _, scale := range driftScales {
		src := rng.New(cfg.Seed + int64(scale*1000))
		// --- LF: decode each epoch with the evolved channel, averaged
		// over a few deployments so one unlucky static geometry does
		// not dominate a row. ---
		var lfBER stats.BER
		for trial := 0; trial < trials; trial++ {
			net, err := lf.NewNetwork(lf.NetworkConfig{
				NumTags:        n,
				PayloadSeconds: float64(msgBits) / 100e3,
				Seed:           cfg.Seed + 17 + int64(trial)*101,
			})
			if err != nil {
				return nil, err
			}
			coeffs := append([]complex128(nil), net.Channel().Coeffs...)
			for e := 0; e < epochs; e++ {
				ep, out, err := decodeEpoch(net, nil)
				if err != nil {
					return nil, err
				}
				score := lf.ScoreEpoch(ep, out)
				lfBER.Add(score.TotalBits-score.CorrectBits, score.TotalBits)
				coeffs = driftStep(coeffs, scale, src.Split(fmt.Sprint("lf", trial, e)))
				if err := net.SetCoefficients(coeffs); err != nil {
					return nil, err
				}
			}
		}

		// --- Buzz over the same kind of drifting channel. ---
		bc := buzz.DefaultConfig()
		bc.MessageBits = msgBits
		bsrc := rng.New(cfg.Seed + 29)
		bCoeffs := randomCoeffs(n, bsrc)
		var staleBER, freshBER stats.BER
		var staleEst []complex128
		for e := 0; e < epochs; e++ {
			nw, err := buzz.NewNetwork(bc, bCoeffs, bsrc.Split(fmt.Sprint("bz", e)))
			if err != nil {
				return nil, err
			}
			freshEst, _ := nw.EstimateChannels()
			if e == 0 {
				staleEst = freshEst
			}
			msgs := make([][]byte, n)
			for j := range msgs {
				msgs[j] = bsrc.Bits(msgBits)
			}
			bits := make([]byte, n)
			for k := 0; k < msgBits; k++ {
				for j := 0; j < n; j++ {
					bits[j] = msgs[j][k]
				}
				staleRound, err := nw.TransmitRound(bits, staleEst)
				if err != nil {
					return nil, err
				}
				freshRound, err := nw.TransmitRound(bits, freshEst)
				if err != nil {
					return nil, err
				}
				for j := 0; j < n; j++ {
					staleBER.Add(boolErr(staleRound.Decoded[j] != bits[j]), 1)
					freshBER.Add(boolErr(freshRound.Decoded[j] != bits[j]), 1)
				}
			}
			bCoeffs = driftStep(bCoeffs, scale, bsrc.Split(fmt.Sprint("drift", e)))
		}
		table.AddRow(fmt.Sprintf("%.0f%%", scale*100),
			fmt.Sprintf("%.4f", lfBER.Rate()),
			fmt.Sprintf("%.4f", staleBER.Rate()),
			fmt.Sprintf("%.4f", freshBER.Rate()))
	}
	return &Result{Table: table}, nil
}

func boolErr(b bool) int {
	if b {
		return 1
	}
	return 0
}

// driftStep applies one inter-epoch random-walk step of relative
// magnitude scale to every coefficient.
func driftStep(coeffs []complex128, scale float64, src *rng.Source) []complex128 {
	out := make([]complex128, len(coeffs))
	for i, h := range coeffs {
		out[i] = h * (1 + complex(src.Norm(0, scale), src.Norm(0, scale)))
	}
	return out
}

// ReliableTransfer measures the §3.6 retransmission protocol:
// epochs-to-complete and total airtime for reliable delivery of one
// CRC-protected message per tag, across network sizes.
func ReliableTransfer(cfg Config) (*Result, error) {
	ns := []int{2, 4, 8, 12}
	if cfg.Quick {
		ns = []int{2, 4}
	}
	table := &stats.Table{
		Title:  "Reliable transfer (§3.6) — epochs and airtime to deliver 96 bits/tag",
		Header: []string{"nodes", "epochs", "airtime(ms)", "complete", "rate reductions"},
	}
	for _, n := range ns {
		net, err := lf.NewNetwork(lf.NetworkConfig{NumTags: n, Seed: cfg.Seed + int64(n)})
		if err != nil {
			return nil, err
		}
		src := rng.New(cfg.Seed + 7)
		msgs := make([]reliable.Message, n)
		for i := range msgs {
			msgs[i] = reliable.Message{TagID: i, Data: src.Bits(96)}
		}
		rcfg := reliable.DefaultConfig()
		rcfg.Seed = cfg.Seed
		res, err := reliable.Collect(net, msgs, rcfg)
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprint(n), fmt.Sprint(len(res.Epochs)), ms(res.Seconds),
			fmt.Sprint(res.Complete), fmt.Sprint(res.RateReductions))
	}
	return &Result{Table: table}, nil
}

// ScalabilityLowRate probes the paper's §5.2 scaling argument: at a
// lower bit rate the phase space per period is larger, so many more
// tags fit before edge interleaving saturates — "set bitrate to a
// lower number, say 10 kbps, and ... support a few hundred tags".
// We sweep the tag count at 10 kbps and report registration and
// goodput.
func ScalabilityLowRate(cfg Config) (*Result, error) {
	ns := []int{8, 16, 24, 32}
	payloadBits := 96
	if cfg.Quick {
		ns = []int{8, 16}
	}
	table := &stats.Table{
		Title:  "Scalability at 10 kbps (§5.2) — many tags at a reduced rate",
		Header: []string{"nodes", "registered", "goodput(kbps)", "offered(kbps)", "fraction"},
	}
	for _, n := range ns {
		var agg, offered float64
		reg, total := 0, 0
		for e := 0; e < cfg.Epochs; e++ {
			ep, out, err := decodeNew(lf.NetworkConfig{
				NumTags:     n,
				BitRates:    []float64{10e3},
				PayloadBits: []int{payloadBits},
				Seed:        cfg.Seed + int64(n*7+e),
			}, nil)
			if err != nil {
				return nil, err
			}
			score := lf.ScoreEpoch(ep, out)
			agg += score.AggregateBps
			offered += lf.OfferedBps(ep)
			reg += score.Registered
			total += n
		}
		e := float64(cfg.Epochs)
		table.AddRow(fmt.Sprint(n), fmt.Sprintf("%d/%d", reg, total),
			kbps(agg/e), kbps(offered/e), fmt.Sprintf("%.0f%%", 100*agg/offered))
	}
	return &Result{Table: table}, nil
}

// CapacityModel evaluates the paper's analytic edge-interleaving and
// collision model (§2.4, §3.3) at the evaluation's operating points —
// the arithmetic that predicts where Fig. 10 saturates and why §5.2's
// rate reduction scales to hundreds of tags.
func CapacityModel(cfg Config) (*Result, error) {
	table := &stats.Table{
		Title:  "Capacity model (§2.4/§3.3) — edge interleaving and collision probabilities",
		Header: []string{"tags", "rate(kbps)", "samples/bit", "edge capacity", "P(2-way)", "P(3-way)"},
	}
	points := []struct {
		n    int
		rate float64
	}{
		{16, 100e3},
		{16, 250e3},
		{33, 250e3},
		{200, 10e3},
	}
	for _, pt := range points {
		s := capacity.Describe(25e6, pt.n, pt.rate, capacity.PaperWindow)
		table.AddRow(fmt.Sprint(s.Tags), kbps(s.BitRate), fmt.Sprintf("%.0f", s.SamplesPerBit),
			fmt.Sprint(s.EdgeCapacity), fmt.Sprintf("%.4f", s.ProbTwoWay), fmt.Sprintf("%.4f", s.ProbThreeWay))
	}
	return &Result{Table: table}, nil
}
