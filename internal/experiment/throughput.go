package experiment

import (
	"fmt"

	"lf"
	"lf/internal/baseline/buzz"
	"lf/internal/baseline/tdma"
	"lf/internal/decoder"
	"lf/internal/rng"
	"lf/internal/stats"
)

// lfThroughput measures LF-Backscatter aggregate goodput for n tags at
// the given per-tag rate, averaged over cfg.Epochs epochs, using the
// given pipeline stages. It returns mean aggregate and offered bps.
// Epochs are independently seeded and summed in epoch order, so the
// means do not depend on GOMAXPROCS.
func lfThroughput(cfg Config, n int, rate float64, stages lf.Stages, seed int64) (agg, offered float64, err error) {
	payloadSeconds := 2e-3
	if cfg.Quick {
		payloadSeconds = 1e-3
	}
	type epochOut struct{ agg, offered float64 }
	outs, err := each(cfg.Epochs, func(e int) (epochOut, error) {
		ep, res, err := decodeNew(lf.NetworkConfig{
			NumTags:        n,
			BitRates:       []float64{rate},
			PayloadSeconds: payloadSeconds,
			Seed:           seed + int64(e)*7919,
		}, func(d *lf.DecoderConfig) { d.Stages = stages })
		if err != nil {
			return epochOut{}, err
		}
		return epochOut{lf.ScoreEpoch(ep, res).AggregateBps, lf.OfferedBps(ep)}, nil
	})
	if err != nil {
		return 0, 0, err
	}
	for _, out := range outs {
		agg += out.agg
		offered += out.offered
	}
	return agg / float64(cfg.Epochs), offered / float64(cfg.Epochs), nil
}

// buzzThroughput runs an actual Buzz epoch simulation over a channel
// with n coefficients and returns the measured aggregate goodput.
func buzzThroughput(cfg Config, n int, seed int64) (float64, error) {
	bc := buzz.DefaultConfig()
	if cfg.Quick {
		bc.MessageBits = 32
	}
	src := rng.New(seed)
	coeffs := randomCoeffs(n, src)
	nw, err := buzz.NewNetwork(bc, coeffs, src.Split("buzz"))
	if err != nil {
		return 0, err
	}
	messages := make([][]byte, n)
	for j := range messages {
		messages[j] = src.Bits(bc.MessageBits)
	}
	res, err := nw.Epoch(messages)
	if err != nil {
		return 0, err
	}
	return res.AggregateBps, nil
}

// randomCoeffs draws plausible tag channel coefficients (the same
// magnitude range the radar-equation placement produces at ~2 m).
func randomCoeffs(n int, src *rng.Source) []complex128 {
	coeffs := make([]complex128, n)
	for i := range coeffs {
		amp := 8e-4 * src.Tolerance(0.4)
		coeffs[i] = complex(amp, 0) * src.UnitPhasor()
	}
	return coeffs
}

// Fig8 reproduces the aggregate-throughput comparison: TDMA, Buzz and
// LF-Backscatter as the number of 100 kbps nodes grows from 4 to 16.
func Fig8(cfg Config) (*Result, error) {
	ns := []int{4, 8, 12, 16}
	if cfg.Quick {
		ns = []int{4, 8}
	}
	table := &stats.Table{
		Title:  "Fig. 8 — aggregate throughput (kbps) vs number of devices",
		Header: []string{"nodes", "TDMA", "Buzz", "LF-Backscatter", "max possible", "LF/TDMA", "LF/Buzz"},
	}
	series := []stats.Series{{Label: "TDMA"}, {Label: "Buzz"}, {Label: "LF-Backscatter"}, {Label: "max"}}
	for _, n := range ns {
		t := tdma.DefaultConfig().Transfer(n).AggregateBps
		b, err := buzzThroughput(cfg, n, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		l, offered, err := lfThroughput(cfg, n, 100e3, lf.AllStages(), cfg.Seed+int64(n)*31)
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprint(n), kbps(t), kbps(b), kbps(l), kbps(offered), ratio(l, t), ratio(l, b))
		series[0].Add(float64(n), t)
		series[1].Add(float64(n), b)
		series[2].Add(float64(n), l)
		series[3].Add(float64(n), offered)
	}
	return &Result{Table: table, Series: series}, nil
}

// stageSets is the decoding-stage ladder Figs. 9 and 10 sweep.
var stageSets = []struct {
	label  string
	stages lf.Stages
}{
	{"Edge", lf.Stages{}},
	{"Edge+IQ", lf.Stages{IQSeparation: true}},
	{"Edge+IQ+Error", lf.Stages{IQSeparation: true, ErrorCorrection: true}},
}

// Fig9 reproduces the decoding-stage breakdown: edge-based concurrency
// alone, plus IQ collision separation, plus Viterbi error correction.
func Fig9(cfg Config) (*Result, error) {
	ns := []int{4, 8, 12, 16}
	if cfg.Quick {
		ns = []int{4, 8}
	}
	table := &stats.Table{
		Title:  "Fig. 9 — decoding module contribution to throughput (kbps)",
		Header: []string{"nodes", "Edge", "Edge+IQ", "Edge+IQ+Error"},
	}
	series := make([]stats.Series, len(stageSets))
	for i, ss := range stageSets {
		series[i].Label = ss.label
	}
	for _, n := range ns {
		row := []string{fmt.Sprint(n)}
		for i, ss := range stageSets {
			l, _, err := lfThroughput(cfg, n, 100e3, ss.stages, cfg.Seed+int64(n)*31)
			if err != nil {
				return nil, err
			}
			row = append(row, kbps(l))
			series[i].Add(float64(n), l)
		}
		table.AddRow(row...)
	}
	return &Result{Table: table, Series: series}, nil
}

// Fig10 reproduces the bit-rate sweep: sixteen nodes all transmitting
// at the same rate, swept up to the point where edge interleaving
// saturates and throughput collapses. As in the paper, the sweep runs
// per decoding stage — IQ collision recovery and error correction pull
// throughput back up precisely where edges start colliding en masse.
func Fig10(cfg Config) (*Result, error) {
	rates := []float64{10e3, 50e3, 100e3, 150e3, 200e3, 250e3, 300e3}
	n := 16
	if cfg.Quick {
		rates = []float64{50e3, 150e3, 250e3}
		n = 8
	}
	table := &stats.Table{
		Title:  fmt.Sprintf("Fig. 10 — LF-Backscatter throughput (kbps), %d nodes, per-node bit rate sweep", n),
		Header: []string{"bitrate(kbps)", "Edge", "Edge+IQ", "Edge+IQ+Error", "offered"},
	}
	series := make([]stats.Series, len(stageSets)+1)
	for i, ss := range stageSets {
		series[i].Label = ss.label
	}
	series[len(stageSets)].Label = "offered"
	for _, r := range rates {
		row := []string{kbps(r)}
		var offered float64
		for i, ss := range stageSets {
			l, off, err := lfThroughput(cfg, n, r, ss.stages, cfg.Seed+int64(r))
			if err != nil {
				return nil, err
			}
			offered = off
			row = append(row, kbps(l))
			series[i].Add(r/1e3, l)
		}
		row = append(row, kbps(offered))
		series[len(stageSets)].Add(r/1e3, offered)
		table.AddRow(row...)
	}
	return &Result{Table: table, Series: series}, nil
}

// Fig11 reproduces the slow/fast coexistence experiment: pairs of
// nodes at rates from 0.5 kbps to 100 kbps transmitting concurrently;
// per-node goodput against its own offered rate.
func Fig11(cfg Config) (*Result, error) {
	rateSet := []float64{500, 1e3, 2e3, 5e3, 10e3, 50e3, 100e3}
	if cfg.Quick {
		rateSet = []float64{1e3, 10e3, 100e3}
	}
	var rates []float64
	for _, r := range rateSet {
		rates = append(rates, r, r)
	}
	ep, res, err := decodeNew(lf.NetworkConfig{
		BitRates:       rates,
		PayloadSeconds: 40e-3,
		Seed:           cfg.Seed,
	}, nil)
	if err != nil {
		return nil, err
	}
	score := lf.ScoreEpoch(ep, res)
	table := &stats.Table{
		Title:  "Fig. 11 — per-node throughput with mixed bit rates (kbps)",
		Header: []string{"node", "bitrate", "achieved", "upper bound"},
	}
	series := []stats.Series{{Label: "achieved"}, {Label: "upper bound"}}
	dur := ep.Capture.Duration()
	for i, ts := range score.PerTag {
		achieved := float64(ts.CorrectBits) / dur
		bound := float64(ts.PayloadBits) / dur
		table.AddRow(fmt.Sprint(i), kbps(rates[i]), kbps(achieved), kbps(bound))
		series[0].Add(float64(i), achieved)
		series[1].Add(float64(i), bound)
	}
	return &Result{Table: table, Series: series}, nil
}

// ablationPoint decodes cfg.Epochs epochs of n tags at the default
// 100 kbps with the decoder adjusted by tweak, and returns the mean
// aggregate goodput and the streams registered over all epochs.
func ablationPoint(cfg Config, n int, tweak func(*lf.DecoderConfig)) (agg float64, registered int, err error) {
	scores, err := each(cfg.Epochs, func(e int) (lf.Score, error) {
		ep, res, err := decodeNew(lf.NetworkConfig{
			NumTags:        n,
			PayloadSeconds: 2e-3,
			Seed:           cfg.Seed + int64(e)*13,
		}, tweak)
		if err != nil {
			return lf.Score{}, err
		}
		return lf.ScoreEpoch(ep, res), nil
	})
	if err != nil {
		return 0, 0, err
	}
	for _, s := range scores {
		agg += s.AggregateBps
		registered += s.Registered
	}
	return agg / float64(cfg.Epochs), registered, nil
}

// AblationSeparation compares the collision-separation strategies —
// the paper's blind parallelogram against the preamble-anchored
// classifier and the hybrid default.
func AblationSeparation(cfg Config) (*Result, error) {
	modes := []struct {
		label string
		mode  decoder.SeparationMode
	}{
		{"hybrid", decoder.SeparationHybrid},
		{"anchored", decoder.SeparationAnchored},
		{"blind", decoder.SeparationBlind},
	}
	table := &stats.Table{
		Title:  "Ablation — collision separation strategy (8 nodes @100 kbps)",
		Header: []string{"mode", "throughput(kbps)"},
	}
	for _, m := range modes {
		agg, _, err := ablationPoint(cfg, 8, func(d *lf.DecoderConfig) { d.Separation = m.mode })
		if err != nil {
			return nil, err
		}
		table.AddRow(m.label, kbps(agg))
	}
	return &Result{Table: table}, nil
}

// AblationRegistration compares stream registration strategies: the
// paper's eye-pattern folding against naive preamble matching.
func AblationRegistration(cfg Config) (*Result, error) {
	modes := []struct {
		label string
		mode  lf.RegistrationMode
	}{
		{"eye", lf.RegisterEyeOnly},
		{"preamble", lf.RegisterPreambleOnly},
		{"both", lf.RegisterBoth},
	}
	n := 12
	table := &stats.Table{
		Title:  "Ablation — stream registration strategy (12 nodes @100 kbps)",
		Header: []string{"mode", "registered", "throughput(kbps)"},
	}
	for _, m := range modes {
		agg, reg, err := ablationPoint(cfg, n, func(d *lf.DecoderConfig) { d.Registration = m.mode })
		if err != nil {
			return nil, err
		}
		table.AddRow(m.label, fmt.Sprintf("%d/%d", reg, n*cfg.Epochs), kbps(agg))
	}
	return &Result{Table: table}, nil
}
