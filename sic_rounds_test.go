package lf_test

import (
	"math"
	"testing"

	"lf"
)

// TestSICSecondRoundRecovers pins a second cancellation round that
// pays: on two 16-tag captures, round 2 recovers one more stream than
// round 1 alone and lowers the bit error rate (0.1525 → 0.1266 and
// 0.3516 → 0.3162), while a third round adds nothing. It guards against capping CancellationRounds at 1 on
// the belief that later rounds never recover.
func TestSICSecondRoundRecovers(t *testing.T) {
	for _, tc := range []struct {
		seed       int64
		ber1, ber2 float64
	}{
		{53, 0.1525, 0.1266},
		{77, 0.3516, 0.3162},
	} {
		net, err := lf.NewNetwork(lf.NetworkConfig{NumTags: 16, PayloadSeconds: 2e-3, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := net.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		var recovered [4]int
		var ber [4]float64
		for rounds := 1; rounds <= 3; rounds++ {
			cfg := net.DecoderConfig()
			cfg.CalibSamples = 32768
			cfg.CancellationRounds = rounds
			dec, err := lf.NewDecoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dec.Decode(ep)
			if err != nil {
				t.Fatal(err)
			}
			recovered[rounds] = res.RecoveredStreams
			ber[rounds] = lf.ScoreEpoch(ep, res).BER()
			t.Logf("seed %d rounds %d: recovered %d, BER %.4f", tc.seed, rounds, recovered[rounds], ber[rounds])
		}
		if recovered[2] != recovered[1]+1 {
			t.Errorf("seed %d: round 2 recovered %d streams beyond round 1, want 1", tc.seed, recovered[2]-recovered[1])
		}
		// The BERs to the four digits quoted: a decode change that moves
		// them shows here before the golden corpus is consulted.
		if math.Abs(ber[1]-tc.ber1) > 5e-5 || math.Abs(ber[2]-tc.ber2) > 5e-5 {
			t.Errorf("seed %d: BER %.4f with one round, %.4f with two; want %.4f, %.4f", tc.seed, ber[1], ber[2], tc.ber1, tc.ber2)
		}
		if recovered[3] != recovered[2] || ber[3] != ber[2] {
			t.Errorf("seed %d: round 3 changed the decode (recovered %d→%d, BER %.4f→%.4f)", tc.seed, recovered[2], recovered[3], ber[2], ber[3])
		}
	}
}
