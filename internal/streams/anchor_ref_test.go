package streams

import (
	"math"
	"sort"
	"testing"

	"lf/internal/edgedetect"
	"lf/internal/rng"
)

// anchorScanExhaustive is the frame-head scan without the
// branch-and-bound cut or the perfect-score exit: it scores the whole
// template at every lattice position the empty-stretch skip leaves and
// keeps the first strictly best one. The skip stays because it decides
// the lattice positions themselves: a jump of n periods accumulates
// pos differently in the last bits than n single steps. anchorScan
// must return exactly what this returns.
func anchorScanExhaustive(edges []edgedetect.Edge, offset, period float64, gens []complex128, target int, shadowed bool, cfg Config) float64 {
	missPenalty, minScore := headGate(gens, target, shadowed, cfg)
	occ := func(pos float64, slotsAway int) bool {
		tol := float64(cfg.PosTol) + 2 + math.Abs(float64(slotsAway))*period*cfg.DriftPPM/1e6
		return eOccupied(edges, new(int), pos, tol, gens, target, nil)
	}
	canSkip := cfg.PreambleLen*missPenalty+3 < minScore
	tolMax := float64(cfg.PosTol) + 2 + float64(cfg.PreambleLen)*period*cfg.DriftPPM/1e6
	maxExtent := 0.0
	for _, e := range edges {
		maxExtent = math.Max(maxExtent, float64(e.Pos-e.First))
	}
	winLo := 2*period + tolMax + 16
	winHi := float64(cfg.PreambleLen)*period + tolMax + maxExtent
	m := int(offset / period)
	best, bestScore := offset, -1000
	for pos := offset - float64(m)*period; pos <= float64(cfg.MaxStart); pos += period {
		if canSkip {
			i := sort.Search(len(edges), func(i int) bool { return float64(edges[i].Pos) >= pos-winLo })
			if i == len(edges) {
				break
			}
			if e := float64(edges[i].Pos); e > pos+winHi {
				pos += (math.Ceil((e-winHi-pos)/period) - 1) * period
				continue
			}
		}
		score := 0
		for k := 0; k < cfg.PreambleLen; k++ {
			if occ(pos+float64(k)*period, k) {
				score += 2
			} else {
				score += missPenalty
			}
		}
		for k := -2; k < 0; k++ {
			if occ(pos+float64(k)*period, k) {
				score -= 2
			} else {
				score++
			}
		}
		if !occ(pos+float64(cfg.PreambleLen)*period, cfg.PreambleLen) {
			score++
		}
		if score > bestScore {
			best, bestScore = pos, score
		}
	}
	if bestScore < minScore {
		return -1
	}
	return best
}

// PruneTally counts, per miss-penalty regime (index 0: −2, index 1:
// 0), the anchorScan calls checked, the lattice positions the scan
// began scoring, and how many of those the bound cut short.
type PruneTally struct {
	Calls, Scored, Cut, Found [2]int
}

// CheckAnchorScan asserts that anchorScan returns exactly what the
// exhaustive scan returns for one call, and tallies the cut: a
// position the scan completes probes slot −2 after the preamble, so
// positions probed at slot 0 but never at slot −2 were cut.
func CheckAnchorScan(t *testing.T, tally *PruneTally, edges []edgedetect.Edge, offset, period float64, gens []complex128, target int, shadowed bool, cfg Config) {
	t.Helper()
	want := anchorScanExhaustive(edges, offset, period, gens, target, shadowed, cfg)
	got := anchorScan(edges, offset, period, gens, target, shadowed, cfg)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("anchorScan(offset %v, period %v, %d gens, target %d, shadowed %v) = %v, exhaustive scan %v",
			offset, period, len(gens), target, shadowed, got, want)
	}
	missPenalty, minScore := headGate(gens, target, shadowed, cfg)
	regime := 0
	if missPenalty == 0 {
		regime = 1
	}
	memo := getLatticeMemo(len(edges), gens[target])
	defer memoPool.Put(memo)
	probe := headProbe(edges, period, gens, target, cfg, memo)
	counted := scanHeads(edges, offset, period, missPenalty, minScore, cfg, func(pos float64, slotsAway int) bool {
		switch slotsAway {
		case 0:
			tally.Scored[regime]++
			tally.Cut[regime]++
		case -2:
			tally.Cut[regime]--
		}
		return probe(pos, slotsAway)
	})
	if math.Float64bits(counted) != math.Float64bits(got) {
		t.Fatalf("instrumented scan returned %v, anchorScan %v", counted, got)
	}
	tally.Calls[regime]++
	if got >= 0 {
		tally.Found[regime]++
	}
}

// CheckRandomAnchorScans runs CheckAnchorScan over n randomized edge
// sets on a 250-sample slot grid with preamble lengths 3-8: background
// edges at several
// densities whose differentials are random lattice points of one to
// three generators (a near-antipodal pair among them a third of the
// time, so the cancellable regime comes up unshadowed too), up to two
// planted frame heads with a preamble edge sometimes dropped, and
// random scan origins, targets and shadowing.
func CheckRandomAnchorScans(t *testing.T, tally *PruneTally, seed int64, n int) {
	t.Helper()
	src := rng.New(seed)
	for c := 0; c < n; c++ {
		cfg := DefaultConfig(25e6, []float64{100e3})
		// The cut's ceiling moves in steps of 4 (penalty −2) or 2
		// (penalty 0) from 2·PreambleLen+3, so only some preamble
		// lengths put it exactly on minScore or minScore−1.
		cfg.PreambleLen = 3 + src.Intn(6)
		period := 250 + src.Uniform(-0.5, 0.5)
		gens := make([]complex128, 1+src.Intn(3))
		for i := range gens {
			gens[i] = complex(src.Uniform(4e-4, 1.2e-3), 0) * src.UnitPhasor()
		}
		if len(gens) > 1 && src.Intn(3) == 0 {
			gens[1] = -gens[0] * complex(src.Uniform(0.85, 1.15), src.Uniform(-0.1, 0.1))
		}
		target := src.Intn(len(gens))
		slots := 40 + src.Intn(120)
		cfg.MaxStart = int64(float64(slots) * period)

		// Per-slot coefficient of every generator; all-zero means no edge.
		coef := make([][]float64, slots)
		density := []float64{0.1, 0.35, 0.6, 0.85}[src.Intn(4)]
		for k := range coef {
			coef[k] = make([]float64, len(gens))
			if src.Float64() < density {
				for i := range gens {
					coef[k][i] = float64(src.Intn(3) - 1)
				}
			}
		}
		for h := src.Intn(3); h > 0; h-- {
			start := 2 + src.Intn(slots-cfg.PreambleLen-3)
			coef[start-2][target], coef[start-1][target] = 0, 0
			for k := 0; k < cfg.PreambleLen; k++ {
				coef[start+k][target] = 1 - 2*float64(k%2)
			}
			coef[start+cfg.PreambleLen][target] = 0
			if src.Intn(2) == 0 {
				coef[start+src.Intn(cfg.PreambleLen)][target] = 0
			}
		}

		var edges []edgedetect.Edge
		for k, cs := range coef {
			var d complex128
			for i, a := range cs {
				d += complex(a, 0) * gens[i]
			}
			if d == 0 {
				continue
			}
			p := int64(math.Round(float64(k)*period + src.Uniform(-3, 3)))
			edges = append(edges, edgedetect.Edge{
				Pos: p, First: p - int64(src.Intn(3)), Last: p + int64(src.Intn(3)),
				Diff: d + src.ComplexNorm(1e-10), Peaks: 1,
			})
		}
		offset := float64(src.Intn(slots))*period + src.Uniform(-4, 4)
		if offset < 0 {
			offset += period
		}
		CheckAnchorScan(t, tally, edges, offset, period, gens, target, src.Intn(2) == 0, cfg)
	}
}
