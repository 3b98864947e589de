// Package collide separates two-tag edge collisions in the IQ plane
// (§3.4). When the edges of two tags land on the same samples, the
// observed edge differential is a·e₁ + b·e₂ with a,b ∈ {−1, 0, +1}
// (falling, constant, rising per tag), so the differentials observed
// across the epoch form nine clusters arranged as a parallelogram
// lattice. The paper's construction recovers e₁ and e₂ from the
// cluster centroids alone — no channel estimation: the centroid at the
// origin is the (0,0) case; among the remaining eight, each pure-edge
// vector (±e₁, ±e₂) is the midpoint of a collinear centroid triple.
package collide

import (
	"errors"
	"math"
	"math/cmplx"

	"lf/internal/cluster"
	"lf/internal/obs"
	"lf/internal/rng"
)

// State is a per-tag edge state at a collision position.
type State int8

const (
	// Falling edge (antenna tuned → detuned): contributes −e.
	Falling State = -1
	// Constant (no toggle): contributes 0.
	Constant State = 0
	// Rising edge (detuned → tuned): contributes +e.
	Rising State = 1
)

// ErrDegenerate is returned when the nine-cluster parallelogram cannot
// be resolved — typically because the two tags' channel coefficients
// are too close to parallel (their clusters overlap), or because too
// few collision observations were available.
var ErrDegenerate = errors.New("collide: degenerate collision geometry")

// Separation is the result of separating a recurring two-tag collision.
type Separation struct {
	// E1, E2 are the recovered per-tag edge vectors. Which physical
	// tag each belongs to is not knowable from geometry alone; the
	// caller matches them against stream anchors (or ground truth in
	// calibration experiments).
	E1, E2 complex128
	// States[i] is the classified (a, b) pair for input point i.
	States [][2]State
}

// Classify maps one observed differential to the nearest lattice
// combination a·e1 + b·e2 and returns (a, b).
func Classify(d, e1, e2 complex128) (State, State) {
	best := math.Inf(1)
	var ba, bb State
	for a := -1; a <= 1; a++ {
		for b := -1; b <= 1; b++ {
			p := complex(float64(a), 0)*e1 + complex(float64(b), 0)*e2
			if dist := cmplx.Abs(d - p); dist < best {
				best = dist
				ba, bb = State(a), State(b)
			}
		}
	}
	return ba, bb
}

// Lattice returns the nine ideal cluster centres for edge vectors
// e1, e2, in row-major (a, b) order with a, b ∈ {−1, 0, 1}.
func Lattice(e1, e2 complex128) []complex128 {
	out := make([]complex128, 0, 9)
	for a := -1; a <= 1; a++ {
		for b := -1; b <= 1; b++ {
			out = append(out, complex(float64(a), 0)*e1+complex(float64(b), 0)*e2)
		}
	}
	return out
}

// Parallelogram recovers the two edge vectors from nine cluster
// centroids via the paper's collinear-triple construction:
//
//  1. the centroid nearest the origin is (0,0) and is removed;
//  2. for every pair of remaining centroids whose midpoint coincides
//     with a third centroid, that third centroid is a pure-edge vector
//     (±e₁ or ±e₂) — corners e₁±e₂ are never midpoints;
//  3. the four voted centroids pair up as ±e₁ and ±e₂.
func Parallelogram(centroids []complex128) (e1, e2 complex128, err error) {
	if len(centroids) != 9 {
		return 0, 0, errors.New("collide: parallelogram needs exactly 9 centroids")
	}
	// Scale for tolerances: median centroid magnitude.
	scale := medianAbs(centroids)
	if scale == 0 {
		return 0, 0, ErrDegenerate
	}
	tol := 0.25 * scale

	// Step 1: drop the origin centroid.
	oi := 0
	for i, c := range centroids {
		if cmplx.Abs(c) < cmplx.Abs(centroids[oi]) {
			oi = i
		}
	}
	rest := make([]complex128, 0, 8)
	for i, c := range centroids {
		if i != oi {
			rest = append(rest, c)
		}
	}

	// Step 2: vote midpoints.
	votes := make([]int, len(rest))
	for i := 0; i < len(rest); i++ {
		for j := i + 1; j < len(rest); j++ {
			mid := (rest[i] + rest[j]) / 2
			if cmplx.Abs(mid) < tol {
				continue // the ±v pairs midpoint at the origin
			}
			for k := range rest {
				if k == i || k == j {
					continue
				}
				if cmplx.Abs(rest[k]-mid) < tol {
					votes[k]++
				}
			}
		}
	}
	var cand []complex128
	for i, v := range votes {
		if v > 0 {
			cand = append(cand, rest[i])
		}
	}
	if len(cand) < 4 {
		return 0, 0, ErrDegenerate
	}
	// Keep the four most-voted candidates if noise produced extras.
	if len(cand) > 4 {
		cand = topVoted(rest, votes, 4)
	}

	// Step 3: pair candidates into ±e₁ and ±e₂.
	e1 = cand[0]
	// Its negation:
	negIdx := -1
	for i := 1; i < len(cand); i++ {
		if cmplx.Abs(cand[i]+e1) < tol {
			negIdx = i
			break
		}
	}
	if negIdx < 0 {
		return 0, 0, ErrDegenerate
	}
	var others []complex128
	for i := 1; i < len(cand); i++ {
		if i != negIdx {
			others = append(others, cand[i])
		}
	}
	if len(others) != 2 || cmplx.Abs(others[0]+others[1]) > tol {
		return 0, 0, ErrDegenerate
	}
	e2 = others[0]
	// Refine: average each vector with the negation of its pair.
	e1 = (e1 - cand[negIdx]) / 2
	e2 = (others[0] - others[1]) / 2
	// Reject near-parallel geometry: separation quality depends on the
	// relative angle between the vectors.
	cross := real(e1)*imag(e2) - imag(e1)*real(e2)
	if math.Abs(cross) < 0.05*cmplx.Abs(e1)*cmplx.Abs(e2) {
		return 0, 0, ErrDegenerate
	}
	return e1, e2, nil
}

func topVoted(rest []complex128, votes []int, n int) []complex128 {
	type iv struct {
		i, v int
	}
	order := make([]iv, len(rest))
	for i := range rest {
		order[i] = iv{i, votes[i]}
	}
	// Selection sort is fine for 8 items.
	for a := 0; a < len(order); a++ {
		for b := a + 1; b < len(order); b++ {
			if order[b].v > order[a].v {
				order[a], order[b] = order[b], order[a]
			}
		}
	}
	out := make([]complex128, 0, n)
	for _, o := range order[:n] {
		out = append(out, rest[o.i])
	}
	return out
}

func medianAbs(cs []complex128) float64 {
	mags := make([]float64, len(cs))
	for i, c := range cs {
		mags[i] = cmplx.Abs(c)
	}
	// Insertion sort (9 elements).
	for i := 1; i < len(mags); i++ {
		for j := i; j > 0 && mags[j] < mags[j-1]; j-- {
			mags[j], mags[j-1] = mags[j-1], mags[j]
		}
	}
	if len(mags) == 0 {
		return 0
	}
	return mags[len(mags)/2]
}

// SeparateBlind runs the full paper pipeline on the differentials
// observed at one recurring collision position: k-means into nine
// clusters, parallelogram recovery of e₁/e₂, then per-point
// classification. It needs enough points to populate the lattice
// (nominally ≥ 18; the paper's periodic-collision structure provides
// one point per repeated bit slot).
func SeparateBlind(points []complex128, src *rng.Source) (*Separation, error) {
	return SeparateBlindWarm(points, src, nil)
}

// SeparateBlindWarm is SeparateBlind with an optional k-means
// warm-start cache: recurring collision positions in one decode see
// near-identical lattice populations, so the converged nine-centroid
// configuration of one position seeds an extra descent at the next
// (adopted only on strictly lower inertia — see cluster.KMeansWarm).
func SeparateBlindWarm(points []complex128, src *rng.Source, w *cluster.Warm) (*Separation, error) {
	if len(points) < 18 {
		return nil, ErrDegenerate
	}
	res := cluster.KMeansWarm(points, 9, 6, 100, src, w)
	e1, e2, err := Parallelogram(res.Centroids)
	if err != nil {
		return nil, err
	}
	sep := &Separation{E1: e1, E2: e2, States: make([][2]State, len(points))}
	for i, p := range points {
		a, b := Classify(p, e1, e2)
		sep.States[i] = [2]State{a, b}
	}
	return sep, nil
}

// SeparateAnchored classifies the differentials against known edge
// vectors (recovered from each stream's preamble) instead of running
// the blind parallelogram. The decoder uses it when a collision
// position recurs too few times to populate nine clusters.
func SeparateAnchored(points []complex128, e1, e2 complex128) *Separation {
	sep := &Separation{E1: e1, E2: e2, States: make([][2]State, len(points))}
	for i, p := range points {
		a, b := Classify(p, e1, e2)
		sep.States[i] = [2]State{a, b}
	}
	return sep
}

// RecoverAntipodal recovers two edge vectors from a clustering of
// collision differentials when the parallelogram's corner clusters are
// too thin (as happens when the colliding tags' clocks drift apart and
// most observations land on the pure-edge clusters): it pairs up
// antipodal centroids (c, −c), ranks the pairs by population, and
// returns the two heaviest non-parallel pairs' vectors.
func RecoverAntipodal(centroids []complex128, counts []int) (e1, e2 complex128, err error) {
	if len(centroids) != len(counts) {
		return 0, 0, errors.New("collide: centroid/count length mismatch")
	}
	scale := medianAbs(centroids)
	if scale == 0 {
		return 0, 0, ErrDegenerate
	}
	tol := 0.3 * scale
	type pair struct {
		v      complex128
		weight int
	}
	var pairs []pair
	used := make([]bool, len(centroids))
	for i := range centroids {
		if used[i] || cmplx.Abs(centroids[i]) < tol {
			continue
		}
		for j := i + 1; j < len(centroids); j++ {
			if used[j] {
				continue
			}
			if cmplx.Abs(centroids[i]+centroids[j]) < tol {
				used[i], used[j] = true, true
				pairs = append(pairs, pair{
					v:      (centroids[i] - centroids[j]) / 2,
					weight: counts[i] + counts[j],
				})
				break
			}
		}
	}
	if len(pairs) < 2 {
		return 0, 0, ErrDegenerate
	}
	// Selection sort by weight (tiny slice).
	for a := 0; a < len(pairs); a++ {
		for b := a + 1; b < len(pairs); b++ {
			if pairs[b].weight > pairs[a].weight {
				pairs[a], pairs[b] = pairs[b], pairs[a]
			}
		}
	}
	// The antipodal pairs include not only the generators ±e₁, ±e₂ but
	// often the corners ±(e₁+e₂), ±(e₁−e₂). The generator pair is the
	// one whose sum AND difference both reappear (up to sign) among the
	// other pair vectors — for a generator-corner pair only one of the
	// two does. Closure score first, population weight as tiebreak.
	near := func(v complex128) bool {
		for _, p := range pairs {
			if cmplx.Abs(v-p.v) < tol || cmplx.Abs(v+p.v) < tol {
				return true
			}
		}
		return false
	}
	bestScore, bestWeight := -1, -1
	for i := 0; i < len(pairs); i++ {
		for j := i + 1; j < len(pairs); j++ {
			vi, vj := pairs[i].v, pairs[j].v
			cross := real(vi)*imag(vj) - imag(vi)*real(vj)
			if math.Abs(cross) < 0.05*cmplx.Abs(vi)*cmplx.Abs(vj) {
				continue // parallel: not a generator pair
			}
			score := 0
			if near(vi + vj) {
				score++
			}
			if near(vi - vj) {
				score++
			}
			weight := pairs[i].weight + pairs[j].weight
			if score > bestScore || (score == bestScore && weight > bestWeight) {
				bestScore, bestWeight = score, weight
				e1, e2 = vi, vj
			}
		}
	}
	if bestScore < 0 {
		return 0, 0, ErrDegenerate
	}
	return e1, e2, nil
}

// ClassifyJoint maps one observed differential to the nearest lattice
// combination over k edge vectors, Σᵢ aᵢ·eᵢ with aᵢ ∈ {−1,0,1}. It
// generalizes Classify to higher-order collisions (the paper notes
// three-way collisions are rare but they do occur at high bit rates).
// Complexity is 3^k; callers keep k ≤ 5.
func ClassifyJoint(d complex128, es []complex128) []State {
	k := len(es)
	states := make([]State, k)
	best := make([]State, k)
	bestDist := math.Inf(1)
	var recurse func(i int, partial complex128)
	recurse = func(i int, partial complex128) {
		if i == k {
			if dist := cmplx.Abs(d - partial); dist < bestDist {
				bestDist = dist
				copy(best, states)
			}
			return
		}
		for a := -1; a <= 1; a++ {
			states[i] = State(a)
			recurse(i+1, partial+complex(float64(a), 0)*es[i])
		}
	}
	recurse(0, 0)
	return best
}

// MatchVectors decides which recovered vector corresponds to which
// stream anchor: it returns true if (E1→a1, E2→a2) is the better
// assignment, false if the vectors should be swapped. Sign ambiguity
// (±e both appear in the lattice) is resolved by comparing against
// both signs.
func MatchVectors(e1, e2, a1, a2 complex128) bool {
	direct := math.Min(cmplx.Abs(e1-a1), cmplx.Abs(e1+a1)) +
		math.Min(cmplx.Abs(e2-a2), cmplx.Abs(e2+a2))
	swapped := math.Min(cmplx.Abs(e1-a2), cmplx.Abs(e1+a2)) +
		math.Min(cmplx.Abs(e2-a1), cmplx.Abs(e2+a1))
	return direct <= swapped
}

// Metrics instruments blind separation. Recorded from the decoder's
// serial collision-group loop, so the counts are deterministic. The
// zero value records nothing.
type Metrics struct {
	// BlindAttempts counts nine-cluster parallelogram attempts;
	// BlindDegenerate counts the ones rejected on degenerate geometry.
	BlindAttempts, BlindDegenerate *obs.Counter
}

// SeparateBlindWarmObs is SeparateBlindWarm with attempt/outcome
// instrumentation.
func SeparateBlindWarmObs(points []complex128, src *rng.Source, w *cluster.Warm, m Metrics) (*Separation, error) {
	m.BlindAttempts.Inc()
	s, err := SeparateBlindWarm(points, src, w)
	if err != nil {
		m.BlindDegenerate.Inc()
	}
	return s, err
}
