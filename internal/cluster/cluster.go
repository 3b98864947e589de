// Package cluster implements k-means clustering over points in the IQ
// plane. The decoder uses it to separate a two-tag collision (§3.3):
// the edge differentials at a position two streams share fall into the
// 3² = 9 combinations of each tag's rising, falling, or constant state,
// so it clusters them at a fixed k = 9. The collision order is not
// chosen by clustering: it is the number of registered streams whose
// slots claim the same detected edge.
package cluster

import (
	"math"

	"lf/internal/rng"
)

// Result is a clustering of complex points.
type Result struct {
	// Centroids of the clusters, length K.
	Centroids []complex128
	// Assign[i] is the centroid index of point i.
	Assign []int
	// Inertia is the total squared distance of points to their
	// centroids.
	Inertia float64
	// K is the number of clusters.
	K int
}

// Counts returns the number of points per cluster.
func (r *Result) Counts() []int {
	counts := make([]int, r.K)
	for _, a := range r.Assign {
		counts[a]++
	}
	return counts
}

// KMeans clusters points into k clusters with kmeans++ seeding and the
// given number of random restarts, returning the best (lowest inertia)
// result. It panics if k < 1; if there are fewer points than clusters
// the surplus clusters end up empty.
func KMeans(points []complex128, k, restarts, maxIter int, src *rng.Source) *Result {
	return KMeansWarm(points, k, restarts, maxIter, src, nil)
}

// Warm caches the best centroids seen per cluster count, letting
// successive clusterings of near-identical point populations (the
// recurring eye regions of adjacent streaming windows) start one extra
// Lloyd descent from an already-converged configuration instead of
// re-deriving it from random seeds every time. A Warm must not be
// shared across goroutines.
type Warm struct {
	byK map[int][]complex128
}

func (w *Warm) get(k int) []complex128 {
	if w == nil || w.byK == nil {
		return nil
	}
	return w.byK[k]
}

func (w *Warm) put(k int, centroids []complex128) {
	if w == nil {
		return
	}
	if w.byK == nil {
		w.byK = make(map[int][]complex128)
	}
	// KMeansWarm copies a cached entry before descending from it, so
	// the entry's storage can be overwritten in place.
	w.byK[k] = append(w.byK[k][:0], centroids...)
}

// KMeansWarm is KMeans with an optional warm-start cache. The seeded
// restarts run exactly as in KMeans — the warm descent consumes no
// randomness and runs after them, so the rng stream (and therefore
// every seeded restart) is identical with or without a cache — and the
// warm candidate is adopted only on strictly lower inertia, so a stale
// cache can waste a little work but never worsen the result.
//
// All working memory is allocated once per call: the seeding and
// Lloyd scratch is shared by every descent, and each descent runs in a
// candidate centroid/assignment pair that is swapped with the best
// result's pair when adopted.
func KMeansWarm(points []complex128, k, restarts, maxIter int, src *rng.Source, w *Warm) *Result {
	if k < 1 {
		panic("cluster: k < 1")
	}
	if restarts < 1 {
		restarts = 1
	}
	n := len(points)
	s := newScratch(n, k)
	best := &Result{Centroids: make([]complex128, k), Assign: make([]int, n), K: k}
	cents, assign := make([]complex128, k), make([]int, n)
	adopt := func(inertia float64) {
		best.Inertia = inertia
		best.Centroids, cents = cents, best.Centroids
		best.Assign, assign = assign, best.Assign
	}
	for r := 0; r < restarts; r++ {
		s.seedPlusPlus(points, cents, src)
		if inertia := s.kmeansFrom(points, cents, assign, maxIter); r == 0 || inertia < best.Inertia {
			adopt(inertia)
		}
	}
	if cached := w.get(k); cached != nil {
		copy(cents, cached)
		if inertia := s.kmeansFrom(points, cents, assign, maxIter); inertia < best.Inertia {
			adopt(inertia)
		}
	}
	w.put(k, best.Centroids)
	return best
}

// scratch is the working memory of one KMeansWarm call, shared by its
// seedings and descents. Each use resets what it reads, so nothing
// carries over from one descent to the next.
type scratch struct {
	d2     []float64    // seedPlusPlus: squared distance to the nearest seed
	ccSq   []float64    // kmeansFrom: centroid-centroid squared distances, k×k
	sums   []complex128 // kmeansFrom: per-cluster point sums
	counts []int        // kmeansFrom: per-cluster point counts
}

func newScratch(n, k int) *scratch {
	return &scratch{
		d2:     make([]float64, n),
		ccSq:   make([]float64, k*k),
		sums:   make([]complex128, k),
		counts: make([]int, k),
	}
}

// kmeansFrom runs Lloyd iterations from the initial centroids, updating
// them and assign (len(points)) in place, and returns the inertia. The
// assignment step prunes with the triangle inequality on
// centroid-centroid distances: if the squared distance between
// candidate centroid c and the current best centroid exceeds 4·bd, then
// d(p, c) ≥ d(c, best) − d(p, best) > 2√bd − √bd = √bd, so c cannot
// win. The (4+4e-9) factor absorbs the few-ulp rounding of the computed
// squared distances, making the float test strictly conservative: a
// skipped candidate's computed sqDist would have failed the strict
// `d < bd` comparison anyway, so pruned and unpruned assignment — and
// therefore the whole descent — are bit-identical
// (TestKMeansPruningIdentical pins this). The centroid table is filled
// for c1 ≤ c2 and mirrored: sqDist(a, b) and sqDist(b, a) square
// exactly negated differences, so they are the same float64.
func (s *scratch) kmeansFrom(points, centroids []complex128, assign []int, maxIter int) float64 {
	k := len(centroids)
	ccSq, sums, counts := s.ccSq, s.sums, s.counts
	clear(assign)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for c1 := 0; c1 < k; c1++ {
			for c2 := c1; c2 < k; c2++ {
				d := sqDist(centroids[c1], centroids[c2])
				ccSq[c1*k+c2], ccSq[c2*k+c1] = d, d
			}
		}
		// Assignment step.
		for i, p := range points {
			bi, bd := 0, math.Inf(1)
			for c, ct := range centroids {
				if ccSq[bi*k+c] > bd*(4+4e-9) {
					continue
				}
				d := sqDist(p, ct)
				if d < bd {
					bi, bd = c, d
				}
			}
			if assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		// Update step.
		clear(sums)
		clear(counts)
		for i, p := range points {
			sums[assign[i]] += p
			counts[assign[i]]++
		}
		for c := range centroids {
			if counts[c] > 0 {
				centroids[c] = sums[c] / complex(float64(counts[c]), 0)
			}
		}
		if !changed && iter > 0 {
			break
		}
	}
	var inertia float64
	for i, p := range points {
		inertia += sqDist(p, centroids[assign[i]])
	}
	return inertia
}

// seedPlusPlus fills centroids with initial seeds by the kmeans++ rule:
// each next seed is drawn with probability proportional to its squared
// distance from the nearest existing seed. d2 keeps that distance as a
// running minimum, folding in only the seed added since the last pass:
// the minimum over the same distances, compared in the same seed order,
// is the same float64 as recomputing it over every seed, and total sums
// it in the same point order, so the draws are exactly those of the
// O(n·k²) recomputation (TestSeedPlusPlusMatchesReference).
func (s *scratch) seedPlusPlus(points, centroids []complex128, src *rng.Source) {
	if len(points) == 0 {
		clear(centroids)
		return
	}
	centroids[0] = points[src.Intn(len(points))]
	d2 := s.d2
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for m := 1; m < len(centroids); m++ {
		c := centroids[m-1]
		var total float64
		for i, p := range points {
			if d := sqDist(p, c); d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		if total == 0 {
			// All remaining points coincide with seeds; duplicate one.
			centroids[m] = points[src.Intn(len(points))]
			continue
		}
		target := src.Float64() * total
		idx := 0
		for i, d := range d2 {
			target -= d
			if target <= 0 {
				idx = i
				break
			}
		}
		centroids[m] = points[idx]
	}
}

func sqDist(a, b complex128) float64 {
	dr := real(a) - real(b)
	di := imag(a) - imag(b)
	return dr*dr + di*di
}
