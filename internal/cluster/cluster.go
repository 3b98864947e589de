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
	w.byK[k] = append([]complex128(nil), centroids...)
}

// KMeansWarm is KMeans with an optional warm-start cache. The seeded
// restarts run exactly as in KMeans — the warm descent consumes no
// randomness and runs after them, so the rng stream (and therefore
// every seeded restart) is identical with or without a cache — and the
// warm candidate is adopted only on strictly lower inertia, so a stale
// cache can waste a little work but never worsen the result.
func KMeansWarm(points []complex128, k, restarts, maxIter int, src *rng.Source, w *Warm) *Result {
	if k < 1 {
		panic("cluster: k < 1")
	}
	if restarts < 1 {
		restarts = 1
	}
	var best *Result
	for r := 0; r < restarts; r++ {
		res := kmeansFrom(points, seedPlusPlus(points, k, src), maxIter)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	if cached := w.get(k); cached != nil {
		res := kmeansFrom(points, append([]complex128(nil), cached...), maxIter)
		if res.Inertia < best.Inertia {
			best = res
		}
	}
	w.put(k, best.Centroids)
	return best
}

// kmeansFrom runs Lloyd iterations from the given initial centroids
// (taking ownership of the slice). The assignment step prunes with the
// triangle inequality on centroid-centroid distances: if the squared
// distance between candidate centroid c and the current best centroid
// exceeds 4·bd, then d(p, c) ≥ d(c, best) − d(p, best) > 2√bd − √bd =
// √bd, so c cannot win. The (4+4e-9) factor absorbs the few-ulp
// rounding of the computed squared distances, making the float test
// strictly conservative: a skipped candidate's computed sqDist would
// have failed the strict `d < bd` comparison anyway, so pruned and
// unpruned assignment — and therefore the whole descent — are
// bit-identical (TestKMeansPruningIdentical pins this).
func kmeansFrom(points []complex128, centroids []complex128, maxIter int) *Result {
	k := len(centroids)
	assign := make([]int, len(points))
	ccSq := make([]float64, k*k)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for c1 := 0; c1 < k; c1++ {
			for c2 := 0; c2 < k; c2++ {
				ccSq[c1*k+c2] = sqDist(centroids[c1], centroids[c2])
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
		sums := make([]complex128, k)
		counts := make([]int, k)
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
	res := &Result{Centroids: centroids, Assign: assign, K: k}
	for i, p := range points {
		res.Inertia += sqDist(p, centroids[assign[i]])
	}
	return res
}

// seedPlusPlus picks initial centroids with the kmeans++ rule: each
// next seed is drawn with probability proportional to its squared
// distance from the nearest existing seed.
func seedPlusPlus(points []complex128, k int, src *rng.Source) []complex128 {
	centroids := make([]complex128, 0, k)
	if len(points) == 0 {
		return make([]complex128, k)
	}
	centroids = append(centroids, points[src.Intn(len(points))])
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All remaining points coincide with seeds; duplicate one.
			centroids = append(centroids, points[src.Intn(len(points))])
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
		centroids = append(centroids, points[idx])
	}
	return centroids
}

func sqDist(a, b complex128) float64 {
	dr := real(a) - real(b)
	di := imag(a) - imag(b)
	return dr*dr + di*di
}
