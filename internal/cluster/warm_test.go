package cluster

import (
	"math"
	"reflect"
	"testing"

	"lf/internal/rng"
)

// latticePoints builds a noisy nine-mode lattice population — the shape
// SeparateBlind clusters — from two generators.
func latticePoints(src *rng.Source, n int) []complex128 {
	return noisyLattice(src, n, 0.04)
}

// unprunedFrom replicates kmeansFrom without the triangle-inequality
// skip — the pre-optimization reference semantics.
func unprunedFrom(points []complex128, centroids []complex128, maxIter int) *Result {
	k := len(centroids)
	assign := make([]int, len(points))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			bi, bd := 0, math.Inf(1)
			for c, ct := range centroids {
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

// TestKMeansPruningIdentical pins the centroid-distance pruning to the
// unpruned reference: identical assignments, centroids, and inertia at
// every seed — the skip test only ever drops candidates that would
// have lost the strict `d < bd` comparison anyway.
func TestKMeansPruningIdentical(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		gen := rng.New(seed)
		pts := latticePoints(gen, 30+gen.Intn(200))
		for _, k := range []int{1, 2, 3, 9} {
			seedsA := seedPlusPlus(pts, k, rng.New(seed*100+int64(k)))
			seedsB := append([]complex128(nil), seedsA...)
			got := kmeansFrom(pts, seedsA, 100)
			want := unprunedFrom(pts, seedsB, 100)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d k=%d: pruned result differs from unpruned reference", seed, k)
			}
		}
	}
}

// TestKMeansWarmInvariants checks the warm-start contract: the rng
// stream is untouched by the cache, the warm result is never worse
// than the cold one, and a nil cache reproduces KMeans exactly.
func TestKMeansWarmInvariants(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		gen := rng.New(seed)
		pts := latticePoints(gen, 120)

		cold := KMeans(pts, 9, 4, 60, rng.New(seed))
		nilWarm := KMeansWarm(pts, 9, 4, 60, rng.New(seed), nil)
		if !reflect.DeepEqual(cold, nilWarm) {
			t.Fatalf("seed %d: KMeansWarm(nil) differs from KMeans", seed)
		}

		w := &Warm{}
		srcA, srcB := rng.New(seed), rng.New(seed)
		first := KMeansWarm(pts, 9, 4, 60, srcA, w)
		if first.Inertia > cold.Inertia {
			t.Fatalf("seed %d: warm first pass worse than cold (%v > %v)", seed, first.Inertia, cold.Inertia)
		}
		KMeans(pts, 9, 4, 60, srcB)
		// Identical rng consumption with and without a cache: the next
		// draw from both sources must agree.
		if a, b := srcA.Int63(), srcB.Int63(); a != b {
			t.Fatalf("seed %d: warm cache shifted the rng stream (%d != %d)", seed, a, b)
		}

		// A second population drawn from the same lattice: the cached
		// centroids seed an extra descent that can only improve on the
		// cold restarts.
		pts2 := latticePoints(gen, 120)
		warm2 := KMeansWarm(pts2, 9, 4, 60, rng.New(seed+1), w)
		cold2 := KMeans(pts2, 9, 4, 60, rng.New(seed+1))
		if warm2.Inertia > cold2.Inertia {
			t.Fatalf("seed %d: warm second pass worse than cold (%v > %v)", seed, warm2.Inertia, cold2.Inertia)
		}
	}
}
