package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"lf/internal/rng"
)

// blobs generates points around the given centres with the given noise.
func blobs(centres []complex128, perCentre int, noise float64, src *rng.Source) []complex128 {
	var out []complex128
	for _, c := range centres {
		for i := 0; i < perCentre; i++ {
			out = append(out, c+src.ComplexNorm(noise*noise))
		}
	}
	return out
}

func TestKMeansRecoversSeparatedClusters(t *testing.T) {
	src := rng.New(1)
	centres := []complex128{0, 10, 10i}
	points := blobs(centres, 30, 0.1, src)
	res := KMeans(points, 3, 4, 100, src)
	// Every true centre must be near some recovered centroid.
	for _, c := range centres {
		best := math.Inf(1)
		for _, got := range res.Centroids {
			dr, di := real(got-c), imag(got-c)
			if d := math.Hypot(dr, di); d < best {
				best = d
			}
		}
		if best > 0.2 {
			t.Fatalf("centre %v not recovered (nearest %.3f away)", c, best)
		}
	}
	counts := res.Counts()
	for i, n := range counts {
		if n != 30 {
			t.Fatalf("cluster %d has %d points, want 30", i, n)
		}
	}
}

func TestKMeansPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 should panic")
		}
	}()
	KMeans([]complex128{1}, 0, 1, 1, rng.New(1))
}

func TestKMeansFewerPointsThanClusters(t *testing.T) {
	src := rng.New(2)
	res := KMeans([]complex128{1, 2}, 5, 2, 10, src)
	if res.K != 5 {
		t.Fatalf("K = %d", res.K)
	}
	if len(res.Assign) != 2 {
		t.Fatalf("assignments = %d", len(res.Assign))
	}
}

// TestAssignmentsAreNearest is the core k-means invariant: after
// convergence every point is assigned to its nearest centroid.
func TestAssignmentsAreNearest(t *testing.T) {
	src := rng.New(3)
	f := func(seed int64) bool {
		s := rng.New(seed)
		centres := []complex128{0, 5, 5i, 5 + 5i}
		points := blobs(centres, 12, 0.3, s)
		res := KMeans(points, 4, 3, 100, src)
		for i, p := range points {
			own := res.Centroids[res.Assign[i]]
			dOwn := real(p-own)*real(p-own) + imag(p-own)*imag(p-own)
			for _, c := range res.Centroids {
				d := real(p-c)*real(p-c) + imag(p-c)*imag(p-c)
				if d < dOwn-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansDeterministicWithSeed(t *testing.T) {
	pts := blobs([]complex128{0, 4}, 20, 0.1, rng.New(10))
	a := KMeans(pts, 2, 3, 50, rng.New(42))
	b := KMeans(pts, 2, 3, 50, rng.New(42))
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
}
