package cluster

import (
	"math"
	"reflect"
	"testing"

	"lf/internal/rng"
)

// seedPlusPlus is the one-shot form of scratch.seedPlusPlus, for tests
// that run a single seeding with a fresh scratch.
func seedPlusPlus(points []complex128, k int, src *rng.Source) []complex128 {
	cents := make([]complex128, k)
	newScratch(len(points), k).seedPlusPlus(points, cents, src)
	return cents
}

// kmeansFrom is the one-shot form of scratch.kmeansFrom, for tests that
// run a single descent (taking ownership of centroids).
func kmeansFrom(points, centroids []complex128, maxIter int) *Result {
	k := len(centroids)
	res := &Result{Centroids: centroids, Assign: make([]int, len(points)), K: k}
	res.Inertia = newScratch(len(points), k).kmeansFrom(points, centroids, res.Assign, maxIter)
	return res
}

// seedPlusPlusRef is the O(n·k²) kmeans++ seeding the running-minimum
// form replaces: every pass recomputes each point's distance to every
// seed chosen so far.
func seedPlusPlusRef(points []complex128, k int, src *rng.Source) []complex128 {
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

// kmeansWarmRef is KMeansWarm as it was before its scratch was shared:
// fresh seeds, assignment and Lloyd buffers for every descent, the best
// result kept by pointer.
func kmeansWarmRef(points []complex128, k, restarts, maxIter int, src *rng.Source, cache []complex128) *Result {
	var best *Result
	for r := 0; r < restarts; r++ {
		res := unprunedFrom(points, seedPlusPlusRef(points, k, src), maxIter)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	if cache != nil {
		if res := unprunedFrom(points, append([]complex128(nil), cache...), maxIter); res.Inertia < best.Inertia {
			best = res
		}
	}
	return best
}

func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestSeedPlusPlusMatchesReference pins the running-minimum seeding to
// the O(n·k²) recomputation: the same seeds bit for bit and the same
// rng position afterwards, on lattice populations and on the inputs
// that reach its corner branches — duplicate and all-identical points
// (total == 0), k > n, k = 1, and NaN points.
func TestSeedPlusPlusMatchesReference(t *testing.T) {
	nan := complex(math.NaN(), 0)
	cases := map[string]func(gen *rng.Source) []complex128{
		"lattice": func(gen *rng.Source) []complex128 { return latticePoints(gen, 20+gen.Intn(200)) },
		"duplicates": func(gen *rng.Source) []complex128 {
			base := latticePoints(gen, 4)
			pts := make([]complex128, 40)
			for i := range pts {
				pts[i] = base[gen.Intn(len(base))]
			}
			return pts
		},
		"identical": func(gen *rng.Source) []complex128 {
			pts := make([]complex128, 1+gen.Intn(30))
			for i := range pts {
				pts[i] = 0.5 - 0.25i
			}
			return pts
		},
		"fewer-than-k": func(gen *rng.Source) []complex128 { return latticePoints(gen, 1+gen.Intn(5)) },
		"nan": func(gen *rng.Source) []complex128 {
			pts := latticePoints(gen, 50)
			pts[gen.Intn(len(pts))] = nan
			return pts
		},
		"empty": func(*rng.Source) []complex128 { return nil },
	}
	for name, gen := range cases {
		for seed := int64(1); seed <= 20; seed++ {
			pts := gen(rng.New(seed))
			// One scratch across the k values, as KMeansWarm reuses it
			// across restarts.
			s := newScratch(len(pts), 12)
			for _, k := range []int{1, 2, 3, 9, 12, 9} {
				srcA, srcB := rng.New(seed*31+int64(k)), rng.New(seed*31+int64(k))
				got := make([]complex128, k)
				s.seedPlusPlus(pts, got, srcA)
				want := seedPlusPlusRef(pts, k, srcB)
				if !sameBits(got, want) {
					t.Fatalf("%s seed %d k=%d: seeds %v, reference %v", name, seed, k, got, want)
				}
				if a, b := srcA.Int63(), srcB.Int63(); a != b {
					t.Fatalf("%s seed %d k=%d: next draw %d, reference %d", name, seed, k, a, b)
				}
			}
		}
	}
}

// TestKMeansWarmMatchesReference checks that sharing one scratch across
// the restarts and swapping the candidate and best buffers leaves
// KMeansWarm's result — centroids, Assign, inertia — exactly that of
// fresh buffers per descent, with and without a warm cache, and that a
// returned result is not overwritten by a later call on the same cache.
func TestKMeansWarmMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		gen := rng.New(seed)
		w := &Warm{}
		var prev *Result
		var prevCopy Result
		for call := 0; call < 6; call++ {
			// Noisy lattices, so restarts reach different optima, and
			// short descents, so the seeds and the initial assignment
			// show through.
			pts := noisyLattice(gen, 40+gen.Intn(120), 0.13)
			maxIter := []int{100, 0, 2}[call%3]
			cache := append([]complex128(nil), w.get(9)...)
			if len(cache) == 0 {
				cache = nil
			}
			srcA, srcB := rng.New(seed*7+int64(call)), rng.New(seed*7+int64(call))
			got := KMeansWarm(pts, 9, 6, maxIter, srcA, w)
			want := kmeansWarmRef(pts, 9, 6, maxIter, srcB, cache)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d call %d: KMeansWarm differs from the fresh-buffer reference", seed, call)
			}
			if a, b := srcA.Int63(), srcB.Int63(); a != b {
				t.Fatalf("seed %d call %d: next draw %d, reference %d", seed, call, a, b)
			}
			if prev != nil && !reflect.DeepEqual(*prev, prevCopy) {
				t.Fatalf("seed %d call %d: the previous call's result was overwritten", seed, call)
			}
			prev = got
			prevCopy = Result{
				Centroids: append([]complex128(nil), got.Centroids...),
				Assign:    append([]int(nil), got.Assign...),
				Inertia:   got.Inertia,
				K:         got.K,
			}
		}
	}
}

// noisyLattice builds a nine-mode lattice population from two
// generators with per-axis noise σ = sd.
func noisyLattice(src *rng.Source, n int, sd float64) []complex128 {
	e1, e2 := complex(1.0, 0.3), complex(-0.2, 0.9)
	pts := make([]complex128, n)
	for i := range pts {
		a := float64(src.Intn(3) - 1)
		b := float64(src.Intn(3) - 1)
		pts[i] = complex(a, 0)*e1 + complex(b, 0)*e2 + complex(src.Norm(0, sd), src.Norm(0, sd))
	}
	return pts
}

// BenchmarkKMeansWarm times one collision-pair separation's clustering
// at the shape dense16 decodes present: 100 lattice points, k = 9, 6
// restarts, with the warm cache a run of recurring pairs carries. The
// lattice noise (σ = 0.13 per axis against unit generators) makes a
// descent run about 3.4 Lloyd iterations, as those decodes do.
func BenchmarkKMeansWarm(b *testing.B) {
	gen := rng.New(1)
	pops := make([][]complex128, 16)
	for i := range pops {
		pops[i] = noisyLattice(gen, 100, 0.13)
	}
	w := &Warm{}
	src := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeansWarm(pops[i%len(pops)], 9, 6, 100, src, w)
	}
}
