package streams

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"lf/internal/dsp"
	"lf/internal/edgedetect"
)

// The reference implementations below are registration's edge lookups
// and region geometry as they were before the lookup cursor and the
// distance screen: every window found by sort.Search, every distance
// an exact Dist. The screened versions must return exactly what these
// return.

func densestModeRef(points []complex128, floor float64) (complex128, int) {
	work := append([]complex128(nil), points...)
	radiusFor := func(d complex128) float64 {
		return math.Max(5*floor, 0.22*dsp.Abs(d))
	}
	for attempt := 0; attempt < 4 && len(work) > 0; attempt++ {
		bestIdx, bestCount := -1, 0
		for i, d := range work {
			if dsp.Abs(d) < 4*floor {
				continue
			}
			r := radiusFor(d)
			count := 0
			for _, q := range work {
				if dsp.Dist(q, d) <= r || dsp.Dist(q, -d) <= r {
					count++
				}
			}
			if count > bestCount {
				bestIdx, bestCount = i, count
			}
		}
		if bestIdx < 0 {
			return 0, 0
		}
		centre := work[bestIdx]
		r := radiusFor(centre)
		var sum complex128
		var spread float64
		n := 0
		for _, q := range work {
			switch {
			case dsp.Dist(q, centre) <= r:
				sum += q
				n++
			case dsp.Dist(q, -centre) <= r:
				sum -= q
				n++
			}
		}
		if n == 0 {
			return 0, 0
		}
		v := sum / complex(float64(n), 0)
		for _, q := range work {
			if dsp.Dist(q, centre) <= r || dsp.Dist(q, -centre) <= r {
				spread += math.Min(dsp.Dist(q, v), dsp.Dist(q, -v))
			}
		}
		spread /= float64(n)
		if dsp.Abs(v) >= 2.5*spread {
			return v, bestCount
		}
		var kept []complex128
		for _, q := range work {
			if dsp.Dist(q, centre) > r && dsp.Dist(q, -centre) > r {
				kept = append(kept, q)
			}
		}
		if len(kept) == len(work) {
			return 0, 0
		}
		work = kept
	}
	return 0, 0
}

func noiseScaleRef(diffs []complex128) float64 {
	if len(diffs) < 2 {
		return 0
	}
	nn := make([]float64, len(diffs))
	for i, d := range diffs {
		best := math.Inf(1)
		for j, q := range diffs {
			if i == j {
				continue
			}
			if dist := dsp.Dist(d, q); dist < best {
				best = dist
			}
		}
		nn[i] = best
	}
	sort.Float64s(nn)
	return nn[len(nn)/2]
}

func findEdgeRef(edges []edgedetect.Edge, used []bool, expect, tol float64, want complex128, vecTol float64) int {
	lo := sort.Search(len(edges), func(i int) bool {
		return float64(edges[i].Pos) >= expect-tol
	})
	best, bestDist := -1, math.Inf(1)
	for i := lo; i < len(edges) && float64(edges[i].Pos) <= expect+tol; i++ {
		if used[i] {
			continue
		}
		if dsp.Dist(edges[i].Diff, want) > vecTol {
			continue
		}
		d := math.Abs(float64(edges[i].Pos) - expect)
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

func findAnyEdgeRef(edges []edgedetect.Edge, used []bool, expect, tol float64) int {
	lo := sort.Search(len(edges), func(i int) bool {
		return float64(edges[i].Pos) >= expect-tol
	})
	best, bestDist := -1, math.Inf(1)
	for i := lo; i < len(edges) && float64(edges[i].Pos) <= expect+tol; i++ {
		if used[i] {
			continue
		}
		d := math.Abs(float64(edges[i].Pos) - expect)
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

func pickEdgeRef(edges []edgedetect.Edge, pos, maxDist int64, e complex128, vecTol float64) (idx int, clean bool) {
	lo := sort.Search(len(edges), func(i int) bool { return edges[i].Pos >= pos-maxDist-pickEdgeSpan })
	bestClean, bestCleanDist := -1, maxDist+1
	bestAny, bestAnyDist := -1, maxDist+1
	for i := lo; i < len(edges) && edges[i].First <= pos+maxDist; i++ {
		var d int64
		switch {
		case pos < edges[i].First:
			d = edges[i].First - pos
		case pos > edges[i].Last:
			d = pos - edges[i].Last
		}
		if d > maxDist {
			continue
		}
		if d < bestAnyDist {
			bestAny, bestAnyDist = i, d
		}
		if dsp.Dist(edges[i].Diff, e) <= vecTol || dsp.Dist(edges[i].Diff, -e) <= vecTol {
			if d < bestCleanDist {
				bestClean, bestCleanDist = i, d
			}
		}
	}
	if bestClean >= 0 {
		return bestClean, true
	}
	return bestAny, false
}

// sameFloat reports bit equality, with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameComplex(a, b complex128) bool {
	return sameFloat(real(a), real(b)) && sameFloat(imag(a), imag(b))
}

// GeometryTally counts what the reference checks compared.
type GeometryTally struct {
	Regions, Modes, Lookups int
}

// checkRegionGeometry compares noiseScale with its reference on diffs,
// then harvests modes the way peelGenerators does, at the region's own
// noise floor and at the given extra floors, comparing densestMode with
// its reference on every population the harvest hands it.
func checkRegionGeometry(t *testing.T, tally *GeometryTally, diffs []complex128, floors ...float64) {
	t.Helper()
	floor := noiseScaleRef(diffs)
	if got := noiseScale(diffs); !sameFloat(got, floor) {
		t.Fatalf("noiseScale over %d points = %v, reference %v", len(diffs), got, floor)
	}
	tally.Regions++
	for _, fl := range append([]float64{floor}, floors...) {
		work := diffs
		for modes := 0; modes < 9 && len(work) > 0; modes++ {
			e, weight := densestModeRef(work, fl)
			if ge, gw := densestMode(work, fl); !sameComplex(ge, e) || gw != weight {
				t.Fatalf("densestMode over %d points at floor %v = (%v, %d), reference (%v, %d)", len(work), fl, ge, gw, e, weight)
			}
			tally.Modes++
			if weight == 0 {
				break
			}
			var kept []complex128
			for _, d := range work {
				if dsp.Dist(d, e) > 0.35*dsp.Abs(e) && dsp.Dist(d, -e) > 0.35*dsp.Abs(e) {
					kept = append(kept, d)
				}
			}
			if len(kept) == len(work) {
				break
			}
			work = kept
		}
	}
}

// checkLookups compares findEdge, findAnyEdge and pickEdge with their
// references at one window, for the given cursor hint.
func checkLookups(t *testing.T, tally *GeometryTally, edges []edgedetect.Edge, used []bool, hint int, expect, tol float64, want complex128, vecTol float64) {
	t.Helper()
	for _, w := range []complex128{want, -want} {
		cur := hint
		if got, ref := findEdge(edges, used, &cur, expect, tol, w, vecTol), findEdgeRef(edges, used, expect, tol, w, vecTol); got != ref {
			t.Fatalf("findEdge(hint %d, expect %v, tol %v, want %v, vecTol %v) = %d, reference %d", hint, expect, tol, w, vecTol, got, ref)
		}
	}
	cur := hint
	if got, ref := findAnyEdge(edges, used, &cur, expect, tol), findAnyEdgeRef(edges, used, expect, tol); got != ref {
		t.Fatalf("findAnyEdge(hint %d, expect %v, tol %v) = %d, reference %d", hint, expect, tol, got, ref)
	}
	if lo := sort.Search(len(edges), func(i int) bool { return float64(edges[i].Pos) >= expect-tol }); cur != lo {
		t.Fatalf("cursor left at %d from hint %d, window starts at %d", cur, hint, lo)
	}
	if !(math.Abs(expect) < 1<<53 && math.Abs(tol) < 1<<53) {
		tally.Lookups++
		return
	}
	pos, maxDist := int64(math.Round(expect)), int64(math.Ceil(tol))
	cur = hint
	gi, gc := pickEdge(edges, &cur, pos, maxDist, want, vecTol)
	ri, rc := pickEdgeRef(edges, pos, maxDist, want, vecTol)
	if gi != ri || gc != rc {
		t.Fatalf("pickEdge(hint %d, pos %d, maxDist %d, e %v, vecTol %v) = (%d, %v), reference (%d, %v)", hint, pos, maxDist, want, vecTol, gi, gc, ri, rc)
	}
	tally.Lookups++
}

// geometryPoint draws one differential from the mix the reference test
// needs: lattice points of the given generators with small noise, exact
// duplicates of earlier points, small integers (ties), signed zeros, an
// occasional NaN or infinity, and points on a ring around the origin,
// all at one scale for the set.
func geometryPoint(r *rand.Rand, gens []complex128, prev []complex128, scale float64) complex128 {
	switch k := r.Intn(20); {
	case k < 3 && len(prev) > 0:
		return prev[r.Intn(len(prev))]
	case k < 5:
		return complex(float64(r.Intn(5)-2), float64(r.Intn(5)-2)) * complex(scale, 0)
	case k == 5:
		return complex(math.Copysign(0, float64(r.Intn(2))-0.5), math.Copysign(0, float64(r.Intn(2))-0.5))
	case k == 6 && r.Intn(6) == 0:
		return complex(math.NaN(), r.Float64())
	case k == 7 && r.Intn(6) == 0:
		return complex(math.Inf(1), 0)
	case k == 8:
		// On a ring around the origin: their distances from the signed
		// zeros above agree to an ulp or two, where squared distances
		// and Hypot can order them differently.
		s, c := math.Sincos(2 * math.Pi * r.Float64())
		return complex(c, s) * complex(scale, 0)
	}
	var d complex128
	for _, g := range gens {
		d += complex(float64(r.Intn(3)-1), 0) * g
	}
	noise := complex(r.NormFloat64(), r.NormFloat64()) * complex(scale*[]float64{0, 1e-12, 0.02, 0.2}[r.Intn(4)], 0)
	return d + noise
}

// CheckRandomGeometry runs the region-geometry check over n random
// point sets (lattices of one to three generators with noise,
// duplicates, ties, signed zeros, NaN and infinities, at scales from
// 1e-150 to 1e150) and the lookup check over n random edge lists
// (duplicate positions, random used masks, windows at arbitrary
// positions and hints, vector tolerances set exactly on an edge's
// distance from the wanted vector and one ulp either side).
func CheckRandomGeometry(t *testing.T, tally *GeometryTally, seed int64, n int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for c := 0; c < n; c++ {
		scale := math.Pow(10, float64(r.Intn(301)-150))
		gens := make([]complex128, 1+r.Intn(3))
		for i := range gens {
			gens[i] = complex(r.NormFloat64(), r.NormFloat64()) * complex(scale, 0)
		}
		pts := make([]complex128, r.Intn(60))
		for i := range pts {
			pts[i] = geometryPoint(r, gens, pts[:i], scale)
		}
		checkRegionGeometry(t, tally, pts, 0, scale*r.Float64(), math.NaN())

		edges := make([]edgedetect.Edge, r.Intn(120))
		pos := int64(r.Intn(50)) - 20
		for i := range edges {
			pos += int64(r.Intn(12)) // zero steps give duplicate positions
			edges[i] = edgedetect.Edge{
				Pos: pos, First: pos - int64(r.Intn(4)), Last: pos + int64(r.Intn(4)),
				Diff: geometryPoint(r, gens, nil, scale), Peaks: 1,
			}
		}
		used := make([]bool, len(edges))
		for i := range used {
			used[i] = r.Intn(4) == 0
		}
		for q := 0; q < 20; q++ {
			expect := float64(pos+40)*r.Float64() - 30
			switch r.Intn(50) {
			case 0:
				expect = math.NaN()
			case 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12:
				expect = math.Round(expect)
			}
			tol := r.Float64() * 25
			want := geometryPoint(r, gens, nil, scale)
			vecTol := scale * r.Float64() * 2
			if len(edges) > 0 {
				d := dsp.Dist(edges[r.Intn(len(edges))].Diff, want)
				vecTol = []float64{d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)), vecTol}[r.Intn(4)]
			}
			hint := r.Intn(len(edges)+11) - 5
			checkLookups(t, tally, edges, used, hint, expect, tol, want, vecTol)
		}
	}
}

// CheckCaptureGeometry registers streams over a capture's edges with
// the region probe on, checks every registration region's geometry
// against the references, and then checks the lookups along every
// registered stream's slot grid — the windows consumePayloadEdges and
// the walker search — with cursors carried forward the way they are,
// at the walk's own vector tolerance and at tolerances set exactly on
// the nearest edge's distance.
func CheckCaptureGeometry(t *testing.T, tally *GeometryTally, edges []edgedetect.Edge, cfg Config, payloadBits func(float64) int) {
	t.Helper()
	var regions [][]complex128
	regionProbe = func(diffs []complex128) { regions = append(regions, append([]complex128(nil), diffs...)) }
	defer func() { regionProbe = nil }()
	sts, err := Register(edges, cfg, payloadBits)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) == 0 {
		t.Fatal("registration visited no eye region")
	}
	for _, diffs := range regions {
		checkRegionGeometry(t, tally, diffs)
	}
	used := make([]bool, len(edges))
	for _, st := range sts {
		vecTol := cfg.VecTol * dsp.Abs(st.E)
		hint := 0
		for k := 0; k < FrameSlots(cfg, payloadBits(st.Rate)); k++ {
			expect := st.Offset + float64(k)*st.Period
			tol := float64(cfg.PosTol) + st.Period*cfg.DriftPPM/1e6
			tols := []float64{vecTol}
			if i := findAnyEdgeRef(edges, used, expect, tol); i >= 0 {
				d := dsp.Dist(edges[i].Diff, st.E)
				tols = append(tols, d, math.Nextafter(d, 0))
			}
			for _, vt := range tols {
				checkLookups(t, tally, edges, used, hint, expect, tol, st.E, vt)
			}
			hint = sort.Search(len(edges), func(i int) bool { return float64(edges[i].Pos) >= expect-tol })
		}
	}
}
