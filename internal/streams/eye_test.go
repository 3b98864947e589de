package streams

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lf/internal/edgedetect"
	"lf/internal/rng"
)

// latticeEdges fabricates a detector-free edge slice on a slot grid:
// per slot, each of the vectors toggles with probability 1/2 and the
// combined differential lands at the grid position.
func latticeEdges(anchor, period float64, slots int, vecs []complex128, src *rng.Source) []edgedetect.Edge {
	var edges []edgedetect.Edge
	// Preamble: all vectors toggle together for the first 6 slots with
	// alternating sign, then the 0 delimiter, then random payload.
	sign := make([]float64, len(vecs))
	for i := range sign {
		sign[i] = 1
	}
	for k := 0; k < slots; k++ {
		pos := anchor + float64(k)*period
		var d complex128
		toggled := false
		for i, v := range vecs {
			var active bool
			switch {
			case k < 6:
				active = true
			case k == 6:
				active = false
			default:
				active = src.Bit() == 1
			}
			if active {
				d += complex(sign[i], 0) * v
				sign[i] = -sign[i]
				toggled = true
			}
		}
		if toggled {
			p := int64(math.Round(pos))
			edges = append(edges, edgedetect.Edge{
				Pos: p, First: p, Last: p, Diff: d + src.ComplexNorm(1e-9), Peaks: 1,
			})
		}
	}
	return edges
}

func TestLatticeFit(t *testing.T) {
	e1 := complex(6e-4, 1e-4)
	e2 := complex(-1e-4, 7e-4)
	gens := []complex128{e1, e2}
	// d = e1 + e2: including e1 fits exactly; excluding it leaves |e1|.
	with, without := latticeFit(e1+e2, gens, 0)
	if with > 1e-12 {
		t.Fatalf("with = %v", with)
	}
	if math.Abs(without-cAbs(e1)) > 1e-12 {
		t.Fatalf("without = %v, want |e1|", without)
	}
	// d = e2 alone: excluding e1 fits exactly.
	with, without = latticeFit(e2, gens, 0)
	if without > 1e-12 {
		t.Fatalf("pure-sibling without = %v", without)
	}
	if with < cAbs(e1)/2 {
		t.Fatalf("pure-sibling with = %v suspiciously small", with)
	}
}

func TestEOccupiedUnderDestructiveInterference(t *testing.T) {
	// e and f nearly cancel: |e+f| < |f|. The occupancy test must
	// still attribute the combined edge to e.
	e := complex(8e-4, 1e-4)
	f := complex(-7e-4, 1e-4)
	d := e + f // tiny
	p := int64(1000)
	edges := []edgedetect.Edge{{Pos: p, First: p, Last: p, Diff: d, Peaks: 1}}
	if !eOccupied(edges, new(int), 1000, 5, []complex128{e, f}, 0, nil) {
		t.Fatal("destructive co-toggle not attributed to e")
	}
	// A lone f edge must NOT count as e-occupancy.
	edges[0].Diff = f
	if eOccupied(edges, new(int), 1000, 5, []complex128{e, f}, 0, nil) {
		t.Fatal("sibling-only edge misattributed to e")
	}
}

func TestAnchorForFindsFrameHead(t *testing.T) {
	src := rng.New(1)
	e := complex(7e-4, -2e-4)
	anchor, period := 1750.0, 250.0
	edges := latticeEdges(anchor, period, 60, []complex128{e}, src)
	cfg := DefaultConfig(25e6, []float64{100e3})
	// Hand the scan an offset deep inside the payload: it must walk
	// back to the true anchor.
	got := AnchorFor(edges, anchor+20*period, period, e, cfg)
	if math.Abs(got-anchor) > 3 {
		t.Fatalf("anchor %v, want %v", got, anchor)
	}
}

func TestAnchorForRejectsWhenNoFrameHead(t *testing.T) {
	src := rng.New(2)
	e := complex(7e-4, -2e-4)
	// Random sparse edges with no preamble structure anywhere.
	var edges []edgedetect.Edge
	for i := 0; i < 10; i++ {
		p := int64(500 + src.Intn(5000)*3)
		edges = append(edges, edgedetect.Edge{Pos: p, First: p, Last: p, Diff: e, Peaks: 1})
	}
	cfg := DefaultConfig(25e6, []float64{100e3})
	if got := AnchorFor(edges, 2000, 250, e, cfg); got >= 0 {
		t.Fatalf("anchor %v found in structureless noise", got)
	}
}

func TestEyeRegisterMergedPairSameAnchor(t *testing.T) {
	// Two vectors sharing one grid from slot 0: the regional analysis
	// must register two streams with the correct vectors.
	src := rng.New(3)
	e1 := complex(6.5e-4, 0.5e-4)
	e2 := complex(-0.7e-4, 8.6e-4)
	edges := latticeEdges(2000, 250, 80, []complex128{e1, e2}, src)
	cfg := DefaultConfig(25e6, []float64{100e3})
	sts, err := Register(edges, cfg, func(float64) int { return 73 })
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 2 {
		t.Fatalf("registered %d streams, want 2", len(sts))
	}
	for _, st := range sts {
		d1 := math.Min(cAbs(st.E-e1), cAbs(st.E+e1))
		d2 := math.Min(cAbs(st.E-e2), cAbs(st.E+e2))
		if math.Min(d1, d2) > 1e-4 {
			t.Fatalf("stream vector %v matches neither generator", st.E)
		}
		if math.Abs(st.Offset-2000) > 5 {
			t.Fatalf("stream anchor %v, want 2000", st.Offset)
		}
	}
}

// TestPeelGeneratorsProperty: for random well-separated orthogonal-ish
// pairs, peeling recovers exactly two generators close to the truth.
func TestPeelGeneratorsProperty(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		// Draw two vectors with a healthy angle between them.
		a1 := src.Phase()
		a2 := a1 + math.Pi/2 + src.Uniform(-0.6, 0.6)
		m1 := src.Uniform(5e-4, 1.2e-3)
		m2 := src.Uniform(5e-4, 1.2e-3)
		e1 := complex(m1*math.Cos(a1), m1*math.Sin(a1))
		e2 := complex(m2*math.Cos(a2), m2*math.Sin(a2))
		var diffs []complex128
		for i := 0; i < 120; i++ {
			x := float64(src.Intn(3) - 1)
			y := float64(src.Intn(3) - 1)
			if x == 0 && y == 0 {
				continue
			}
			diffs = append(diffs, complex(x, 0)*e1+complex(y, 0)*e2+src.ComplexNorm(2*(4e-5)*(4e-5)))
		}
		gens, _ := peelGenerators(diffs, src)
		if len(gens) != 2 {
			return false
		}
		for _, g := range gens {
			d1 := math.Min(cAbs(g-e1), cAbs(g+e1))
			d2 := math.Min(cAbs(g-e2), cAbs(g+e2))
			if math.Min(d1, d2) > 0.25*cAbs(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestDensestModeIgnoresOrigin(t *testing.T) {
	src := rng.New(4)
	e := complex(5e-4, 0)
	var pts []complex128
	// Heavy origin cluster plus a modest ±e pair.
	for i := 0; i < 50; i++ {
		pts = append(pts, src.ComplexNorm(1e-10))
	}
	for i := 0; i < 20; i++ {
		s := complex(float64(1-2*(i%2)), 0)
		pts = append(pts, s*e+src.ComplexNorm(1e-10))
	}
	floor := noiseScale(pts)
	v, w := densestMode(pts, floor)
	if w < 15 {
		t.Fatalf("mode weight %d", w)
	}
	if math.Min(cAbs(v-e), cAbs(v+e)) > 1e-4 {
		t.Fatalf("mode %v, want ±e", v)
	}
}
