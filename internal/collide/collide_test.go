package collide

import (
	"math/cmplx"
	"testing"
	"testing/quick"

	"lf/internal/rng"
)

var (
	testE1 = complex(4.0e-4, 5.5e-4)
	testE2 = complex(-5.5e-4, 2.0e-4)
)

func TestClassifyExhaustive(t *testing.T) {
	for a := -1; a <= 1; a++ {
		for b := -1; b <= 1; b++ {
			d := complex(float64(a), 0)*testE1 + complex(float64(b), 0)*testE2
			ga, gb := Classify(d, testE1, testE2)
			if int(ga) != a || int(gb) != b {
				t.Fatalf("Classify(%d,%d) = (%d,%d)", a, b, ga, gb)
			}
		}
	}
}

func TestClassifyWithNoise(t *testing.T) {
	src := rng.New(1)
	wrong := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		a, b := src.Intn(3)-1, src.Intn(3)-1
		d := complex(float64(a), 0)*testE1 + complex(float64(b), 0)*testE2 + src.ComplexNorm(1e-9)
		ga, gb := Classify(d, testE1, testE2)
		if int(ga) != a || int(gb) != b {
			wrong++
		}
	}
	if wrong > trials/50 {
		t.Fatalf("%d/%d misclassifications at high SNR", wrong, trials)
	}
}

func TestLattice(t *testing.T) {
	l := Lattice(testE1, testE2)
	if len(l) != 9 {
		t.Fatalf("lattice size %d", len(l))
	}
	if l[4] != 0 {
		t.Fatalf("lattice centre %v, want origin", l[4])
	}
}

func TestParallelogramRecovery(t *testing.T) {
	centroids := Lattice(testE1, testE2)
	e1, e2, err := Parallelogram(centroids)
	if err != nil {
		t.Fatal(err)
	}
	okDirect := vecClose(e1, testE1) && vecClose(e2, testE2)
	okSwapped := vecClose(e1, testE2) && vecClose(e2, testE1)
	if !okDirect && !okSwapped {
		t.Fatalf("recovered %v, %v; want ±%v, ±%v", e1, e2, testE1, testE2)
	}
}

func vecClose(a, b complex128) bool {
	return cmplx.Abs(a-b) < 0.1*cmplx.Abs(b) || cmplx.Abs(a+b) < 0.1*cmplx.Abs(b)
}

func TestParallelogramRejectsParallel(t *testing.T) {
	// Two nearly parallel vectors: the lattice is almost collinear.
	e2 := testE1 * complex(0.6, 0.01)
	if _, _, err := Parallelogram(Lattice(testE1, e2)); err == nil {
		t.Fatal("parallel geometry should be rejected")
	}
}

func TestParallelogramNeedsNine(t *testing.T) {
	if _, _, err := Parallelogram(make([]complex128, 4)); err == nil {
		t.Fatal("wrong centroid count accepted")
	}
}

func TestSeparateBlindEndToEnd(t *testing.T) {
	src := rng.New(2)
	var points []complex128
	var truth [][2]State
	for i := 0; i < 270; i++ {
		a := State(src.Intn(3) - 1)
		b := State(src.Intn(3) - 1)
		d := complex(float64(a), 0)*testE1 + complex(float64(b), 0)*testE2 + src.ComplexNorm(4e-10)
		points = append(points, d)
		truth = append(truth, [2]State{a, b})
	}
	sep, err := SeparateBlind(points, src)
	if err != nil {
		t.Fatal(err)
	}
	// Align recovered vectors to the ground truth.
	swap := !MatchVectors(sep.E1, sep.E2, testE1, testE2)
	correct := 0
	for i, st := range sep.States {
		a, b := st[0], st[1]
		if swap {
			a, b = b, a
		}
		// Resolve sign: recovered vectors may be negated.
		r1, r2 := sep.E1, sep.E2
		if swap {
			r1, r2 = r2, r1
		}
		if cmplx.Abs(r1+testE1) < cmplx.Abs(r1-testE1) {
			a = -a
		}
		if cmplx.Abs(r2+testE2) < cmplx.Abs(r2-testE2) {
			b = -b
		}
		if a == truth[i][0] && b == truth[i][1] {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(points)); frac < 0.95 {
		t.Fatalf("blind separation accuracy %.3f", frac)
	}
}

func TestSeparateBlindNeedsPoints(t *testing.T) {
	if _, err := SeparateBlind(make([]complex128, 5), rng.New(1)); err == nil {
		t.Fatal("too few points accepted")
	}
}

func TestSeparateAnchored(t *testing.T) {
	points := []complex128{testE1, -testE2, testE1 + testE2, 0}
	sep := SeparateAnchored(points, testE1, testE2)
	want := [][2]State{{1, 0}, {0, -1}, {1, 1}, {0, 0}}
	for i, st := range sep.States {
		if st != want[i] {
			t.Fatalf("point %d: %v, want %v", i, st, want[i])
		}
	}
}

func TestMatchVectors(t *testing.T) {
	if !MatchVectors(testE1, testE2, testE1, testE2) {
		t.Fatal("direct match rejected")
	}
	if MatchVectors(testE1, testE2, testE2, testE1) {
		t.Fatal("swapped match not detected")
	}
	if !MatchVectors(-testE1, testE2, testE1, testE2) {
		t.Fatal("sign flip should still match directly")
	}
}

func TestClassifyJointMatchesPairwise(t *testing.T) {
	src := rng.New(3)
	f := func(ai, bi uint8) bool {
		a := int(ai%3) - 1
		b := int(bi%3) - 1
		d := complex(float64(a), 0)*testE1 + complex(float64(b), 0)*testE2 + src.ComplexNorm(1e-10)
		joint := ClassifyJoint(d, []complex128{testE1, testE2})
		ga, gb := Classify(d, testE1, testE2)
		return joint[0] == ga && joint[1] == gb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyJointThreeWay(t *testing.T) {
	e3 := complex(1e-4, -6e-4)
	src := rng.New(4)
	for i := 0; i < 200; i++ {
		a := State(src.Intn(3) - 1)
		b := State(src.Intn(3) - 1)
		c := State(src.Intn(3) - 1)
		d := complex(float64(a), 0)*testE1 + complex(float64(b), 0)*testE2 +
			complex(float64(c), 0)*e3 + src.ComplexNorm(1e-10)
		got := ClassifyJoint(d, []complex128{testE1, testE2, e3})
		if got[0] != a || got[1] != b || got[2] != c {
			t.Fatalf("joint (%d,%d,%d) -> %v", a, b, c, got)
		}
	}
}

func TestRecoverAntipodalPrefersGenerators(t *testing.T) {
	// Centroids: generators (heavy) plus corners (light).
	centroids := []complex128{
		testE1, -testE1, testE2, -testE2,
		testE1 + testE2, -testE1 - testE2, testE1 - testE2, testE2 - testE1,
	}
	counts := []int{40, 40, 35, 35, 8, 8, 8, 8}
	e1, e2, err := RecoverAntipodal(centroids, counts)
	if err != nil {
		t.Fatal(err)
	}
	ok := (vecClose(e1, testE1) && vecClose(e2, testE2)) ||
		(vecClose(e1, testE2) && vecClose(e2, testE1))
	if !ok {
		t.Fatalf("recovered %v, %v", e1, e2)
	}
}

func TestStateString(t *testing.T) {
	if Rising != 1 || Falling != -1 || Constant != 0 {
		t.Fatal("state constants changed")
	}
}
