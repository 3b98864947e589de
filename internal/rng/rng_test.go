package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIsDeterministic(t *testing.T) {
	a := New(7).Split("noise")
	b := New(7).Split("noise")
	for i := 0; i < 50; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Split with same label diverged")
		}
	}
}

func TestSplitLabelsIndependent(t *testing.T) {
	parent := New(7)
	a := parent.Split("alpha")
	parent2 := New(7)
	_ = parent2.Split("alpha")
	b := parent2.Split("beta")
	// A beta split after an alpha split must not replay alpha's stream.
	same := 0
	for i := 0; i < 50; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("splits with different labels matched %d/50 draws", same)
	}
}

func TestUniformBounds(t *testing.T) {
	src := New(3)
	f := func(a, b float64) bool {
		lo, hi := a, b
		if math.IsNaN(lo) || math.IsNaN(hi) || math.Abs(lo) > 1e100 || math.Abs(hi) > 1e100 {
			return true // hi-lo would overflow; not a realistic range
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			return true
		}
		v := src.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormMoments(t *testing.T) {
	src := New(11)
	n := 20000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := src.Norm(3, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean-3) > 0.1 {
		t.Fatalf("mean %.3f, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.3 {
		t.Fatalf("variance %.3f, want ~4", variance)
	}
}

func TestComplexNormVariance(t *testing.T) {
	src := New(13)
	n := 20000
	const sigma2 = 0.5
	var total float64
	for i := 0; i < n; i++ {
		v := src.ComplexNorm(sigma2)
		total += real(v)*real(v) + imag(v)*imag(v)
	}
	got := total / float64(n)
	if math.Abs(got-sigma2) > 0.05 {
		t.Fatalf("total variance %.3f, want ~%.3f", got, sigma2)
	}
}

func TestUnitPhasorMagnitude(t *testing.T) {
	src := New(17)
	for i := 0; i < 100; i++ {
		v := src.UnitPhasor()
		mag := math.Hypot(real(v), imag(v))
		if math.Abs(mag-1) > 1e-12 {
			t.Fatalf("phasor magnitude %v", mag)
		}
	}
}

func TestToleranceRange(t *testing.T) {
	src := New(19)
	for i := 0; i < 1000; i++ {
		v := src.Tolerance(0.2)
		if v < 0.8 || v > 1.2 {
			t.Fatalf("tolerance draw %v outside [0.8,1.2]", v)
		}
	}
}

func TestPPMRange(t *testing.T) {
	src := New(23)
	for i := 0; i < 1000; i++ {
		v := src.PPM(150)
		if v < 1-150e-6 || v > 1+150e-6 {
			t.Fatalf("ppm draw %v outside ±150ppm", v)
		}
	}
}

func TestBitsAreBits(t *testing.T) {
	src := New(29)
	bits := src.Bits(1000)
	if len(bits) != 1000 {
		t.Fatalf("got %d bits", len(bits))
	}
	ones := 0
	for _, b := range bits {
		if b > 1 {
			t.Fatalf("non-bit value %d", b)
		}
		if b == 1 {
			ones++
		}
	}
	if ones < 400 || ones > 600 {
		t.Fatalf("ones=%d of 1000, badly unbalanced", ones)
	}
}

func TestSignValues(t *testing.T) {
	src := New(31)
	pos, neg := 0, 0
	for i := 0; i < 1000; i++ {
		switch src.Sign() {
		case 1:
			pos++
		case -1:
			neg++
		default:
			t.Fatal("Sign returned non ±1")
		}
	}
	if pos < 400 || neg < 400 {
		t.Fatalf("sign imbalance: +%d -%d", pos, neg)
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := New(37)
	p := src.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestIntnRange(t *testing.T) {
	src := New(41)
	for i := 0; i < 1000; i++ {
		if v := src.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

// TestLazySeedingKeepsSequences: a Source seeds its generator on its
// first draw, yet New and Split children drawn only after their
// parents have drawn further still produce exactly the math/rand
// sequence of their seed. A Split child's seed is FNV-1a of the label
// xor the parent's next Int63, taken when Split is called.
func TestLazySeedingKeepsSequences(t *testing.T) {
	const seed = 11
	ref := rand.New(rand.NewSource(seed))
	childSeed := func(label string) int64 { return int64(fnvLabel(label) ^ uint64(ref.Int63())) }

	parent := New(seed)
	if got, want := parent.Float64(), ref.Float64(); got != want {
		t.Fatalf("parent first draw = %v, want %v", got, want)
	}
	a := parent.Split("a")
	wantA := rand.New(rand.NewSource(childSeed("a")))
	b := parent.Split("b")
	wantB := rand.New(rand.NewSource(childSeed("b")))
	grand := b.Split("g") // b's first use is a Split, before any draw
	wantG := rand.New(rand.NewSource(int64(fnvLabel("g") ^ uint64(wantB.Int63()))))
	for i := 0; i < 5; i++ { // the parent moves on before any child draws
		if got, want := parent.Int63(), ref.Int63(); got != want {
			t.Fatalf("parent draw %d = %d, want %d", i, got, want)
		}
	}
	late := New(seed + 1) // never drawn until now
	wantLate := rand.New(rand.NewSource(seed + 1))

	for i := 0; i < 20; i++ {
		for _, c := range []struct {
			name string
			got  *Source
			want *rand.Rand
		}{{"a", a, wantA}, {"b", b, wantB}, {"b/g", grand, wantG}, {"late", late, wantLate}} {
			if got, want := c.got.Int63(), c.want.Int63(); got != want {
				t.Fatalf("%s draw %d = %d, want %d", c.name, i, got, want)
			}
		}
	}
}

func fnvLabel(label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return h.Sum64()
}
