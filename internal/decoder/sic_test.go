package decoder

import (
	"math"
	"math/rand"
	"testing"

	"lf/internal/edgedetect"
	"lf/internal/streams"
	"lf/internal/viterbi"
)

// randomStream builds a decoded stream whose edge slots sit every
// period samples from first, with random Up/Down/hold states and clean
// locks, so reconstruct renders ramps, constant runs between them and
// (for period < ramp) overlapping ramps.
func randomStream(r *rand.Rand, first, period int64, slots int) *StreamResult {
	sr := &StreamResult{Stream: &streams.Stream{E: complex(r.NormFloat64(), r.NormFloat64())}}
	for k := 0; k < slots; k++ {
		obs := complex(r.NormFloat64(), r.NormFloat64())
		sr.Slots = append(sr.Slots, streams.SlotObs{Slot: k, Pos: first + int64(k)*period,
			Kind: streams.MatchClean, Obs: obs})
		sr.States = append(sr.States, []viterbi.State{viterbi.Up, viterbi.Down, viterbi.HoldAfterUp}[r.Intn(3)])
	}
	return sr
}

// bitsEqual compares two complex values bit for bit, telling +0 from
// −0.
func bitsEqual(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestSICFillResidual pins the residual rebuild a SIC round relies on:
// filled over a few lane regions, the residual must hold, inside every
// region, the same bits as a fill of the whole capture, and that fill
// must equal the retained capture minus each contribution subtracted
// densely, in order. Entries outside the regions must stay untouched. The contributions
// cover overlapping ramps, ramps clipped at the capture end, non-zero
// constant runs, and hand-made −0 constant runs over −0 samples (where
// x − (−0) differs bitwise from x).
func TestSICFillResidual(t *testing.T) {
	const n = 50000
	r := rand.New(rand.NewSource(5))
	retain := make([]complex128, n)
	for i := range retain {
		retain[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	negZero := math.Copysign(0, -1)
	for i := 10; i < 60; i++ { // under only (+0, +0) runs of the reconstructions
		retain[i] = complex(negZero, negZero)
	}
	contribs := [][]reconSeg{
		reconstruct(randomStream(r, 100, 7, 3000), n, 3),    // sparse ramps over most of the capture
		reconstruct(randomStream(r, 1000, 2, 20), n, 5),     // overlapping ramps
		reconstruct(randomStream(r, n-40, 11, 8), n, 24),    // ramps clipped at the capture end
		reconstruct(randomStream(r, 30000, 13, 1500), n, 3), // starts mid-capture: leading +0 run
		{{lo: 0, hi: 40, val: complex(negZero, negZero)}, // −0 constant over −0 samples
			{lo: 40, hi: 50, dense: make([]complex128, 10)},
			{lo: 50, hi: n, val: complex(0.25, negZero)}},
	}
	want := make([]complex128, n)
	copy(want, retain)
	for _, segs := range contribs {
		for _, seg := range segs {
			for i := seg.lo; i < seg.hi; i++ {
				v := seg.val
				if seg.dense != nil {
					v = seg.dense[i-seg.lo]
				}
				want[i] -= v
			}
		}
	}
	regions := []edgedetect.Span{{Lo: 0, Hi: 37}, {Lo: 42, Hi: 47}, {Lo: 1003, Hi: 1011}, {Lo: 5000, Hi: 20055},
		{Lo: 20057, Hi: 45000}, {Lo: n - 30, Hi: n}}
	whole := make([]complex128, n)
	fillResidual(whole, retain, contribs, []edgedetect.Span{{Lo: 0, Hi: n}})
	for i := range whole {
		if !bitsEqual(whole[i], want[i]) {
			t.Fatalf("whole fill at %d = %v, want %v", i, whole[i], want[i])
		}
	}
	poison := complex(math.NaN(), math.NaN())
	local := make([]complex128, n)
	for i := range local {
		local[i] = poison
	}
	fillResidual(local, retain, contribs, regions)
	ri := 0
	for i := range local {
		for ri < len(regions) && regions[ri].Hi <= int64(i) {
			ri++
		}
		inside := ri < len(regions) && regions[ri].Lo <= int64(i)
		if inside && !bitsEqual(local[i], whole[i]) {
			t.Fatalf("region fill at %d = %v, whole fill %v", i, local[i], whole[i])
		}
		if !inside && !math.IsNaN(real(local[i])) {
			t.Fatalf("region fill wrote %v at %d, outside every region", local[i], i)
		}
	}
}
