package decoder

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lf/internal/edgedetect"
	"lf/internal/streams"
)

// edgeClaimsRef is the comparator-sorted claim list edgeClaims
// replaces: every slot→edge reference, sorted by (edge, stream, slot).
func edgeClaimsRef(results []*StreamResult) []edgeClaim {
	var all []edgeClaim
	for si, sr := range results {
		for ki, slot := range sr.Slots {
			if slot.EdgeIdx >= 0 {
				all = append(all, edgeClaim{slot.EdgeIdx, claim{si, ki}})
			}
		}
	}
	slices.SortFunc(all, func(a, b edgeClaim) int {
		if a.edge != b.edge {
			return a.edge - b.edge
		}
		if a.stream != b.stream {
			return a.stream - b.stream
		}
		return a.slot - b.slot
	})
	return all
}

// claimStreams builds streams whose slots reference the given edge
// indices (-1 for a slot without an edge).
func claimStreams(edges ...[]int) []*StreamResult {
	results := make([]*StreamResult, len(edges))
	for si, idx := range edges {
		sr := &StreamResult{}
		for k, e := range idx {
			sr.Slots = append(sr.Slots, streams.SlotObs{Slot: k, EdgeIdx: e})
		}
		results[si] = sr
	}
	return results
}

// TestEdgeClaimsMatchesSortOrder pins the counting-sorted claim list to
// the (edge, stream, slot) comparator sort: on no claims at all, on
// gaps in the edge indices, on one stream claiming an edge from two
// slots, on a window whose lowest edge index is far above 0, and on
// random windows where streams share edges.
func TestEdgeClaimsMatchesSortOrder(t *testing.T) {
	cases := map[string][]*StreamResult{
		"no streams":  nil,
		"no claims":   claimStreams([]int{-1, -1}, nil),
		"gaps":        claimStreams([]int{3, -1, 40, 41}, []int{40, 97}, []int{3}),
		"same stream": claimStreams([]int{7, 7, 8}, []int{8, 7}),
		"far window":  claimStreams([]int{1_000_000_007, 1_000_000_003}, []int{1_000_000_003, -1, 1_000_000_010}),
	}
	r := rand.New(rand.NewSource(3))
	for c := 0; c < 50; c++ {
		base := r.Intn(1 << 20)
		width := 1 + r.Intn(200)
		edges := make([][]int, r.Intn(12))
		for si := range edges {
			edges[si] = make([]int, r.Intn(60))
			for k := range edges[si] {
				if r.Intn(5) == 0 {
					edges[si][k] = -1
				} else {
					edges[si][k] = base + r.Intn(width)
				}
			}
		}
		cases[fmt.Sprintf("random %d", c)] = claimStreams(edges...)
	}
	for name, results := range cases {
		got, want := edgeClaims(results), edgeClaimsRef(results)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: claims %v, comparator order %v", name, got, want)
		}
	}
}

// touchedRangesRef is the sort-based form touchedRanges replaces: one
// span per non-zero segment, merged by mergeRanges.
func touchedRangesRef(contribs [][]reconSeg) []edgedetect.Span {
	var spans []edgedetect.Span
	for _, segs := range contribs {
		for _, seg := range segs {
			if seg.dense == nil && real(seg.val) == 0 && imag(seg.val) == 0 &&
				!math.Signbit(real(seg.val)) && !math.Signbit(imag(seg.val)) {
				continue
			}
			spans = append(spans, edgedetect.Span{Lo: int64(seg.lo), Hi: int64(seg.hi)})
		}
	}
	return mergeRanges(spans)
}

// randomCover builds a position-sorted contiguous segment cover of
// [0, n) mixing dense runs with constant runs of (+0, +0), (−0, 0) and
// non-zero values, the way reconstruct's output interleaves them.
func randomCover(r *rand.Rand, n int) []reconSeg {
	negZero := math.Copysign(0, -1)
	vals := []complex128{0, complex(negZero, 0), complex(0, negZero), complex(0.5, -1)}
	var segs []reconSeg
	for pos := 0; pos < n; {
		hi := min(n, pos+1+r.Intn(n/8+1))
		seg := reconSeg{lo: pos, hi: hi}
		if r.Intn(3) == 0 {
			seg.dense = make([]complex128, hi-pos)
		} else {
			seg.val = vals[r.Intn(len(vals))]
		}
		segs = append(segs, seg)
		pos = hi
	}
	return segs
}

// TestTouchedRangesMatchesReference pins the linear merge to the
// sort-based one on reconstructions of random decoded streams and on
// random covers with constant (+0, +0), (−0, 0) and non-zero runs.
func TestTouchedRangesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for c := 0; c < 200; c++ {
		n := 1 + r.Intn(20000)
		contribs := make([][]reconSeg, r.Intn(6))
		for i := range contribs {
			if r.Intn(2) == 0 {
				first := int64(r.Intn(n))
				contribs[i] = reconstruct(randomStream(r, first, 1+int64(r.Intn(300)), r.Intn(80)), n, 1+r.Intn(24))
			} else {
				contribs[i] = randomCover(r, n)
			}
		}
		got, want := touchedRanges(contribs), touchedRangesRef(contribs)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("case %d: touched %v, reference %v", c, got, want)
		}
		for i, sp := range got {
			if sp.Lo >= sp.Hi || (i > 0 && got[i-1].Hi >= sp.Lo) {
				t.Fatalf("case %d: touched spans %v are not sorted, disjoint and non-adjacent", c, got)
			}
		}
	}
}
