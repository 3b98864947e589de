package streams

import (
	"fmt"
	"math"
	"os"
	"sort"

	"lf/internal/cluster"
	"lf/internal/collide"
	"lf/internal/dsp"
	"lf/internal/edgedetect"
	"lf/internal/rng"
)

// Eye-pattern registration (§3.2 "Decoding edges"). The preamble
// matcher in streams.go needs several consecutive clean edges, which
// dense deployments rarely leave intact — at sixteen 100 kbps tags
// roughly half of all edges have a neighbour within the collision
// window. The eye pattern instead folds every edge position modulo the
// candidate bit period: a genuine stream piles tens of edges into one
// phase bin while other streams' edges land in their own bins, so a
// stream is detectable even when many of its individual edges are
// collided. This mirrors the paper's folding of the signal at each
// valid rate to detect stream presence.
//
// A phase peak is not always one tag: two tags whose comparator delays
// land within the collision window share a peak (the Fig. 3 bottom
// case). The member differentials betray this — one tag yields the two
// antipodal clusters ±e, a merged pair yields the ±e₁, ±e₂, ±e₁±e₂
// lattice — so each peak is vector-analyzed and may register as two
// streams sharing a grid.

// eyeDebug enables stderr tracing of eye registration (development).
var eyeDebug = os.Getenv("LF_EYE_DEBUG") != ""

// eyeParams derives the folding window and thresholds for one period.
type eyeParams struct {
	binWidth  float64
	windowPos float64 // only edges before this position are folded
	minHits   int
}

func eyeParamsFor(period float64, cfg Config, maxSlots int) eyeParams {
	// Clock drift smears a stream's phase by period·ppm per slot. The
	// folding window covers up to 64 slots (or the whole frame when
	// shorter — slow tags send few bits) and the bin width scales so
	// one stream's smear stays within a bin or three.
	smearPerSlot := period * cfg.DriftPPM / 1e6
	slots := 64.0
	if float64(maxSlots) < slots {
		slots = float64(maxSlots)
	}
	binWidth := 4.0
	if w := smearPerSlot * slots / 3; w > binWidth {
		binWidth = w
	}
	minHits := int(slots / 8)
	if minHits > 8 {
		minHits = 8
	}
	if minHits < 5 {
		minHits = 5
	}
	return eyeParams{
		binWidth:  binWidth,
		windowPos: float64(cfg.MaxStart) + slots*period,
		minHits:   minHits,
	}
}

// eyeRegister finds streams of the given rate among unused edges by
// phase folding. Found streams' edges are consumed; regions that fail
// to validate are blocked (not consumed — their edges may belong to a
// slower rate folded onto one phase).
func eyeRegister(edges []edgedetect.Edge, used []bool, rate float64, cfg Config, payloadBits int, src *rng.Source) []*Stream {
	period := cfg.SampleRate / rate
	maxSlots := FrameSlots(cfg, payloadBits)
	ep := eyeParamsFor(period, cfg, maxSlots)
	bins := int(period / ep.binWidth)
	blocked := make([]bool, bins+1)
	if eyeDebug {
		unused := 0
		for i := range edges {
			if !used[i] {
				unused++
			}
		}
		fmt.Fprintf(os.Stderr, "eyeRegister rate %.0f: %d unused edges, bins %d, window %.0f, minHits %d\n",
			rate, unused, bins, ep.windowPos, ep.minHits)
	}
	var found []*Stream
	for {
		sts := eyeOnce(edges, used, blocked, rate, period, ep, cfg, payloadBits, src)
		if len(sts) == 0 {
			return found
		}
		found = append(found, sts...)
	}
}

// eyeOnce extracts the strongest remaining phase-cluster region as one
// or more streams, or returns nil when no peak clears the threshold.
// A region can hold several tags — chains of nearby comparator phases
// are common at sixteen tags — so the member differentials are
// analyzed for up to four per-tag generator vectors, and each
// recovered generator gets its own grid fit from its solo edges.
func eyeOnce(edges []edgedetect.Edge, used []bool, blocked []bool, rate, period float64, ep eyeParams, cfg Config, payloadBits int, src *rng.Source) []*Stream {
	bins := int(period / ep.binWidth)
	if bins < 4 {
		return nil
	}
	counts := make([]int, bins)
	for i := range edges {
		if used[i] || float64(edges[i].Pos) > ep.windowPos {
			continue
		}
		phase := math.Mod(float64(edges[i].Pos), period)
		b := int(phase / period * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	// Peak bin plus its neighbour (the phase may straddle a bin edge).
	best, bestCount := -1, 0
	for b := 0; b < bins; b++ {
		if blocked[b] {
			continue
		}
		c := counts[b] + counts[(b+1)%bins]
		if c > bestCount {
			best, bestCount = b, c
		}
	}
	if best < 0 || bestCount < ep.minHits {
		if eyeDebug {
			fmt.Fprintf(os.Stderr, "eye rate %.0f: no peak (best %d < %d)\n", rate, bestCount, ep.minHits)
		}
		return nil
	}
	// Expand the peak into a contiguous region of active bins: phase
	// chains span several bins.
	loBin, hiBin := best, best+1
	active := ep.minHits / 4
	if active < 2 {
		active = 2
	}
	for span := 0; span < bins/3 && counts[(loBin-1+bins)%bins] >= active; span++ {
		loBin = (loBin - 1 + bins) % bins
	}
	for span := 0; span < bins/3 && counts[(hiBin+1)%bins] >= active; span++ {
		hiBin = (hiBin + 1) % bins
	}
	// Use the same quantization as the counting loop (period/bins, not
	// the nominal binWidth — integer truncation makes them differ, and
	// a peak's members must not fall outside its own region).
	actualWidth := period / float64(bins)
	loPh := float64(loBin) * actualWidth
	hiPh := (float64(hiBin) + 1) * actualWidth
	members := collectRegion(edges, used, period, loPh, hiPh, ep.windowPos)
	if len(members) < ep.minHits {
		if eyeDebug {
			fmt.Fprintf(os.Stderr, "eye rate %.0f: region [%.0f,%.0f] only %d members\n", rate, loPh, hiPh, len(members))
		}
		return nil
	}
	gens, shadowed := regionGenerators(edges, members, src)
	if len(gens) == 0 && eyeDebug {
		fmt.Fprintf(os.Stderr, "eye rate %.0f: no generators from %d members\n", rate, len(members))
	}
	if eyeDebug {
		fmt.Fprintf(os.Stderr, "eye region [%.0f,%.0f] members=%d gens=%d\n", loPh, hiPh, len(members), len(gens))
		for _, g := range gens {
			fmt.Fprintf(os.Stderr, "  gen %.2e angle %.0f\n", dsp.Abs(g), math.Atan2(imag(g), real(g))*180/math.Pi)
		}
	}
	var out []*Stream
	for gi := range gens {
		st := fitGenerator(edges, members, gens, gi, shadowed[gi], period, cfg)
		e := gens[gi]
		if st == nil {
			if eyeDebug {
				fmt.Fprintf(os.Stderr, "  gen %.2e: fit failed\n", dsp.Abs(e))
			}
			continue
		}
		st.Rate = rate
		st.Source = SourceEye
		if !validateHead(edges, st, gens, gi, shadowed[gi], cfg) {
			if eyeDebug {
				fmt.Fprintf(os.Stderr, "  gen %.2e: head invalid at off %.1f\n", dsp.Abs(e), st.Offset)
			}
			continue
		}
		if eyeDebug {
			fmt.Fprintf(os.Stderr, "  gen %.2e -> stream off=%.1f per=%.4f\n", dsp.Abs(e), st.Offset, st.Period)
		}
		out = append(out, st)
	}
	if len(out) == 0 {
		// Nothing validated: block the peak bin and try the next-best
		// region. The members stay available — they may belong to a
		// slower rate whose edges all fold onto one phase here.
		blocked[best] = true
		return eyeOnce(edges, used, blocked, rate, period, ep, cfg, payloadBits, src)
	}
	for _, mi := range members {
		used[mi] = true
	}
	for _, st := range out {
		consumePayloadEdges(edges, used, st, FrameSlots(cfg, payloadBits), cfg)
	}
	return out
}

// collectRegion returns indices of unused edges whose phase lies in
// [loPh, hiPh] (mod period, loPh may exceed hiPh when the region wraps)
// and inside the folding window.
func collectRegion(edges []edgedetect.Edge, used []bool, period, loPh, hiPh, windowPos float64) []int {
	var out []int
	for i := range edges {
		if used[i] || float64(edges[i].Pos) > windowPos {
			continue
		}
		phase := math.Mod(float64(edges[i].Pos), period)
		in := false
		if loPh <= hiPh {
			in = phase >= loPh && phase <= hiPh
		} else {
			in = phase >= loPh || phase <= hiPh
		}
		if in {
			out = append(out, i)
		}
	}
	return out
}

// regionGenerators recovers the per-tag edge vectors present in a
// region from its member differentials. Single-peak members (edges the
// detector did not have to coalesce) are preferred: their differentials
// sit on the pure generators ±eᵢ, avoiding the lattice-recovery
// problem almost entirely — only pairs tighter than the detector's
// peak resolution still contribute combo contamination.
func regionGenerators(edges []edgedetect.Edge, members []int, src *rng.Source) ([]complex128, []bool) {
	var diffs []complex128
	for _, mi := range members {
		if edges[mi].Peaks == 1 {
			diffs = append(diffs, edges[mi].Diff)
		}
	}
	if len(diffs) < 8 {
		diffs = diffs[:0]
		for _, mi := range members {
			diffs = append(diffs, edges[mi].Diff)
		}
	}
	return peelGenerators(diffs, src)
}

// peelGenerators extracts per-tag vectors from a mixed differential
// population. It first harvests every antipodal cluster mode by
// matching pursuit (find the densest ± cluster, retire its points,
// repeat), then selects the generating basis: a fully merged pair's
// eight equal-weight clusters are {±e₁, ±e₂, ±e₁±e₂}, so the true
// generators are the pair whose ± sums and differences explain the
// most remaining modes — corner modes ±(e₁+e₂) fail that closure test
// (their "corners" 2e₁ and 2e₂ are never observed). Modes left
// unexplained by the basis (third/fourth tags in a phase chain) join
// the generator set unless they are lattice combinations of it.
func peelGenerators(diffs []complex128, src *rng.Source) ([]complex128, []bool) {
	work := append([]complex128(nil), diffs...)
	floor := noiseScale(work)
	minWeight := len(diffs) / 10
	if minWeight < 5 {
		minWeight = 5
	}
	type mode struct {
		v      complex128
		weight int
	}
	var modes []mode
	for len(modes) < 9 && len(work) >= minWeight {
		e, weight := densestMode(work, floor)
		if weight < minWeight || dsp.Abs(e) < 4*floor {
			break
		}
		modes = append(modes, mode{e, weight})
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
	switch len(modes) {
	case 0:
		// Single-vector fallback: mean of sign-aligned diffs.
		var sum complex128
		ref := diffs[0]
		for _, d := range diffs {
			if real(d)*real(ref)+imag(d)*imag(ref) < 0 {
				d = -d
			}
			sum += d
		}
		e := sum / complex(float64(len(diffs)), 0)
		if dsp.Abs(e) == 0 {
			return nil, nil
		}
		return []complex128{e}, []bool{false}
	case 1:
		return []complex128{modes[0].v}, []bool{false}
	}

	// Collinear region: every mode on (nearly) one line through the
	// origin is a 1-D lattice — parallel reflections the IQ plane
	// cannot invert. Register the dominant mode as a single shadowed
	// stream (time-domain walking may still serve one constituent)
	// rather than fabricating a corner basis.
	collinear := true
	for i := 0; i < len(modes) && collinear; i++ {
		for j := i + 1; j < len(modes); j++ {
			vi, vj := modes[i].v, modes[j].v
			cross := real(vi)*imag(vj) - imag(vi)*real(vj)
			if math.Abs(cross) >= 0.25*dsp.Abs(vi)*dsp.Abs(vj) {
				collinear = false
				break
			}
		}
	}
	if collinear {
		best := 0
		for i := range modes {
			if modes[i].weight > modes[best].weight {
				best = i
			}
		}
		return []complex128{modes[best].v}, []bool{true}
	}

	// Basis selection by lattice closure.
	near := func(a, b complex128) bool {
		scale := math.Max(dsp.Abs(a), dsp.Abs(b))
		return dsp.Dist(a, b) < 0.3*scale || dsp.Dist(a, -b) < 0.3*scale
	}
	bestScore := -1
	bestMag := math.Inf(1)
	bi, bj := 0, 1
	for i := 0; i < len(modes); i++ {
		for j := i + 1; j < len(modes); j++ {
			vi, vj := modes[i].v, modes[j].v
			cross := real(vi)*imag(vj) - imag(vi)*real(vj)
			if math.Abs(cross) < 0.05*dsp.Abs(vi)*dsp.Abs(vj) {
				continue // parallel: not a basis
			}
			score := modes[i].weight + modes[j].weight
			for k := range modes {
				if k == i || k == j {
					continue
				}
				if near(modes[k].v, vi+vj) || near(modes[k].v, vi-vj) {
					score += modes[k].weight
				}
			}
			// Tiebreak by total magnitude: a wrong basis swaps a
			// generator for one of its corners, and the corner on the
			// "long" side (the sum for acute pairs, the difference
			// for obtuse ones) always exceeds the generator it
			// replaced — so among closure-equivalent bases the true
			// generators have the smallest magnitude sum.
			mag := dsp.Abs(vi) + dsp.Abs(vj)
			better := score > bestScore+bestScore/8 ||
				(score >= bestScore-bestScore/8 && mag < bestMag)
			if bestScore < 0 {
				better = true
			}
			if better {
				bestScore, bestMag, bi, bj = score, mag, i, j
			}
		}
	}
	gens := []complex128{modes[bi].v, modes[bj].v}
	// shadowed[t] records that a *distinct* anti-parallel mode was
	// folded into generator t — the regime where the two reflections
	// destructively cancel when co-toggling, which downstream
	// validation must forgive.
	shadowed := []bool{false, false}
	parallelDup := func(a, b complex128) bool {
		ma, mb := dsp.Abs(a), dsp.Abs(b)
		if ma == 0 || mb == 0 {
			return true
		}
		cross := real(a)*imag(b) - imag(a)*real(b)
		ratio := ma / mb
		if ratio < 1 {
			ratio = 1 / ratio
		}
		// Nearly parallel and within ~2.5× magnitude: the same
		// physical reflection measured with different window quality,
		// an anti-parallel twin, or the stretched e−(−partner) combo —
		// in every case not an independently usable basis vector (the
		// IQ plane cannot separate parallel reflections).
		return math.Abs(cross) < 0.2*ma*mb && ratio < 2.2
	}
	// Unexplained heavy modes become additional generators (3+-tag
	// chains) unless the existing generator lattice explains them.
	for k := range modes {
		if k == bi || k == bj || len(gens) >= 4 {
			continue
		}
		v := modes[k].v
		explained := false
		for t := range gens {
			if parallelDup(v, gens[t]) {
				distinct := dsp.Dist(v, gens[t]) > 0.35*dsp.Abs(gens[t]) &&
					dsp.Dist(v, -gens[t]) > 0.35*dsp.Abs(gens[t])
				if distinct {
					// A distinct (anti-)parallel reflection hides in
					// this generator's mode: either directly
					// anti-parallel, or visible as the ~2× "stretched"
					// combo e−(−partner). Its co-toggles with the
					// generator destructively cancel.
					shadowed[t] = true
				}
				explained = true
				break
			}
			with, _ := latticeFit(v, gens, t)
			if with < 0.3*dsp.Abs(v) {
				explained = true
				break
			}
		}
		if !explained {
			gens = append(gens, v)
			shadowed = append(shadowed, false)
		}
	}
	return gens, shadowed
}

// densestMode finds the densest ± cluster in a differential
// population by direct mode seeking: each point is a candidate centre;
// the one with the most neighbours within a noise-scaled radius of ±d
// wins, and the mode is the sign-aligned mean of those neighbours.
// Unlike k-means this cannot blur two lattice clusters into a phantom
// centroid between them.
func densestMode(points []complex128, floor float64) (complex128, int) {
	work := append([]complex128(nil), points...)
	radiusFor := func(d complex128) float64 {
		return math.Max(5*floor, 0.22*dsp.Abs(d))
	}
	// A candidate blob straddling the origin (hold observations, or
	// residue of earlier removals) is not a generator; reject it and
	// keep searching the remaining points.
	for attempt := 0; attempt < 4 && len(work) > 0; attempt++ {
		bestIdx, bestCount := -1, 0
		for i, d := range work {
			if dsp.Abs(d) < 4*floor {
				continue // origin cluster is not a generator
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
		// Remove the rejected blob and retry.
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

// noiseScale estimates the observation noise magnitude as the median
// nearest-neighbour distance in the population: points inside a
// lattice cluster sit roughly one noise standard deviation apart,
// while inter-cluster distances are far larger. (The smallest
// *magnitudes* would not do — edge differentials have no origin
// cluster.)
func noiseScale(diffs []complex128) float64 {
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

// fitGenerator builds a stream for one recovered vector: its grid is
// fitted on the member edges where the vector appears alone (solo
// edges carry uncorrupted positions), and its anchor found with the
// frame-head template scan against the joint lattice of all the
// region's generators.
func fitGenerator(edges []edgedetect.Edge, members []int, gens []complex128, target int, shadowed bool, nominal float64, cfg Config) *Stream {
	e := gens[target]
	tol := 0.5 * dsp.Abs(e)
	var solo []int
	for _, mi := range members {
		d := edges[mi].Diff
		if dsp.Dist(d, e) <= tol || dsp.Dist(d, -e) <= tol {
			solo = append(solo, mi)
		}
	}
	if len(solo) < 4 {
		// Fully merged constituents may have few recognizable solo
		// edges; fall back to the shared grid of the whole region.
		solo = members
	}
	grid := fitGrid(edges, solo, nominal, cfg)
	if grid == nil {
		if eyeDebug {
			fmt.Fprintf(os.Stderr, "    fitGrid failed (%d solo)\n", len(solo))
		}
		return nil
	}
	offset := anchorScan(edges, grid.offset, grid.period, gens, target, shadowed, cfg)
	if offset < 0 || int64(offset) > cfg.MaxStart {
		if eyeDebug {
			fmt.Fprintf(os.Stderr, "    anchor failed (offset %.1f, shadowed %v)\n", offset, shadowed)
		}
		return nil
	}
	return &Stream{Offset: offset, Period: grid.period, E: e}
}

// validateHead checks the frame head: the preamble guarantees an edge
// in which the stream's vector participates at nearly every one of the
// first PreambleLen slots — except when a near-antipodal sibling can
// cancel the co-toggle below detectability, in which case missing
// edges are forgiven more generously.
func validateHead(edges []edgedetect.Edge, st *Stream, siblings []complex128, target int, shadowed bool, cfg Config) bool {
	head := 0
	memo := newLatticeMemo(len(edges), siblings[target])
	for k := 0; k < cfg.PreambleLen; k++ {
		expect := st.Offset + float64(k)*st.Period
		tol := float64(cfg.PosTol) + 2 + float64(k)*st.Period*cfg.DriftPPM/1e6
		if eOccupied(edges, expect, tol, siblings, target, memo) {
			head++
		}
	}
	need := cfg.PreambleLen - 1
	if shadowed || cancellable(siblings, target) {
		need = cfg.PreambleLen / 2
	}
	return head >= need
}

// cancellable reports whether some sibling generator can destructively
// cancel the target's edge below plausible detectability — the
// physical regime where co-toggle edges simply vanish from the
// capture.
func cancellable(gens []complex128, target int) bool {
	e := gens[target]
	for i, g := range gens {
		if i == target {
			continue
		}
		if dsp.Abs(e+g) < 0.3*dsp.Abs(e) || dsp.Abs(e-g) < 0.3*dsp.Abs(e) {
			return true
		}
	}
	return false
}

// latticeMemo caches latticeFit results per edge index for one fixed
// (gens, target) pair, along with |gens[target]|. The anchor scan and
// head validation re-test the same edges at many overlapping scan
// positions, and each latticeFit enumerates {−1,0,1}^n — caching the
// pure function's value is bit-identical to recomputing it and removes
// the enumeration from all repeat visits. NaN marks an uncomputed entry
// (latticeFit never returns NaN for finite inputs: dsp.Dist of finite
// values is finite).
type latticeMemo struct {
	with, without []float64
	eAbs          float64
}

func newLatticeMemo(n int, e complex128) *latticeMemo {
	m := &latticeMemo{with: make([]float64, n), without: make([]float64, n), eAbs: dsp.Abs(e)}
	for i := range m.with {
		m.with[i] = math.NaN()
	}
	return m
}

// eOccupied reports whether an edge near pos plausibly contains a ±1
// component of gens[target] — i.e. whether this stream toggled there,
// alone or inside a collision with its sibling generators. The test
// classifies the differential against the joint lattice of all known
// generators twice — once freely and once with the target forced to 0
// — and declares occupancy when including the target's contribution
// improves the fit by a meaningful margin. This stays correct under
// destructive interference (|e+f| < |f|), where any magnitude-
// reduction heuristic fails. memo, when non-nil, must have been built
// for this exact (edges, gens, target) triple.
func eOccupied(edges []edgedetect.Edge, pos, tol float64, gens []complex128, target int, memo *latticeMemo) bool {
	var eAbs float64
	if memo != nil {
		eAbs = memo.eAbs
	} else {
		eAbs = dsp.Abs(gens[target])
	}
	if eAbs == 0 {
		return false
	}
	lo := sort.Search(len(edges), func(i int) bool {
		return float64(edges[i].Pos) >= pos-tol-16
	})
	for i := lo; i < len(edges) && float64(edges[i].First) <= pos+tol; i++ {
		if float64(edges[i].Last) < pos-tol {
			continue
		}
		var with, without float64
		if memo != nil && !math.IsNaN(memo.with[i]) {
			with, without = memo.with[i], memo.without[i]
		} else {
			with, without = latticeFit(edges[i].Diff, gens, target)
			if memo != nil {
				memo.with[i], memo.without[i] = with, without
			}
		}
		if with < without-0.2*eAbs {
			return true
		}
	}
	return false
}

// latticeFit returns the best lattice-fit distances of d over
// Σ aᵢ·gens[i] with aᵢ ∈ {−1,0,1}: once with a[target] ∈ {−1,+1}
// (with) and once with a[target] = 0 (without).
func latticeFit(d complex128, gens []complex128, target int) (with, without float64) {
	with, without = math.Inf(1), math.Inf(1)
	// Iterative enumeration of {−1,0,1}^n as base-3 counters — this is
	// an anchor-scan hot path, so no per-call slice or closure. The
	// partial sum accumulates in index order (zero terms included) to
	// keep the float op order of the recursive formulation.
	total := 1
	for range gens {
		total *= 3
	}
	for mask := 0; mask < total; mask++ {
		var partial complex128
		ct := 0
		for i, m := 0, mask; i < len(gens); i++ {
			c := m%3 - 1
			m /= 3
			if i == target {
				ct = c
			}
			partial += complex(float64(c), 0) * gens[i]
		}
		dist := dsp.Dist(d, partial)
		if ct == 0 {
			if dist < without {
				without = dist
			}
		} else if dist < with {
			with = dist
		}
	}
	return with, without
}

// AnchorFor locates the frame anchor of a stream with vector e on a
// fitted slot grid: the earliest grid position within the comparator
// window whose next PreambleLen slots are (almost) all e-occupied. In
// a dense deployment "some edge nearby" holds for half of all slots by
// chance, so the vector-participation test is what makes this scan
// meaningful.
func AnchorFor(edges []edgedetect.Edge, offset, period float64, e complex128, cfg Config) float64 {
	return anchorScan(edges, offset, period, []complex128{e}, 0, false, cfg)
}

// anchorScan is AnchorFor with the full sibling generator set, so the
// occupancy test understands collided frame heads.
func anchorScan(edges []edgedetect.Edge, offset, period float64, gens []complex128, target int, shadowed bool, cfg Config) float64 {
	missPenalty, minScore := headGate(gens, target, shadowed, cfg)
	return scanHeads(edges, offset, period, missPenalty, minScore, cfg, headProbe(edges, period, gens, target, cfg))
}

// headGate returns the frame-head template's per-slot miss penalty and
// acceptance score. When a near-antipodal sibling can swallow co-toggle
// edges, missing preamble edges are expected and must not be
// penalized.
func headGate(gens []complex128, target int, shadowed bool, cfg Config) (missPenalty, minScore int) {
	if shadowed || cancellable(gens, target) {
		return 0, cfg.PreambleLen // half the preamble visible is convincing enough
	}
	return -2, 2 * (cfg.PreambleLen - 2)
}

// headProbe returns the template's occupancy probe: whether the slot
// at pos, slotsAway periods from the candidate anchor, holds an edge
// in which gens[target] participates.
func headProbe(edges []edgedetect.Edge, period float64, gens []complex128, target int, cfg Config) func(pos float64, slotsAway int) bool {
	memo := newLatticeMemo(len(edges), gens[target])
	return func(pos float64, slotsAway int) bool {
		// Tolerance grows with distance from the fit origin: clock
		// drift accumulates per slot, which matters at slow rates
		// where one slot is tens of thousands of samples.
		away := slotsAway
		if away < 0 {
			away = -away
		}
		tol := float64(cfg.PosTol) + 2 + float64(away)*period*cfg.DriftPPM/1e6
		return eOccupied(edges, pos, tol, gens, target, memo)
	}
}

// scanHeads scores the frame-head template at every lattice position
// from the earliest one congruent to offset up to cfg.MaxStart and
// returns the first best-scoring position, or -1 when no position
// reaches minScore. occ(pos, k) reports e-occupancy of the slot k
// periods after the candidate anchor.
func scanHeads(edges []edgedetect.Edge, offset, period float64, missPenalty, minScore int, cfg Config, occ func(pos float64, slotsAway int) bool) float64 {
	m := int(offset / period)
	earliest := offset - float64(m)*period
	// A lattice position whose whole probe window holds no edge scores
	// exactly PreambleLen*missPenalty+3 (every preamble slot misses,
	// both silence slots and the delimiter land their bonus). When that
	// is below minScore — always, for any useful preamble length — such
	// positions can neither be returned (their score cannot pass the
	// gate) nor tie-preempt a returned best (ties need equal score at or
	// above the gate), so the scan may skip them wholesale. eOccupied
	// only ever examines edges with Pos >= probe-tol-16 and
	// First <= probe+tol, so "no edge Pos inside the window padded by
	// the worst probe tolerance and the widest Pos-First extent" proves
	// every probe of the template false. This turns the scan from
	// O(window/period) into O(edge clusters) — the cost that matters on
	// the mostly-quiet slotted captures of DESIGN.md §17, where the
	// start window spans the whole response schedule.
	canSkip := cfg.PreambleLen*missPenalty+3 < minScore
	var winLo, winHi float64
	if canSkip {
		tolMax := float64(cfg.PosTol) + 2 + float64(cfg.PreambleLen)*period*cfg.DriftPPM/1e6
		maxExtent := 0.0
		for i := range edges {
			if ext := float64(edges[i].Pos - edges[i].First); ext > maxExtent {
				maxExtent = ext
			}
		}
		winLo = 2*period + tolMax + 16
		winHi = float64(cfg.PreambleLen)*period + tolMax + maxExtent
	}
	best, bestScore := offset, -1000
scan:
	for pos := earliest; pos <= float64(cfg.MaxStart); pos += period {
		if canSkip {
			i := sort.Search(len(edges), func(i int) bool {
				return float64(edges[i].Pos) >= pos-winLo
			})
			if i == len(edges) {
				break // no edges this far out: every remaining position is empty
			}
			if e := float64(edges[i].Pos); e > pos+winHi {
				// Jump to the first lattice position whose window
				// reaches the next edge; everything in between is
				// provably empty. The post statement adds one period.
				steps := math.Ceil((e - winHi - pos) / period)
				pos += (steps - 1) * period
				continue
			}
		}
		// Score the frame-head template: PreambleLen e-occupied slots,
		// silence in the two slots before (the tag had not powered
		// up), and the empty delimiter slot after.
		//
		// Branch and bound: after each preamble probe the position can
		// still gain at most 2 per preamble probe left plus 3 (the two
		// silence bonuses and the delimiter bonus), whichever penalty
		// regime is in force. Once that ceiling is at or below
		// max(bestScore, minScore-1) the position can neither pass the
		// strict improvement test below nor be returned (its score
		// would stay under the gate), which is the empty-stretch
		// argument above applied probe by probe; best, bestScore and the
		// result are those of the exhaustive scan.
		floor := max(bestScore, minScore-1)
		score := 0
		for k := 0; k < cfg.PreambleLen; k++ {
			if occ(pos+float64(k)*period, k) {
				score += 2
			} else {
				score += missPenalty
			}
			if score+2*(cfg.PreambleLen-1-k)+3 <= floor {
				continue scan
			}
		}
		for k := -2; k < 0; k++ {
			if occ(pos+float64(k)*period, k) {
				score -= 2
			} else {
				score++
			}
		}
		if !occ(pos+float64(cfg.PreambleLen)*period, cfg.PreambleLen) {
			score++ // delimiter slot
		}
		if score > bestScore {
			best, bestScore = pos, score
			if score == 2*cfg.PreambleLen+3 {
				break // a perfect head: no later position can beat it
			}
		}
	}
	if bestScore < minScore {
		return -1 // no convincing frame head anywhere in the window
	}
	return best
}

// collectMembers returns indices of unused edges within tol of the
// phase centre (mod period) and inside the folding window.
func collectMembers(edges []edgedetect.Edge, used []bool, period, centre, tol, windowPos float64) []int {
	var out []int
	for i := range edges {
		if used[i] || float64(edges[i].Pos) > windowPos {
			continue
		}
		phase := math.Mod(float64(edges[i].Pos), period)
		d := math.Abs(phase - centre)
		if d > period/2 {
			d = period - d
		}
		if d <= tol {
			out = append(out, i)
		}
	}
	return out
}

// analyzeMemberVectors decides whether the peak's member differentials
// come from one tag (two antipodal clusters ±e) or a merged pair (the
// eight non-origin lattice points), returning one or two rising-edge
// vectors.
func analyzeMemberVectors(edges []edgedetect.Edge, members []int, src *rng.Source) []complex128 {
	diffs := make([]complex128, len(members))
	for i, mi := range members {
		diffs[i] = edges[mi].Diff
	}
	// Single-tag hypothesis: k=2, antipodal centroids, most points
	// close to ±e.
	km2 := cluster.KMeans(diffs, 2, 4, 60, src)
	c1, c2 := km2.Centroids[0], km2.Centroids[1]
	e := (c1 - c2) / 2
	scale := dsp.Abs(e)
	if scale > 0 && dsp.Abs(c1+c2) < 0.5*scale {
		inliers := 0
		for _, d := range diffs {
			if dsp.Dist(d, e) <= 0.5*scale || dsp.Dist(d, -e) <= 0.5*scale {
				inliers++
			}
		}
		// A lone tag's members are essentially all within tolerance of
		// ±e; a merged pair leaves the solo and opposite-corner lattice
		// points outside, capping its inlier fraction near 60%.
		if float64(inliers) >= 0.85*float64(len(diffs)) {
			return []complex128{e}
		}
	}
	// Merged-pair hypothesis: cluster into the eight non-origin
	// lattice points and recover the two generators.
	k := 8
	if len(diffs) < 2*k {
		k = 4
	}
	km := cluster.KMeans(diffs, k, 6, 80, src)
	e1, e2, err := collide.RecoverAntipodal(km.Centroids, km.Counts())
	if err != nil {
		if scale > 0 {
			return []complex128{e} // degraded single-vector fallback
		}
		return nil
	}
	return []complex128{e1, e2}
}

// gridFit is a fitted slot grid.
type gridFit struct {
	offset, period float64
}

// fitGrid least-squares fits the member positions to a slot grid and
// extends the anchor backwards over the preamble (whose slots all carry
// an edge, possibly collided). Returns nil if the fit degenerates.
func fitGrid(edges []edgedetect.Edge, members []int, nominal float64, cfg Config) *gridFit {
	if len(members) < 4 {
		return nil
	}
	sort.Ints(members)
	base := float64(edges[members[0]].Pos)
	var ks, ps []float64
	for _, mi := range members {
		k := math.Round((float64(edges[mi].Pos) - base) / nominal)
		ks = append(ks, k)
		ps = append(ps, float64(edges[mi].Pos))
	}
	offset, period := fitLineF(ks, ps)
	if period <= 0 || math.Abs(period-nominal) > nominal*0.002+float64(cfg.PosTol) {
		return nil
	}
	return &gridFit{offset: offset, period: period}
}

// findAnyEdgeIncludingUsed is findAnyEdge without the used filter —
// consumed or collided edges still witness grid occupancy.
func findAnyEdgeIncludingUsed(edges []edgedetect.Edge, expect, tol float64) int {
	lo := sort.Search(len(edges), func(i int) bool {
		return float64(edges[i].Pos) >= expect-tol
	})
	if lo < len(edges) && float64(edges[lo].Pos) <= expect+tol {
		return lo
	}
	return -1
}

// fitLineF least-squares fits ps ≈ offset + k·period over float ks.
func fitLineF(ks, ps []float64) (offset, period float64) {
	n := float64(len(ks))
	var sx, sy, sxx, sxy float64
	for i := range ks {
		sx += ks[i]
		sy += ps[i]
		sxx += ks[i] * ks[i]
		sxy += ks[i] * ps[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return ps[0], 0
	}
	period = (n*sxy - sx*sy) / den
	offset = (sy - period*sx) / n
	return offset, period
}
