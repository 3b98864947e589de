package viterbi

import "lf/internal/obs"

// Metrics instruments the windowed recursion. Commit counters are
// recorded once per window commit — a function of the emission
// sequence alone — so totals stay deterministic even when per-stream
// decoders run on a worker pool (atomic addition commutes). The zero
// value records nothing.
type Metrics struct {
	// Slots counts trellis steps pushed.
	Slots *obs.Counter
	// MergeCommits counts commits where every live survivor chain
	// agreed (exact); ForcedCommits counts truncations at window depth.
	MergeCommits, ForcedCommits *obs.Counter
}

// Windowed is an online Viterbi decoder over the same 4-state edge
// trellis as Decoder, holding survivor-path state for at most a fixed
// window of trellis steps. Emissions are pushed one slot at a time;
// decoded states commit as soon as every live survivor path agrees on
// them (path merging), and are force-committed at truncation depth
// when the paths refuse to merge, so per-stream memory is O(window)
// instead of O(sequence length).
//
// Merge commits are exact: once all survivor chains pass through one
// state, every future backtrack shares that prefix, so the committed
// states equal what the full unwindowed recursion would emit. Forced
// commits (no merge within a whole window — in this trellis that
// requires a pathological run of equally-likely hold polarities) take
// the current best chain and may in principle differ from the full
// backtrack; sequences shorter than the window never force-commit and
// are bit-identical to Decoder.Decode by construction.
type Windowed struct {
	d    *Decoder
	w    int
	back [][numStates]int8 // ring: back[t mod w] for uncommitted steps t
	sc   [numStates]float64
	n    int // emissions pushed
	base int // states [0, base) are committed
	out  []State
	m    Metrics
}

// DefaultWindow is the trellis window used when a caller passes 0: deep
// enough that survivor paths in any realistic capture merge well before
// forced truncation, small enough to bound per-stream state.
const DefaultWindow = 256

// NewWindowed wraps a decoder's trellis in an online window. window <= 0
// selects DefaultWindow; tiny values are clamped to 8.
func NewWindowed(d *Decoder, window int) *Windowed {
	if window <= 0 {
		window = DefaultWindow
	}
	if window < 8 {
		window = 8
	}
	return &Windowed{d: d, w: window, back: make([][numStates]int8, window)}
}

// Reset rewinds the decoder for a fresh sequence, keeping the ring.
func (v *Windowed) Reset() {
	v.n, v.base = 0, 0
	v.out = v.out[:0]
}

// Push advances the trellis by one slot.
func (v *Windowed) Push(e Emission) {
	if v.n == 0 {
		for s := 0; s < numStates; s++ {
			v.sc[s] = v.d.logInit[s] + e.logLik(State(s))
		}
		v.n = 1
		return
	}
	if v.n-v.base >= v.w {
		v.commit(false)
	}
	var next [numStates]float64
	var bp [numStates]int8
	for to := 0; to < numStates; to++ {
		best := neginf
		bestFrom := 0
		for from := 0; from < numStates; from++ {
			if sc := v.sc[from] + v.d.logTrans[from][to]; sc > best {
				best, bestFrom = sc, from
			}
		}
		next[to] = best + e.logLik(State(to))
		bp[to] = int8(bestFrom)
	}
	v.sc = next
	v.back[v.n%v.w] = bp
	v.n++
}

// Committed returns the states committed so far. The slice is appended
// to in place by Push/Flush; callers must not retain it across calls.
func (v *Windowed) Committed() []State { return v.out }

// Flush commits every remaining state and returns the full decoded
// sequence.
func (v *Windowed) Flush() []State {
	if v.n > 0 && v.base < v.n {
		v.commit(true)
	}
	return v.out
}

// commit backtracks the live survivor chains over the uncommitted span
// [base, n). It first walks all live chains down in lockstep looking
// for the highest step where they coincide — everything at or below a
// merge point is final under any continuation — and commits through it.
// When no merge exists, a forced commit (all=false) truncates the
// oldest half window from the best current chain; a final commit
// (all=true) takes the best chain whole.
func (v *Windowed) commit(all bool) {
	hi := v.n - 1 // newest uncommitted state index
	// Live end states and their chain cursors.
	var ends, cur [numStates]int
	live := 0
	bestEnd, bestScore := 0, neginf
	for s := 0; s < numStates; s++ {
		if v.sc[s] > bestScore {
			bestScore, bestEnd = v.sc[s], s
		}
		if v.sc[s] > neginf {
			ends[live] = s
			live++
		}
	}
	if live == 0 {
		ends[0], live = bestEnd, 1
	}
	cur = ends
	merged := -1 // highest step where all live chains share a state
	allEqual := func() bool {
		for i := 1; i < live; i++ {
			if cur[i] != cur[0] {
				return false
			}
		}
		return true
	}
	if allEqual() {
		merged = hi
	}
	for t := hi; t > v.base && merged < 0; t-- {
		bp := &v.back[t%v.w]
		for i := 0; i < live; i++ {
			cur[i] = int(bp[cur[i]])
		}
		if allEqual() {
			merged = t - 1
		}
	}
	switch {
	case all:
		v.emit(hi, bestEnd)
	case merged >= 0:
		v.m.MergeCommits.Inc()
		v.emit(merged, cur[0])
	default:
		v.m.ForcedCommits.Inc()
		// Forced truncation: no merge within a full window. Commit the
		// oldest half along the current best chain, then pin future
		// paths to the seam: any end whose survivor chain does not pass
		// through the committed seam state is killed, so the sequence
		// stays transition-valid across the forced boundary.
		end := v.base + v.w/2 - 1
		cur = ends
		bestIdx := 0
		for i := 0; i < live; i++ {
			if ends[i] == bestEnd {
				bestIdx = i
			}
		}
		for t := hi; t > end; t-- {
			bp := &v.back[t%v.w]
			for i := 0; i < live; i++ {
				cur[i] = int(bp[cur[i]])
			}
		}
		seam := cur[bestIdx]
		for i := 0; i < live; i++ {
			if cur[i] != seam {
				v.sc[ends[i]] = neginf
			}
		}
		v.emit(end, seam)
	}
}

// emit backtracks the chain ending in endState at step end, appends the
// states [base, end] to the output, and advances base past them.
func (v *Windowed) emit(end, endState int) {
	if end < v.base {
		return
	}
	span := end - v.base + 1
	start := len(v.out)
	v.out = append(v.out, make([]State, span)...)
	st := endState
	v.out[start+span-1] = State(st)
	for t := end; t > v.base; t-- {
		st = int(v.back[t%v.w][st])
		v.out[start+t-1-v.base] = State(st)
	}
	v.base = end + 1
}

// Margin returns the survivor-score gap between the best and runner-up
// end states after the last Push — a log-likelihood proxy for how
// decisively the trellis preferred the decoded sequence over its
// nearest competitor. +Inf when only one survivor path remains live.
// Valid after Flush (the final commit never rewrites the end scores).
func (v *Windowed) Margin() float64 {
	if v.n == 0 {
		return 0
	}
	best, second := neginf, neginf
	for s := 0; s < numStates; s++ {
		switch sc := v.sc[s]; {
		case sc > best:
			second, best = best, sc
		case sc > second:
			second = sc
		}
	}
	return best - second
}

// DecodeWindowedMargin runs the windowed recursion over a whole
// emission sequence and returns the states with the final path margin
// (see Windowed.Margin), for per-frame confidence scoring. With window
// >= len(emissions) (or any sequence whose survivor paths merge within
// the window) the states are identical to Decode's; either way memory
// is O(window).
func (d *Decoder) DecodeWindowedMargin(emissions []Emission, window int) ([]State, float64) {
	return d.DecodeWindowedMarginObs(emissions, window, Metrics{})
}

// DecodeWindowedMarginObs is DecodeWindowedMargin with pipeline
// instrumentation (slot and window-commit counters).
func (d *Decoder) DecodeWindowedMarginObs(emissions []Emission, window int, m Metrics) ([]State, float64) {
	if len(emissions) == 0 {
		return nil, 0
	}
	v := NewWindowed(d, window)
	v.m = m
	m.Slots.Add(int64(len(emissions)))
	for _, e := range emissions {
		v.Push(e)
	}
	states := v.Flush()
	return states, v.Margin()
}
