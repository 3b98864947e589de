package edgedetect

import "lf/internal/dsp"

// SweepMargin is the half-width of the differential window at one
// magnitude position: the sweep at p averages samples over
// [p-gap-win, p+gap+win], so prefix sums must cover that span.
func SweepMargin(gap, win int64) int64 { return gap + win }

// SweepReach is the farthest sample distance at which a change to the
// input can alter edge detection at a position: the differential
// window margin, plus the gap+2 neighbourhood that peak centroiding
// reads around each peak. Beyond it every magnitude the detector
// consults is computed from byte-identical input, which is what the
// SIC dirty-span closure widens its spans by (DESIGN.md §17).
func SweepReach(gap, win int64) int64 { return SweepMargin(gap, win) + gap + 2 }

// StripeJob is one self-contained range of the differential sweep:
// everything needed to compute the magnitudes of positions [Lo, Hi)
// into Dst. The decoder sweeps inline and never builds one; it is the
// unit internal/dist ships over the wire, and Run is the in-process
// reference a remote result must match bit for bit. The prefix sums
// are from-origin absolute values, so any subslice covering
// [IntLo−SweepMargin, IntHi+SweepMargin] ∩ the kernel's read window
// reproduces the same differences bit-exactly.
type StripeJob struct {
	// Lo, Hi bound the owned magnitude positions; Dst has Hi−Lo
	// entries, Dst[i] holding position Lo+i.
	Lo, Hi int64
	// IntLo, IntHi bound the sweep interior; owned positions outside it
	// are blanked to zero (capture-edge margins).
	IntLo, IntHi int64
	// Re, Im are the split prefix sums the kernel reads; Base is the
	// absolute sample position of Re[0]/Im[0].
	Re, Im []float64
	Base   int64
	// Detector geometry.
	Gap, Win int64
	// Dst is the job-owned output buffer.
	Dst []float64
}

// Run computes the job in-process.
func (j *StripeJob) Run() {
	sweepRange(j.Dst, j.Re, j.Im, j.Base, j.Lo, j.Hi, j.IntLo, j.IntHi, j.Gap, j.Win, false, 0)
}

// screenBlank marks a blanked position in a screened magnitude range:
// any negative value reads as exact 0 (Stream.exactAt and
// dsp.ScreenWindow), and stays below every screen limit.
const screenBlank = -1

// sweepRange computes the differential magnitudes of positions
// [lo, hi) into dst (dst[i] holds position lo+i), reading prefix sums
// re/im whose index 0 is absolute position base. Positions outside the
// interior [intLo, intHi) are blanked, as clamped half-windows there
// would read as phantom edges. With screen set, interior positions get
// dsp.DiffSweepScreen values for eMax instead of exact ones, and blanked
// positions screenBlank instead of 0; the screen's largest E is
// returned (0 for an exact sweep).
func sweepRange(dst, re, im []float64, base, lo, hi, intLo, intHi, g, w int64, screen bool, eMax float64) (eSeen float64) {
	blank := 0.0
	if screen {
		blank = screenBlank
	}
	ilo := max(lo, intLo)
	ihi := min(hi, intHi)
	for p := lo; p < min(ilo, hi); p++ {
		dst[p-lo] = blank
	}
	if ilo < ihi {
		if screen {
			eSeen = dsp.DiffSweepScreen(re, im, int(ilo-base), g, w, eMax, dst[ilo-lo:ihi-lo])
		} else {
			dsp.DiffSweep(re, im, int(ilo-base), g, w, dst[ilo-lo:ihi-lo])
		}
	}
	for p := max(ihi, lo); p < hi; p++ {
		dst[p-lo] = blank
	}
	return eSeen
}
