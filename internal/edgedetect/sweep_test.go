package edgedetect

import "testing"

func TestSweepReach(t *testing.T) {
	// Gap=2, Win=3 (the default detector): margin 5, centroid span 4.
	if got := SweepReach(2, 3); got != 9 {
		t.Fatalf("SweepReach(2,3) = %d, want 9", got)
	}
}
