package edgedetect

import (
	"reflect"
	"testing"

	"lf/internal/tag"
	"lf/internal/work"
)

// TestChunkSeamEdgeDetectedOnce plants edges exactly on the chunk
// boundaries the parallel sweep splits the capture at, and checks the
// seam handling: each edge is detected exactly once (not dropped at a
// seam, not double-counted by adjacent chunks), and the parallel edge
// list is bit-identical to the serial one.
func TestChunkSeamEdgeDetectedOnce(t *testing.T) {
	const (
		sampleRate = 25e6
		workers    = 4
	)
	// Size the capture to exactly `workers` minimum-size chunks so every
	// interior boundary is a real seam at any MinChunk setting.
	n := workers * work.MinChunk
	duration := float64(n) / sampleRate
	bounds := work.Bounds(workers, n)
	if len(bounds) != workers+1 {
		t.Fatalf("Bounds(%d, %d) = %v, want %d chunks", workers, n, bounds, workers)
	}
	// One toggle per interior seam.
	var toggles []tag.Toggle
	state := byte(1)
	for _, seam := range bounds[1 : len(bounds)-1] {
		toggles = append(toggles, tag.Toggle{Time: float64(seam) / sampleRate, State: state})
		state = 1 - state
	}
	h := complex(8e-4, -3e-4)
	cap := capture(t, h, 0, toggles, duration)

	scfg := DefaultConfig()
	scfg.Parallelism = 1
	serialDet := detect(t, cap, scfg)
	serial := serialDet.Edges()

	pcfg := DefaultConfig()
	pcfg.Parallelism = workers
	parallelDet := detect(t, cap, pcfg)
	parallel := parallelDet.Edges()

	if len(parallel) != len(toggles) {
		t.Fatalf("parallel detected %d edges, want %d (one per seam): %+v", len(parallel), len(toggles), parallel)
	}
	for i, e := range parallel {
		want := int64(bounds[i+1])
		if d := e.Pos - want; d < -3 || d > 3 {
			t.Errorf("edge %d at sample %d, want ~%d (chunk seam)", i, e.Pos, want)
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel edge list diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if serialDet.NoiseFloor() != parallelDet.NoiseFloor() {
		t.Fatalf("noise floor diverged: serial %v, parallel %v", serialDet.NoiseFloor(), parallelDet.NoiseFloor())
	}
}
