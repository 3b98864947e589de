package viterbi

import (
	"fmt"
	"testing"

	"lf/internal/rng"
)

// TestWindowedMatchesBatchWithinWindow pins the exactness contract: any
// sequence no longer than the window must decode bit-identically to the
// full recursion, for clean and noisy emissions alike.
func TestWindowedMatchesBatchWithinWindow(t *testing.T) {
	src := rng.New(3)
	sigma2 := (8e-5) * (8e-5)
	for trial := 0; trial < 25; trial++ {
		n := 1 + int(uint64(src.Intn(200)))
		bits := src.Bits(n)
		emissions := emit(bits, sigma2, src)
		d := NewDecoder(0.5, Down)
		want := d.Decode(emissions)
		got, _ := d.DecodeWindowedMargin(emissions, 256)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: state %d = %v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestWindowedMatchesBatchBeyondWindow exercises sequences far longer
// than the window. Survivor paths under real observations merge within
// a handful of slots, so even with forced-truncation armed the windowed
// decode should equal the batch decode.
func TestWindowedMatchesBatchBeyondWindow(t *testing.T) {
	src := rng.New(9)
	sigma2 := (8e-5) * (8e-5)
	for _, w := range []int{16, 64, 256} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			bits := src.Bits(w * 10)
			emissions := emit(bits, sigma2, src)
			d := NewDecoder(0.5, Down)
			want := d.Decode(emissions)
			got, _ := d.DecodeWindowedMargin(emissions, w)
			if len(got) != len(want) {
				t.Fatalf("length %d want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("state %d = %v want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestWindowedAlwaysValid: whatever the noise, forced truncation
// included, the committed sequence must satisfy the edge-alternation
// constraint end to end (seams between commits cannot emit ↑↑ or ↓↓).
func TestWindowedAlwaysValid(t *testing.T) {
	src := rng.New(21)
	for trial := 0; trial < 30; trial++ {
		n := 8 + int(uint64(src.Intn(500)))
		emissions := make([]Emission, n)
		for i := range emissions {
			emissions[i] = Emission{Obs: src.ComplexNorm(1e-7), E: testE, Sigma2: 1e-8}
		}
		states, _ := NewDecoder(0.5, Down).DecodeWindowedMargin(emissions, 16)
		if len(states) != n {
			t.Fatalf("trial %d: committed %d of %d states", trial, len(states), n)
		}
		if !Valid(states, Down) {
			t.Fatalf("trial %d: windowed decode emitted invalid sequence", trial)
		}
	}
}

// TestWindowedIncrementalCommit checks the streaming property the frame
// pipeline relies on: states become available via Committed() as slots
// are pushed, without waiting for Flush, and Flush only appends.
func TestWindowedIncrementalCommit(t *testing.T) {
	src := rng.New(5)
	bits := src.Bits(300)
	emissions := emit(bits, (5e-5)*(5e-5), src)
	v := NewWindowed(NewDecoder(0.5, Down), 32)
	prev := 0
	for i, e := range emissions {
		v.Push(e)
		if got := len(v.Committed()); got < prev {
			t.Fatalf("commit count went backwards at slot %d: %d -> %d", i, prev, got)
		} else {
			prev = got
		}
	}
	if prev == 0 {
		t.Fatal("no states committed before Flush on a 300-slot sequence with window 32")
	}
	states := v.Flush()
	if len(states) != len(emissions) {
		t.Fatalf("flush committed %d states want %d", len(states), len(emissions))
	}
	want := NewDecoder(0.5, Down).Decode(emissions)
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state %d = %v want %v", i, states[i], want[i])
		}
	}
}

// TestWindowedReset pins that Reset clears cross-sequence state: the
// same input decodes identically through a reused engine.
func TestWindowedReset(t *testing.T) {
	src := rng.New(17)
	bits := src.Bits(120)
	emissions := emit(bits, (5e-5)*(5e-5), src)
	v := NewWindowed(NewDecoder(0.5, Down), 32)
	run := func() []State {
		v.Reset()
		for _, e := range emissions {
			v.Push(e)
		}
		out := v.Flush()
		cp := make([]State, len(out))
		copy(cp, out)
		return cp
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("reused engine diverged at state %d", i)
		}
	}
}

func BenchmarkWindowedDecode(b *testing.B) {
	src := rng.New(1)
	bits := src.Bits(1 << 12)
	emissions := emit(bits, (5e-5)*(5e-5), src)
	v := NewWindowed(NewDecoder(0.5, Down), DefaultWindow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Reset()
		for _, e := range emissions {
			v.Push(e)
		}
		v.Flush()
	}
}
