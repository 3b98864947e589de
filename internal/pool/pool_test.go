package pool

import "testing"

func TestComplexZeroedAndRecycled(t *testing.T) {
	buf := Complex(2048)
	if len(buf) != 2048 {
		t.Fatalf("len = %d", len(buf))
	}
	for i := range buf {
		buf[i] = complex(1, 1)
	}
	PutComplex(buf)
	again := Complex(1024)
	for i, v := range again {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
}

func TestFloatGrowsWhenPooledTooSmall(t *testing.T) {
	PutFloat(make([]float64, 2048))
	buf := Float(1 << 16)
	if len(buf) != 1<<16 {
		t.Fatalf("len = %d", len(buf))
	}
	for _, v := range buf[:100] {
		if v != 0 {
			t.Fatal("not zeroed")
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	b := Bytes(4096)
	if len(b) != 4096 {
		t.Fatalf("len = %d", len(b))
	}
	b[0] = 0xff
	PutBytes(b)
	c := Bytes(4096)
	if c[0] != 0 {
		t.Fatal("recycled bytes not zeroed")
	}
}

func TestTinyBuffersNotRetained(t *testing.T) {
	// Must not panic or misbehave; small buffers are simply dropped.
	PutFloat(make([]float64, 8))
	PutComplex(nil)
	PutBytes(make([]byte, 16))
}

func TestBytesUninitLengthAndGrowth(t *testing.T) {
	PutBytes(make([]byte, 2048))
	if b := BytesUninit(100); len(b) != 100 {
		t.Fatalf("len = %d", len(b))
	}
	PutBytes(make([]byte, 2048))
	if b := BytesUninit(1 << 16); len(b) != 1<<16 {
		t.Fatalf("len = %d after a too-small pooled buffer", len(b))
	}
}
