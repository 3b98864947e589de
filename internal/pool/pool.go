// Package pool recycles the large per-epoch scratch buffers the reader
// pipeline burns through: differential-magnitude series, synthesis
// difference arrays, SIC residuals and reconstruction waveforms, and
// capture-container IO blocks. At 25 Msps a single epoch allocates
// several multi-hundred-KiB slices per decode; recycling them through
// sync.Pool keeps the allocator and GC out of the hot path when
// epochs stream through continuously.
//
// Buffers returned by the getters are zeroed over their requested
// length, so callers can rely on clean scratch exactly as if freshly
// allocated. Putting a buffer back is always optional — dropping one
// on an error path merely costs a future allocation.
package pool

import "sync"

// minRetain is the smallest capacity worth recycling. Anything under a
// few KiB is cheaper to allocate fresh than to rendezvous through the
// pool (and pooling tiny slices would pin them as the canonical entry,
// forcing reallocation for every real epoch-sized request).
const minRetain = 1 << 10

var (
	complexPool sync.Pool // *[]complex128
	floatPool   sync.Pool // *[]float64
	bytePool    sync.Pool // *[]byte
)

// Complex returns a zeroed []complex128 of length n.
func Complex(n int) []complex128 {
	if v := complexPool.Get(); v != nil {
		buf := *v.(*[]complex128)
		if cap(buf) >= n {
			buf = buf[:n]
			clear(buf)
			return buf
		}
	}
	return make([]complex128, n)
}

// ComplexUninit returns a []complex128 of length n with unspecified
// contents — for callers that provably overwrite (or never read) every
// element, e.g. a copy destination. Skipping the clear matters: at
// epoch scale the memclr of a multi-MiB recycled buffer is pure memory
// bandwidth spent on values the caller immediately replaces.
func ComplexUninit(n int) []complex128 {
	if v := complexPool.Get(); v != nil {
		buf := *v.(*[]complex128)
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]complex128, n)
}

// PutComplex recycles a buffer obtained from Complex (or anywhere
// else). The caller must not use buf after the call.
func PutComplex(buf []complex128) {
	if cap(buf) >= minRetain {
		complexPool.Put(&buf)
	}
}

// Float returns a zeroed []float64 of length n.
func Float(n int) []float64 {
	if v := floatPool.Get(); v != nil {
		buf := *v.(*[]float64)
		if cap(buf) >= n {
			buf = buf[:n]
			clear(buf)
			return buf
		}
	}
	return make([]float64, n)
}

// FloatUninit is Float without the clear, for callers that provably
// write every element before reading it — e.g. the edge detector's
// prefix-sum lanes.
func FloatUninit(n int) []float64 {
	if v := floatPool.Get(); v != nil {
		buf := *v.(*[]float64)
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

// PutFloat recycles a buffer obtained from Float.
func PutFloat(buf []float64) {
	if cap(buf) >= minRetain {
		floatPool.Put(&buf)
	}
}

// Bytes returns a zeroed []byte of length n (capture-container IO
// blocks, reader-gateway frame bodies).
func Bytes(n int) []byte {
	if v := bytePool.Get(); v != nil {
		buf := *v.(*[]byte)
		if cap(buf) >= n {
			buf = buf[:n]
			clear(buf)
			return buf
		}
	}
	return make([]byte, n)
}

// BytesUninit is Bytes without the clear, for callers that overwrite
// every byte before reading it — e.g. a frame body read straight off a
// connection.
func BytesUninit(n int) []byte {
	if v := bytePool.Get(); v != nil {
		buf := *v.(*[]byte)
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]byte, n)
}

// PutBytes recycles a buffer obtained from Bytes or BytesUninit.
func PutBytes(buf []byte) {
	if cap(buf) >= minRetain {
		bytePool.Put(&buf)
	}
}
