package iq

// Sample payload codec. An LFIQ payload — and a reader-gateway chunk —
// is a run of (real, imag) float64 pairs in little-endian byte order.
// On a little-endian host that is exactly the memory layout of a
// []complex128, so there the codec is one memory copy, or none at all
// when the bytes can be read straight into the sample slice
// (BlockReader.Read). Other hosts take the portable per-sample path.
// Both paths move IEEE-754 bit patterns untouched: NaN payloads,
// signed zeros and subnormals survive exactly.

import (
	"encoding/binary"
	"math"
	"slices"
	"unsafe"
)

// SampleSize is the encoded size of one sample.
const SampleSize = 16

// hostLittleEndian reports whether the host stores a float64 in
// little-endian byte order, i.e. whether sampleView may be used.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// sampleView returns the memory of s as its encoded bytes, aliasing s,
// or nil when the host is big-endian and the bytes would not be the
// encoding.
func sampleView(s []complex128) []byte {
	if !hostLittleEndian {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), SampleSize*len(s))
}

// AppendSamples appends the encoding of src to dst and returns the
// extended slice.
func AppendSamples(dst []byte, src []complex128) []byte {
	if v := sampleView(src); v != nil {
		return append(dst, v...)
	}
	n := len(dst)
	dst = slices.Grow(dst, SampleSize*len(src))[:n+SampleSize*len(src)]
	putSamplesPortable(dst[n:], src)
	return dst
}

// GetSamples decodes len(dst) samples from the first
// SampleSize*len(dst) bytes of src, which must be at least that long.
func GetSamples(dst []complex128, src []byte) {
	if v := sampleView(dst); v != nil {
		copy(v, src[:len(v)])
		return
	}
	getSamplesPortable(dst, src)
}

// putSamplesPortable encodes src into the first SampleSize*len(src)
// bytes of dst on any host.
func putSamplesPortable(dst []byte, src []complex128) {
	dst = dst[:SampleSize*len(src)]
	for i, s := range src {
		// One bounds check per sample: w is exactly 16 bytes, so both
		// 8-byte stores into it are provably in range.
		w := dst[SampleSize*i : SampleSize*i+SampleSize]
		binary.LittleEndian.PutUint64(w, math.Float64bits(real(s)))
		binary.LittleEndian.PutUint64(w[8:], math.Float64bits(imag(s)))
	}
}

// getSamplesPortable is GetSamples on any host.
func getSamplesPortable(dst []complex128, src []byte) {
	src = src[:SampleSize*len(dst)]
	for i := range dst {
		w := src[SampleSize*i : SampleSize*i+SampleSize]
		re := math.Float64frombits(binary.LittleEndian.Uint64(w))
		im := math.Float64frombits(binary.LittleEndian.Uint64(w[8:]))
		dst[i] = complex(re, im)
	}
}
