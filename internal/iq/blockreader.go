package iq

// BlockReader streams a serialized capture (the LFIQ container written
// by Capture.WriteTo) without materializing the sample array: the
// header is parsed up front, then Read hands out samples in
// caller-sized blocks. This is the file-replay front end for streaming
// decodes — a multi-second 25 Msps capture feeds a decoder in O(block)
// memory instead of O(capture).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"lf/internal/pool"
)

// BlockReader incrementally decodes the sample payload of an LFIQ
// container. Create one with NewBlockReader; call Read until io.EOF;
// call Close to recycle its internal buffer.
type BlockReader struct {
	br     *bufio.Reader
	rate   float64
	start  float64
	count  int64
	read   int64
	buf    []byte
	closed bool
}

// NewBlockReader parses the container header from r and positions the
// reader at the first sample. The underlying reader must not be used
// concurrently.
func NewBlockReader(r io.Reader) (*BlockReader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("iq: reading magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("iq: bad magic %q", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("iq: reading version: %w", err)
	}
	if version != fileVersion {
		return nil, fmt.Errorf("iq: unsupported capture version %d", version)
	}
	b := &BlockReader{br: br}
	if err := binary.Read(br, binary.LittleEndian, &b.rate); err != nil {
		return nil, fmt.Errorf("iq: reading sample rate: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &b.start); err != nil {
		return nil, fmt.Errorf("iq: reading start: %w", err)
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("iq: reading count: %w", err)
	}
	if count == 0 || count > maxReasonableSamples {
		return nil, fmt.Errorf("iq: implausible sample count %d", count)
	}
	b.count = int64(count)
	b.buf = pool.Bytes(16 * ioChunkSamples)
	return b, nil
}

// SampleRate returns the capture's ADC rate in samples per second.
func (b *BlockReader) SampleRate() float64 { return b.rate }

// Start returns the capture's start time in seconds.
func (b *BlockReader) Start() float64 { return b.start }

// Len returns the total number of samples in the container.
func (b *BlockReader) Len() int64 { return b.count }

// Remaining returns the number of samples not yet read.
func (b *BlockReader) Remaining() int64 { return b.count - b.read }

// Read fills dst with the next samples, io.Reader style: it returns
// the number of samples decoded and io.EOF once the payload is
// exhausted (never both a positive count and io.EOF). A truncated or
// short payload surfaces as io.ErrUnexpectedEOF.
func (b *BlockReader) Read(dst []complex128) (int, error) {
	if b.read >= b.count {
		return 0, io.EOF
	}
	if rem := b.count - b.read; int64(len(dst)) > rem {
		dst = dst[:rem]
	}
	done := 0
	for done < len(dst) {
		n := len(dst) - done
		if n > ioChunkSamples {
			n = ioChunkSamples
		}
		raw := b.buf[:16*n]
		if _, err := io.ReadFull(b.br, raw); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return done, fmt.Errorf("iq: reading samples %d..%d: %w", b.read, b.read+int64(n), err)
		}
		// One bounds check per sample: w is exactly 16 bytes, so both
		// 8-byte loads from it are provably in range.
		out := dst[done : done+n]
		for i := range out {
			w := raw[16*i : 16*i+16]
			re := math.Float64frombits(binary.LittleEndian.Uint64(w))
			im := math.Float64frombits(binary.LittleEndian.Uint64(w[8:]))
			out[i] = complex(re, im)
		}
		done += n
		b.read += int64(n)
	}
	return done, nil
}

// ReadBlock decodes up to n samples into a pooled buffer and hands it
// to the caller, ownership included: the buffer comes from the shared
// sample pool, so feeding it to StreamDecoder.PushOwned moves samples
// from file to decoder with no further copies (the decoder recycles
// the buffer once it has consumed it). Returns
// (nil, io.EOF) once the payload is exhausted; any other error follows
// Read's contract, with the samples decoded before the error delivered
// alongside it. Callers that keep a non-empty buffer must recycle it
// with pool.PutComplex themselves.
func (b *BlockReader) ReadBlock(n int) ([]complex128, error) {
	if b.read >= b.count {
		return nil, io.EOF
	}
	if rem := b.count - b.read; int64(n) > rem {
		n = int(rem)
	}
	dst := pool.ComplexUninit(n)
	got, err := b.Read(dst)
	if got == 0 {
		// Only an untouched buffer may go back: a short final read's
		// buffer belongs to the caller, and recycling a buffer the
		// caller is about to push would let the pool hand the same
		// backing array to another ComplexUninit and scribble over live
		// samples.
		pool.PutComplex(dst)
		return nil, err
	}
	return dst[:got], err
}

// Close recycles the reader's internal buffer. The reader must not be
// used afterwards.
func (b *BlockReader) Close() error {
	if !b.closed {
		pool.PutBytes(b.buf)
		b.buf = nil
		b.closed = true
	}
	return nil
}
