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
	buf    []byte // portable-path staging block, taken on first use
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
// short payload surfaces as an error wrapping io.ErrUnexpectedEOF; on
// any error dst[:n] holds every whole sample received before it.
func (b *BlockReader) Read(dst []complex128) (int, error) {
	if b.read >= b.count {
		return 0, io.EOF
	}
	if rem := b.count - b.read; int64(len(dst)) > rem {
		dst = dst[:rem]
	}
	from := b.read
	n, err := b.readSamples(dst)
	b.read += int64(n)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return n, fmt.Errorf("iq: reading samples %d..%d: %w", from, from+int64(len(dst)), err)
	}
	return n, nil
}

// readSamples decodes the next len(dst) samples of the payload and
// returns how many whole samples arrived, with the read error if the
// payload fell short.
func (b *BlockReader) readSamples(dst []complex128) (int, error) {
	if v := sampleView(dst); v != nil {
		// The payload is dst's memory layout: read it in place.
		got, err := io.ReadFull(b.br, v)
		return got / SampleSize, err
	}
	if b.buf == nil {
		b.buf = pool.Bytes(SampleSize * ioChunkSamples)
	}
	done := 0
	for done < len(dst) {
		raw := b.buf[:SampleSize*min(len(dst)-done, ioChunkSamples)]
		got, err := io.ReadFull(b.br, raw)
		getSamplesPortable(dst[done:done+got/SampleSize], raw)
		done += got / SampleSize
		if err != nil {
			return done, err
		}
	}
	return done, nil
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
