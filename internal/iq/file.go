package iq

// Capture serialization: a small binary container so captures can be
// recorded once (from the simulator here, or from an SDR front end in
// a deployment) and replayed through the decoder offline. The format
// is deliberately dumb and stable:
//
//	magic   "LFIQ" (4 bytes)
//	version uint32 (little endian)
//	rate    float64 bits (little endian)
//	start   float64 bits (little endian)
//	count   uint64
//	samples count × (real float64, imag float64), little endian
//
// Everything after the header streams sequentially, so arbitrarily
// long captures read and write in O(1) memory per sample. The sample
// payload is byte for byte the memory of a []complex128 on a
// little-endian host, so there WriteTo writes the sample slice's own
// memory and BlockReader.Read reads the payload straight into the
// caller's slice; big-endian hosts take a portable per-sample loop
// through a pooled staging block (samples.go).

import (
	"bufio"
	"encoding/binary"
	"io"

	"lf/internal/pool"
)

// fileMagic identifies a capture container.
var fileMagic = [4]byte{'L', 'F', 'I', 'Q'}

// fileVersion is the current container version.
const fileVersion = 1

// maxReasonableSamples guards against corrupt headers allocating
// absurd buffers (16 GiB of samples ≈ 11 minutes at 25 Msps).
const maxReasonableSamples = 1 << 30

// maxUpfrontSamples bounds what ReadCapture allocates before any
// payload arrives (16 MiB of samples). The header's count is untrusted
// until the samples behind it are read, so a longer capture's array
// grows by doubling as the payload keeps up.
const maxUpfrontSamples = 1 << 20

// ioChunkSamples is the number of samples the portable path marshals
// per pooled IO block (64 KiB of wire bytes).
const ioChunkSamples = 4096

// WriteTo serializes the capture. It returns the number of bytes
// written.
func (c *Capture) WriteTo(w io.Writer) (int64, error) {
	// Structural check only: non-finite samples are recordable on
	// purpose, so faulted captures replay through the same graceful
	// degradation as a live decode (see Capture.ValidateStructure).
	if err := c.ValidateStructure(); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(fileMagic); err != nil {
		return n, err
	}
	if err := write(uint32(fileVersion)); err != nil {
		return n, err
	}
	if err := write(c.SampleRate); err != nil {
		return n, err
	}
	if err := write(c.Start); err != nil {
		return n, err
	}
	if err := write(uint64(len(c.Samples))); err != nil {
		return n, err
	}
	if v := sampleView(c.Samples); v != nil {
		wrote, err := bw.Write(v)
		n += int64(wrote)
		if err != nil {
			return n, err
		}
		return n, bw.Flush()
	}
	// Portable path: marshal pooled fixed-size blocks, write each,
	// recycle the buffer.
	buf := pool.Bytes(SampleSize * ioChunkSamples)
	defer pool.PutBytes(buf)
	for lo := 0; lo < len(c.Samples); lo += ioChunkSamples {
		hi := min(lo+ioChunkSamples, len(c.Samples))
		b := buf[:SampleSize*(hi-lo)]
		putSamplesPortable(b, c.Samples[lo:hi])
		wrote, err := bw.Write(b)
		n += int64(wrote)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadCapture deserializes a capture written by WriteTo, materializing
// the whole sample array. For bounded-memory replay of long captures,
// use BlockReader directly and feed the blocks to a streaming decoder.
func ReadCapture(r io.Reader) (*Capture, error) {
	br, err := NewBlockReader(r)
	if err != nil {
		return nil, err
	}
	defer br.Close()
	c := &Capture{
		SampleRate: br.SampleRate(),
		Start:      br.Start(),
		Samples:    make([]complex128, min(br.Len(), maxUpfrontSamples)),
	}
	for got := 0; ; {
		n, err := br.Read(c.Samples[got:])
		got += n
		if err != nil {
			return nil, err
		}
		if int64(got) == br.Len() {
			break
		}
		c.Samples = append(c.Samples, make([]complex128, min(br.Len()-int64(got), int64(got)))...)
	}
	if err := c.ValidateStructure(); err != nil {
		return nil, err
	}
	return c, nil
}
