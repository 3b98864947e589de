package experiment

import (
	"fmt"
	"reflect"

	"lf"
	"lf/internal/stats"
)

// streamCalibSamples bounds noise calibration so the streaming decoder
// commits mid-capture (1.3 ms at 25 Msps — past the start-offset
// jitter window, well before the frames end).
const streamCalibSamples = 32768

// streamBlock is the replay block size, sized like an SDR DMA buffer.
const streamBlock = 8192

// streamConfig bounds calibration so the decoder commits mid-capture
// and turns SIC off: SIC retains a raw-capture copy by design (it
// subtracts reconstructions from the original samples), so the memory
// characterization runs the pure streaming configuration.
func streamConfig(d *lf.DecoderConfig) {
	d.CalibSamples = streamCalibSamples
	d.CancellationRounds = -1
}

// Streaming characterizes the bounded-memory streaming decode path
// against batch decode: how long before end of capture the first frame
// surfaces, how much sample-proportional memory the decoder retains at
// its peak versus buffering the capture, and whether the streamed
// result is bit-identical to the batch result (it must be).
func Streaming(cfg Config) (*Result, error) {
	ns := []int{1, 4, 8, 16}
	if cfg.Quick {
		ns = []int{1, 8}
	}
	table := &stats.Table{
		Title: fmt.Sprintf("Streaming decode — first-frame latency and retained memory (block %d, calib %d, SIC off)",
			streamBlock, streamCalibSamples),
		Header: []string{"tags", "capture ms", "first frame ms", "peak KiB", "capture KiB", "identical"},
	}
	series := []stats.Series{{Label: "first-frame ms"}, {Label: "peak KiB"}}
	for _, n := range ns {
		net, err := lf.NewNetwork(lf.NetworkConfig{
			NumTags:        n,
			PayloadSeconds: 2e-3,
			Seed:           cfg.Seed + int64(n)*17,
		})
		if err != nil {
			return nil, err
		}
		ep, batch, err := decodeEpoch(net, streamConfig)
		if err != nil {
			return nil, err
		}

		// Streaming pass: replay the capture in blocks, recording when
		// the first frame commits and the peak retained memory.
		var pushed, firstFrame int64 = 0, -1
		dcfg := net.DecoderConfig()
		streamConfig(&dcfg)
		dcfg.OnFrame = func(*lf.StreamResult) {
			if firstFrame < 0 {
				firstFrame = pushed
			}
		}
		sdec, err := lf.NewDecoder(dcfg)
		if err != nil {
			return nil, err
		}
		sd, err := sdec.NewStream()
		if err != nil {
			return nil, err
		}
		var peak int64
		err = ep.Blocks(streamBlock, func(block []complex128) error {
			pushed += int64(len(block))
			if err := sd.Push(block); err != nil {
				return err
			}
			if r := sd.RetainedBytes(); r > peak {
				peak = r
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		streamed, err := sd.Flush()
		if err != nil {
			return nil, err
		}

		rate := ep.Config.SampleRate
		captureMS := float64(ep.Capture.Len()) / rate * 1e3
		ffMS := -1.0
		if firstFrame >= 0 {
			ffMS = float64(firstFrame) / rate * 1e3
		}
		peakKiB := float64(peak) / 1024
		capKiB := float64(ep.Capture.Len()) * 16 / 1024
		identical := reflect.DeepEqual(batch, streamed)
		table.AddRow(fmt.Sprint(n), ms(captureMS/1e3), ms(ffMS/1e3),
			fmt.Sprintf("%.0f", peakKiB), fmt.Sprintf("%.0f", capKiB), fmt.Sprint(identical))
		series[0].Add(float64(n), ffMS)
		series[1].Add(float64(n), peakKiB)
		if !identical {
			return nil, fmt.Errorf("experiment: streaming decode diverged from batch at %d tags", n)
		}
	}
	return &Result{Table: table, Series: series}, nil
}
