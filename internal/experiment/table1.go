package experiment

import (
	"strings"

	"lf"
	"lf/internal/stats"
)

// Table1 reproduces the single-node recovery walkthrough: the paper's
// example bit pattern transmitted by one tag, the edge states the
// decoder observed at each payload slot, and the decoded bits.
func Table1(cfg Config) (*Result, error) {
	sent := []byte{1, 0, 0, 0, 0, 1, 1, 0, 1, 0}
	net, err := lf.NewNetwork(lf.NetworkConfig{
		NumTags: 1,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := net.SetPayload(0, sent); err != nil {
		return nil, err
	}
	_, res, err := decodeEpoch(net, nil)
	if err != nil {
		return nil, err
	}
	table := &stats.Table{
		Title:  "Table 1 — single node data recovery",
		Header: []string{"row", "values"},
	}
	table.AddRow("sent bits", joinBits(sent))
	if len(res.Streams) == 1 {
		sr := res.Streams[0]
		glyphs := make([]string, 0, len(sent))
		for k := sr.PayloadStart; k < len(sr.States) && len(glyphs) < len(sent); k++ {
			glyphs = append(glyphs, sr.States[k].String())
		}
		table.AddRow("received edges", strings.Join(glyphs, " "))
		table.AddRow("decoded bits", joinBits(sr.Bits))
	}
	return &Result{Table: table}, nil
}

func joinBits(bits []byte) string {
	parts := make([]string, len(bits))
	for i, b := range bits {
		parts[i] = string('0' + rune(b))
	}
	return strings.Join(parts, " ")
}
