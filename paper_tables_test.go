package lf_test

// Paper-table pin. testdata/paper_tables.csv is what
//
//	for e in fig8 fig9 fig10 table2; do lfbench -exp $e -format csv; done
//
// prints at lfbench's defaults (seed 1, 3 epochs): the throughput
// figures and the collision-separation table that EXPERIMENTS.md
// quotes. The test recomputes them and requires byte equality, so a
// change that moves any cell shows up here as a readable diff.
// Regenerate after an intentional change with:
//
//	go test -run TestPaperTables -update
//
// and update EXPERIMENTS.md from the new file.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lf/internal/experiment"
)

const paperTablesFile = "paper_tables.csv"

func TestPaperTables(t *testing.T) {
	if raceEnabled {
		t.Skip("the four experiments run ~15x slower under -race; the plain go test run holds the tables")
	}
	cfg := experiment.Default()
	var b strings.Builder
	for _, run := range []func(experiment.Config) (*experiment.Result, error){
		experiment.Fig8, experiment.Fig9, experiment.Fig10, experiment.Table2,
	} {
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The framing of lfbench -format csv.
		b.WriteString("# " + res.Table.Title + "\n" + res.Table.CSV() + "\n")
	}
	got := b.String()

	path := filepath.Join("testdata", paperTablesFile)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s line %d:\n got  %q\n want %q", path, i+1, g, w)
			}
		}
	}
}
