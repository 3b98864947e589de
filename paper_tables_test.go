package lf_test

// Paper-table pins. testdata/paper_tables.csv is what
//
//	for e in fig8 fig9 fig10 table2; do lfbench -exp $e -format csv; done
//
// prints at lfbench's defaults (seed 1, 3 epochs): the throughput
// figures and the collision-separation table that EXPERIMENTS.md
// quotes. testdata/experiment_tables.csv holds, in the same framing,
// the remaining decode-driven experiments at seed 1, 3 epochs and
// -quick: Table 1, Figs. 11-13, dynamics, low-rate scalability, both
// ablations, streaming and robustness. The test recomputes both and
// requires byte equality, so a change that moves any cell shows up
// here as a readable diff. Regenerate after an intentional change with:
//
//	go test -run TestPaperTables -update
//
// and update EXPERIMENTS.md from the new files.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lf/internal/experiment"
)

type experimentRun = func(experiment.Config) (*experiment.Result, error)

func TestPaperTables(t *testing.T) {
	if raceEnabled {
		t.Skip("the experiments run ~15x slower under -race; the plain go test run holds the tables")
	}
	pinTables(t, "paper_tables.csv", experiment.Default(), []experimentRun{
		experiment.Fig8, experiment.Fig9, experiment.Fig10, experiment.Table2,
	})
	pinTables(t, "experiment_tables.csv", experiment.Config{Seed: 1, Epochs: 3, Quick: true}, []experimentRun{
		experiment.Table1, experiment.Fig11, experiment.Fig12, experiment.Fig13,
		experiment.DynamicsRobustness, experiment.ScalabilityLowRate,
		experiment.AblationSeparation, experiment.AblationRegistration,
		experiment.Streaming, experiment.Robustness,
	})
}

// pinTables renders runs at cfg in the framing of lfbench -format csv
// and compares the result with testdata/file line by line.
func pinTables(t *testing.T, file string, cfg experiment.Config, runs []experimentRun) {
	t.Helper()
	var b strings.Builder
	for _, run := range runs {
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("# " + res.Table.Title + "\n" + res.Table.CSV() + "\n")
	}
	got := b.String()

	path := filepath.Join("testdata", file)
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
