// Command lfbench regenerates the paper's evaluation tables and
// figures (§5) from the simulator and prints them as aligned text
// tables. By default it runs everything; -exp selects one experiment.
//
// Usage:
//
//	lfbench [-exp all|table1|fig1|fig2|fig4|fig5|fig8|fig9|fig10|fig11|fig12|table2|table3|fig13|fig14|
//	             dynamics|reliable|streaming|robustness|scalability|capacity|ablation]
//	        [-seed N] [-epochs N] [-quick] [-workers N] [-format table|csv]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// Performance is measured by the repository benchmark in lfperf/, not
// here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"lf/internal/experiment"
)

type runner struct {
	name string
	run  func(experiment.Config) (*experiment.Result, error)
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1, fig1, fig2, fig4, fig5, fig8, fig9, fig10, fig11, fig12, table2, table3, fig13, fig14, dynamics, reliable, streaming, robustness, scalability, capacity, ablation)")
	seed := flag.Int64("seed", 1, "random seed")
	epochs := flag.Int("epochs", 3, "epochs per measured point")
	quick := flag.Bool("quick", false, "trim sweeps for a fast smoke run")
	format := flag.String("format", "table", "output format: table or csv")
	workers := flag.Int("workers", 0, "epoch-level parallelism (0 = all cores, 1 = serial); results are identical at any setting")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lfbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lfbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "lfbench: memprofile: %v\n", err)
			}
		}()
	}

	cfg := experiment.Config{Seed: *seed, Epochs: *epochs, Quick: *quick, Workers: *workers}
	runners := []runner{
		{"table1", experiment.Table1},
		{"fig1", experiment.Fig1},
		{"fig2", experiment.Fig2},
		{"fig4", experiment.Fig4},
		{"fig5", experiment.Fig5},
		{"fig8", experiment.Fig8},
		{"fig9", experiment.Fig9},
		{"fig10", experiment.Fig10},
		{"fig11", experiment.Fig11},
		{"fig12", experiment.Fig12},
		{"table2", experiment.Table2},
		{"table3", func(experiment.Config) (*experiment.Result, error) { return experiment.Table3Hardware(), nil }},
		{"fig13", experiment.Fig13},
		{"fig14", experiment.Fig14},
		{"dynamics", experiment.DynamicsRobustness},
		{"reliable", experiment.ReliableTransfer},
		{"streaming", experiment.Streaming},
		{"robustness", experiment.Robustness},
		{"scalability", experiment.ScalabilityLowRate},
		{"capacity", experiment.CapacityModel},
		{"ablation", runAblations},
	}
	ran := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		start := time.Now()
		res, err := r.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		if *format == "csv" {
			fmt.Printf("# %s\n%s\n", res.Table.Title, res.Table.CSV())
		} else {
			fmt.Println(res.Table.String())
			fmt.Printf("(%s in %.1fs)\n\n", r.name, time.Since(start).Seconds())
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "lfbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func runAblations(cfg experiment.Config) (*experiment.Result, error) {
	sep, err := experiment.AblationSeparation(cfg)
	if err != nil {
		return nil, err
	}
	reg, err := experiment.AblationRegistration(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Println(sep.Table.String())
	return reg, nil
}
