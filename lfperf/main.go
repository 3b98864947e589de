// Command lfperf is the repository benchmark. It runs one closed-loop
// decode workload for a fixed time, checks the decoded output against
// the simulator's ground truth, and prints one JSON line with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
//
//	go run . -workload dense16_stream -seed 1 -seconds 20 -trace 0
//
// Every input is generated in this process from -seed. The per-layer
// numbers come from timing each layer's public functions from outside;
// the program under test is not instrumented beyond its own lf.Stats
// counters and lf.Tracer events. README.md lists the workloads, the
// metrics and the layer each one belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark input family.
type workload struct {
	name string
	// run measures the end-to-end metrics with tracing off.
	run func(seed int64, budget time.Duration) (*report, error)
	// trace measures the per-layer metrics.
	trace func(seed int64, budget time.Duration) (*report, error)
}

var workloads = []workload{
	{name: "dense16_stream", run: runDense, trace: traceDense},
	{name: "slotted_replay", run: runSlotted, trace: traceSlotted},
	{name: "gateway_loopback", run: runGateway, trace: traceGateway},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// problems lists every failed output check; samples states what the
	// percentiles rest on. Both go to stderr.
	problems []string
	samples  string
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement time")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "lfperf: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "lfperf: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	run := w.run
	if *trace == 1 {
		run = w.trace
	}
	rep, err := run(*seed, budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfperf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.Correct = len(rep.problems) == 0 && rep.Failed == 0
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "lfperf: %s: check failed: %s\n", w.name, p)
	}
	if rep.samples != "" {
		fmt.Fprintf(os.Stderr, "lfperf: %s: %d decodes; percentiles over %s\n", w.name, rep.Attempted, rep.samples)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupTimes runs setup setupReps times and returns the last result
// with every repetition's duration in seconds. Repeating set-up lets
// setup_s report a median instead of one cold reading; collecting the
// previous repetition's garbage first keeps each one from paying for
// the one before.
func setupTimes[T any](setup func() (T, error), release func(T)) (T, []float64, error) {
	var out, none T
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && release != nil {
			release(out)
		}
		out = none
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return none, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		out = v
	}
	return out, times, nil
}
