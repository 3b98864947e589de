GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet test race race-stream bench \
	fuzz fuzz-smoke kernel-smoke obs-smoke \
	sic-smoke gate-smoke robustness-smoke lfperf-smoke perf-compare profile \
	ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race gate runs the tree's concurrency under the race detector:
# the gateway's session fleet, the experiments' epoch fan-out, and
# concurrent decoders sharing pooled scratch (one decode itself is
# serial; TestDecodeDeterminismAcrossParallelism runs eight at once).
race:
	$(GO) test -race ./...

# Focused race pass over the streaming-vs-batch equivalence suite: the
# streaming decoder shares pooled scratch with the batch path, so the
# bit-identity tests double as a race probe of every incremental stage.
# A local target: race runs these tests in ci.
race-stream:
	$(GO) test -race -run 'TestStreaming' .

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Native Go fuzzing of the adversarial-input surfaces: the LFIQ
# container parser and the streaming decode pipeline, plus the kernel
# contracts (the masked residual fold, the screened sweep's skip
# bound, the distance screen, the bracket-pass noise floor, the per-run
# NMS). FUZZTIME bounds each target's budget (default 30s; raise for
# a soak run).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzBlockReader -fuzztime $(FUZZTIME) ./internal/iq
	$(GO) test -run '^$$' -fuzz FuzzReadCapture -fuzztime $(FUZZTIME) ./internal/iq
	$(GO) test -run '^$$' -fuzz FuzzStreamPush -fuzztime $(FUZZTIME) ./internal/decoder
	$(GO) test -run '^$$' -fuzz FuzzWireFrame -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzGateFrame -fuzztime $(FUZZTIME) ./internal/gate
	$(GO) test -run '^$$' -fuzz FuzzMaskedFold -fuzztime $(FUZZTIME) ./internal/edgedetect
	$(GO) test -run '^$$' -fuzz FuzzScreenSound -fuzztime $(FUZZTIME) ./internal/dsp
	$(GO) test -run '^$$' -fuzz FuzzDistWithin -fuzztime $(FUZZTIME) ./internal/dsp
	$(GO) test -run '^$$' -fuzz FuzzNoiseFloor -fuzztime $(FUZZTIME) ./internal/dsp
	$(GO) test -run '^$$' -fuzz FuzzSuppressRuns -fuzztime $(FUZZTIME) ./internal/dsp

# Short-budget fuzz pass for CI: enough executions to catch decode-path
# panics on adversarial input without stalling the gate.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=5s

# Kernel-equivalence smoke: the direct unit equivalence suites for the
# SoA sweep kernels, the screened sweep's DiffAt identity and skip
# bound, the distance screen, the bracket-pass and quickselect median,
# the screened calibration's rounding band, and windowed and per-run
# NMS (DESIGN.md §12), plus a short fuzz of the sparse reference kernel the
# benchmark still times (dsp.sweep_sparse_ns_per_sample); the
# frame-head scan's branch-and-bound cut against the uncut scan
# (DESIGN.md §17), and registration's cursor lookups and screened
# region geometry against their sort.Search and exact-Dist references;
# the LFIQ sample codec's little-endian fast path against the
# portable path, truncation included; the running-minimum kmeans++
# seeding, the centroid pruning and the shared k-means scratch against
# their references; and collision resolution's counting-sorted edge
# claims and the SIC round's linear touched-range merge against their
# sort-based references.
kernel-smoke:
	$(GO) test -run 'TestPrefixSoA|TestDiffSweep|TestDiffAt|TestScreen|TestDist|TestMedianFloat|TestNoiseFloor|TestSuppress' ./internal/dsp
	$(GO) test -run 'TestCalibrateFromScreen' ./internal/edgedetect
	$(GO) test -run '^$$' -fuzz FuzzDiffSweepSparse -fuzztime 5s ./internal/dsp
	$(GO) test -run 'TestAnchorScanPruneExact|TestRegistrationGeometryExact' ./internal/streams
	$(GO) test -run 'TestSampleCodec|TestBlockReaderTruncated' ./internal/iq
	$(GO) test -run 'TestSeedPlusPlus|TestKMeansPruningIdentical|TestKMeansWarmMatchesReference' ./internal/cluster
	$(GO) test -run 'TestEdgeClaims|TestTouchedRanges' ./internal/decoder

# Observability smoke: the golden-trace corpus (batch + streaming,
# byte-for-byte against testdata/golden/) and the metrics conservation
# sweep (accounting identities across every fault kind), both under the
# race detector. A local target: race runs these tests in ci.
obs-smoke:
	$(GO) test -race -run 'TestGolden|TestMetricsConservation|TestStatsDeterminism' .

# Incremental-SIC smoke: the batch vs streaming byte-identity matrix
# (fault kinds x rounds, block-size composition, vacuity guard)
# and the decoder's residual-fill and SIC unit tests under the race
# detector, and the edge detector's masked residual fold suite. A local
# target: in ci, race runs the TestSIC tests and test the TestMasked
# ones.
sic-smoke:
	$(GO) test -race -run 'TestSIC' .
	$(GO) test -race -run 'TestSIC' ./internal/decoder
	$(GO) test -run 'TestMasked' ./internal/edgedetect

# Reader-gateway smoke: the gateway lifecycle suite (resume, kill
# mid-stream flush, double-Close, connect/disconnect storm, slow-sink
# ordering, chunk after flush, goroutine-leak check) at -count=3, the
# root acceptance
# matrix (reader push blocks {1,4096,whole} x capture faults x
# transport fault kinds at severity 0.5 — every cell asserting
# byte-identity against independent local streaming decodes), and a
# four-reader loopback gateway run with the identity check enforced.
gate-smoke:
	$(GO) test -race -count=3 ./internal/gate
	$(GO) test -race -run 'TestGateway' .
	$(GO) run ./cmd/lfgate -demo -readers 4 -check

# One-epoch robustness sweep: fault injection across severities with
# the streaming==batch degraded-identity check enforced per point. A
# local target: TestPaperTables (in test) runs the same quick sweep
# over three epochs, epoch 0 included, and pins its table.
robustness-smoke:
	$(GO) run ./cmd/lfbench -exp robustness -quick -epochs 1

# Benchmark smoke and decode-quality gate (scripts/lfperf-quality.sh):
# a 3 s traced and a 3 s end-to-end run of each BENCHMARK.json workload
# through lfperf/run.sh, which builds the benchmark from this checkout.
# Each last line must report "correct":true and "failed":0; the
# end-to-end run's goodput_kbps, ber and frame_error_rate must equal
# testdata/lfperf_quality.tsv exactly, and peak_retained_mb stay within
# its BENCHMARK.json bound. About 45 s on 2 CPUs.
LFPERF_WORKLOADS = dense16_stream slotted_replay gateway_loopback

lfperf-smoke:
	@bash scripts/lfperf-quality.sh $(LFPERF_WORKLOADS)

# Timing comparison against a base revision, for citing before and
# after numbers in a perf change: PAIRS alternating pairs of SECONDS-long
# end-to-end runs per workload, medians held against the BENCHMARK.json
# bounds (scripts/perf-compare.sh; needs jq). A local tool, not a ci
# step: a committed timing baseline cannot be gated on a shared VM.
PAIRS ?= 10
SECONDS ?= 20

perf-compare:
	@test -n "$(BASE)" || { echo "usage: make perf-compare BASE=<rev> [PAIRS=10] [SECONDS=20]" >&2; exit 2; }
	@bash scripts/perf-compare.sh $(BASE) $(PAIRS) $(SECONDS)

# CPU + heap profiles of the root end-to-end and streaming decode
# benchmarks, for hunting the next hot spot (`go tool pprof lf.test
# lf.cpu.prof`).
profile:
	$(GO) test -run '^$$' -bench 'EndToEndDecode|StreamingDecode' \
		-cpuprofile lf.cpu.prof -memprofile lf.mem.prof .

# The ci gate: vet, the test and race suites, the smokes that run
# something race does not (fuzzing, the -count=3 gateway suite and
# lfgate demo), and lfperf-smoke's decode-quality check. race-stream,
# obs-smoke, sic-smoke and robustness-smoke run what race and test
# already run, so they stay local targets. Timing is not gated here
# (see perf-compare).
ci: vet build test race fuzz-smoke kernel-smoke gate-smoke lfperf-smoke

clean:
	$(GO) clean ./...
