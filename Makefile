GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet test race race-stream bench benchjson benchguard \
	fuzz fuzz-smoke kernel-smoke obs-smoke \
	sic-smoke gate-smoke robustness-smoke lfperf-smoke profile \
	ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race gate exercises the parallel pipeline (decoder fan-out,
# chunked edge detection, epoch-level experiment workers) under the
# race detector; the suite's determinism tests run both serial and
# parallel paths, so this covers every pool in the tree.
race:
	$(GO) test -race ./...

# Focused race pass over the streaming-vs-batch equivalence suite: the
# streaming decoder shares worker pools with the batch path, so the
# bit-identity tests double as a race probe of every incremental stage.
race-stream:
	$(GO) test -race -run 'TestStreaming' .

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Machine-readable micro-benchmarks (ns/op, allocs/op, goodput,
# streaming throughput/latency/window). Regenerates the committed
# baseline; commit the result when a perf change is intentional.
benchjson:
	$(GO) run ./cmd/lfbench -benchjson BENCH_streaming_decode.json

# Re-run the suite and fail on >15% ns/op or allocs/op regressions in
# the gated hot-path stages (decode sweep, edgedetect sweep, streaming
# decode) against the committed baseline.
benchguard:
	$(GO) run ./cmd/lfbench -benchguard BENCH_streaming_decode.json

# Native Go fuzzing of the adversarial-input surfaces: the LFIQ
# container parser and the streaming decode pipeline, plus the DSP
# kernel contracts (prefix repair, the screened sweep's skip bound). FUZZTIME bounds
# each target's budget (default 30s; raise for a soak run).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzBlockReader -fuzztime $(FUZZTIME) ./internal/iq
	$(GO) test -run '^$$' -fuzz FuzzReadCapture -fuzztime $(FUZZTIME) ./internal/iq
	$(GO) test -run '^$$' -fuzz FuzzStreamPush -fuzztime $(FUZZTIME) ./internal/decoder
	$(GO) test -run '^$$' -fuzz FuzzWireFrame -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzGateFrame -fuzztime $(FUZZTIME) ./internal/gate
	$(GO) test -run '^$$' -fuzz FuzzPrefixRepair -fuzztime $(FUZZTIME) ./internal/dsp
	$(GO) test -run '^$$' -fuzz FuzzScreenSound -fuzztime $(FUZZTIME) ./internal/dsp

# Short-budget fuzz pass for CI: enough executions to catch decode-path
# panics on adversarial input without stalling the gate.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=5s

# Kernel-equivalence smoke: the direct unit equivalence suites for the
# SoA sweep kernels, the screened sweep's DiffAt identity and skip
# bound, quickselect median, and windowed NMS (DESIGN.md §12), plus a
# short fuzz of the sparse reference kernel the benchmark still times
# (dsp.sweep_sparse_ns_per_sample).
kernel-smoke:
	$(GO) test -run 'TestPrefixSoA|TestDiffSweep|TestDiffAt|TestScreen|TestMedianFloat|TestSuppress' ./internal/dsp
	$(GO) test -run '^$$' -fuzz FuzzDiffSweepSparse -fuzztime 5s ./internal/dsp

# Observability smoke: the golden-trace corpus (batch + streaming,
# byte-for-byte against testdata/golden/) and the metrics conservation
# sweep (accounting identities across every fault kind), both under the
# race detector so the atomic counter paths are exercised concurrently.
obs-smoke:
	$(GO) test -race -run 'TestGolden|TestMetricsConservation|TestStatsDeterminism' .

# Incremental-SIC smoke: the dirty-span vs ForceFullResidual
# byte-identity matrix (fault kinds x rounds, block/parallelism
# composition, vacuity guard) under the race detector, the prefix
# subtract-and-repair unit suite, and one quick sic experiment run so
# the redecode-fraction measurement path stays wired end to end.
sic-smoke:
	$(GO) test -race -run 'TestSIC' .
	$(GO) test -run 'TestRepairPrefix' ./internal/dsp
	$(GO) run ./cmd/lfbench -exp sic -quick

# Reader-gateway smoke: the gateway lifecycle suite (resume, kill
# mid-stream flush, double-Close, connect/disconnect storm, slow-sink
# backpressure, goroutine-leak check) at -count=3, the root acceptance
# matrix (reader push blocks {1,4096,whole} x capture faults x
# transport fault kinds at severity 0.5 — every cell asserting
# byte-identity against independent local streaming decodes), and a
# four-reader loopback gateway run with the identity check enforced.
gate-smoke:
	$(GO) test -race -count=3 ./internal/gate
	$(GO) test -race -run 'TestGateway' .
	$(GO) run ./cmd/lfgate -demo -readers 4 -check

# One-epoch robustness sweep: fault injection across severities with
# the streaming==batch degraded-identity check enforced per point.
robustness-smoke:
	$(GO) run ./cmd/lfbench -exp robustness -quick -epochs 1

# Benchmark smoke: a 3 s traced run of each BENCHMARK.json workload
# through lfperf/run.sh, which builds the benchmark from this checkout.
# The last output line must report "correct":true — every decode
# scored, every A/B variant byte-identical to the shipped decode — and
# "failed":0. About 30 s on 2 CPUs.
LFPERF_WORKLOADS = dense16_stream slotted_replay gateway_loopback

lfperf-smoke:
	@for w in $(LFPERF_WORKLOADS); do \
		out=$$(bash lfperf/run.sh --workload $$w --seed 1 --seconds 3 --trace 1) || exit 1; \
		last=$$(printf '%s\n' "$$out" | tail -n 1); \
		if printf '%s' "$$last" | grep -q '"correct":true' && \
			printf '%s' "$$last" | grep -Eq '"failed":0[,}]'; then \
			echo "lfperf-smoke: $$w ok"; \
		else \
			echo "lfperf-smoke: $$w failed: $$(printf '%s' "$$last" | cut -c1-300)"; \
			exit 1; \
		fi; \
	done

# CPU + heap profiles of the micro-benchmark suite, for hunting the
# next hot spot (`go tool pprof lfbench.cpu.prof`).
profile:
	$(GO) run ./cmd/lfbench -benchjson /tmp/lfbench-profile.json \
		-cpuprofile lfbench.cpu.prof -memprofile lfbench.mem.prof

ci: vet build test race race-stream fuzz-smoke kernel-smoke obs-smoke sic-smoke gate-smoke robustness-smoke benchguard lfperf-smoke

clean:
	$(GO) clean ./...
