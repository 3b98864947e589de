#!/usr/bin/env bash
# Compares the repository benchmark (lfperf/) at a base revision with the
# current checkout, uncommitted edits included. Run it from the
# repository root:
#
#   bash scripts/perf-compare.sh BASE [PAIRS [SECONDS]]
#   make perf-compare BASE=<rev> [PAIRS=10] [SECONDS=20]
#
# BASE is checked out with `git worktree` into .bench_build/base and
# removed again on exit. Both lfperf binaries are built with the
# environment lfperf/run.sh uses. Each BENCHMARK.json workload then
# runs PAIRS (default 10) pairs of
# SECONDS-long (default 20) end-to-end passes (--trace 0). Pair i runs
# both sides with seed i, and the side that goes first alternates from
# pair to pair, so drift on a shared machine hits both sides alike.
#
# For every BENCHMARK.json end-to-end metric it prints each side's
# median and quartiles, how many pairs the change won (ties count for
# neither side), and whether the relative difference of the medians
# exceeds the metric's bound. This is a local tool for citing before
# and after numbers, not a gate: timing on a shared VM is too noisy to
# hold against a committed baseline.
#
# Needs jq to read the results; exits before building anything when jq
# is missing.
set -euo pipefail

if ! command -v jq >/dev/null 2>&1; then
	echo "perf-compare: needs jq to read the benchmark results; install jq and re-run" >&2
	exit 1
fi
if [ "$#" -lt 1 ] || [ "$#" -gt 3 ]; then
	echo "usage: $0 BASE [PAIRS [SECONDS]]" >&2
	exit 2
fi
rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
	echo "perf-compare: $1 is not a commit" >&2
	exit 2
}
pairs=${2:-10}
secs=${3:-20}
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off

tree="$out/base"
git worktree remove --force "$tree" >/dev/null 2>&1 || rm -rf "$tree"
git worktree prune
cleanup() {
	git worktree remove --force "$tree" >/dev/null 2>&1 || true
}
trap cleanup EXIT
git worktree add --quiet --detach "$tree" "$rev"

echo "perf-compare: building base $(git rev-parse --short "$rev") and the checkout" >&2
(cd "$tree/lfperf" && go build -o "$out/lfperf-base" .)
(cd lfperf && go build -o "$out/lfperf-change" .)

results="$out/compare"
rm -rf "$results"
mkdir -p "$results"
jq -r '.end_to_end[] | [.name, .better, .bound] | @tsv' BENCHMARK.json >"$results/metrics.tsv"

# run SIDE WORKLOAD SEED appends one pass's metrics to the workload's
# table as "pair side metric value" rows.
run() {
	local line
	line=$("$out/lfperf-$1" --workload "$2" --seed "$3" --seconds "$secs" --trace 0 2>/dev/null | tail -n 1) || {
		echo "perf-compare: $2 $1 seed $3 failed" >&2
		return 0
	}
	printf '%s\n' "$line" | jq -r --arg p "$3" --arg s "$1" '
		([$p, $s, "correct", (if .correct and .failed == 0 then 1 else 0 end)] | @tsv),
		(.metrics | to_entries[] | [$p, $s, .key, .value.value] | @tsv)' >>"$results/$2.tsv"
}

for w in "${workloads[@]}"; do
	echo "perf-compare: $w, $pairs pairs of ${secs}s runs" >&2
	: >"$results/$w.tsv"
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run base "$w" "$i"
			run change "$w" "$i"
		else
			run change "$w" "$i"
			run base "$w" "$i"
		fi
	done
	echo
	echo "== $w ($pairs pairs, ${secs}s, base $(git rev-parse --short "$rev"))"
	awk -F '\t' -v pairs="$pairs" '
		function sortv(a, n,    i, j, t) {
			for (i = 2; i <= n; i++) {
				t = a[i]
				for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
				a[j + 1] = t
			}
		}
		# quantile of the sorted a[1..n], interpolating between ranks.
		function q(a, n, p,    h, lo) {
			h = (n - 1) * p + 1
			lo = int(h)
			if (lo >= n) return a[n]
			return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
		}
		FNR == NR { better[$1] = $2; bound[$1] = $3 + 0; order[++nm] = $1; next }
		$3 == "correct" { runs[$2]++; ok[$2] += $4; next }
		{ v[$1, $2, $3] = $4 + 0 }
		END {
			printf "correct runs: base %d/%d, change %d/%d\n", ok["base"], runs["base"], ok["change"], runs["change"]
			printf "%-22s %12s %12s %23s %23s %6s %8s  %s\n", "metric", "base median", "chg median", "base q1..q3", "chg q1..q3", "wins", "delta", "verdict"
			for (k = 1; k <= nm; k++) {
				m = order[k]
				nb = nc = wins = both = 0
				for (p = 1; p <= pairs; p++) {
					hb = ((p, "base", m) in v)
					hc = ((p, "change", m) in v)
					if (hb) b[++nb] = v[p, "base", m]
					if (hc) c[++nc] = v[p, "change", m]
					if (hb && hc) {
						both++
						x = v[p, "base", m]; y = v[p, "change", m]
						if ((better[m] == "higher" && y > x) || (better[m] == "lower" && y < x)) wins++
					}
				}
				if (nb == 0 || nc == 0) { printf "%-22s missing from the results\n", m; continue }
				sortv(b, nb); sortv(c, nc)
				bm = q(b, nb, 0.5); cm = q(c, nc, 0.5)
				biqr = sprintf("%.6g..%.6g", q(b, nb, 0.25), q(b, nb, 0.75))
				ciqr = sprintf("%.6g..%.6g", q(c, nc, 0.25), q(c, nc, 0.75))
				if (bm == 0 && cm != 0) { delta = "n/a"; verdict = "base median is 0" }
				else {
					rel = (bm == cm) ? 0 : (cm - bm) / bm
					delta = sprintf("%+.1f%%", 100 * rel)
					worse = (better[m] == "higher") ? -rel : rel
					if (worse > bound[m]) verdict = "WORSE beyond bound " bound[m]
					else if (-worse > bound[m]) verdict = "better beyond bound " bound[m]
					else verdict = "within bound " bound[m]
				}
				printf "%-22s %12.6g %12.6g %23s %23s %3d/%-2d %8s  %s\n", m, bm, cm, biqr, ciqr, wins, both, delta, verdict
			}
		}' "$results/metrics.tsv" "$results/$w.tsv"
done
