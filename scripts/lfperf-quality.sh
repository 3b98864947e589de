#!/usr/bin/env bash
# Benchmark smoke and decode-quality check for lfperf. Run it from the
# repository root, naming the workloads to check:
#
#   bash scripts/lfperf-quality.sh dense16_stream slotted_replay gateway_loopback
#
# Each workload gets two 3 s passes through lfperf/run.sh, which builds
# the benchmark from this checkout: a traced one (--trace 1) and an
# end-to-end one (--trace 0). The last line of each must report
# "correct":true (every decode scored, every A/B variant byte-identical
# to the shipped decode) and "failed":0.
#
# The end-to-end pass's goodput_kbps, ber and frame_error_rate must then
# equal the committed values in testdata/lfperf_quality.tsv as printed,
# digit for digit: lfperf scores them on a fixed corpus that depends on
# neither the seed nor the run length, so they are exact functions of
# the decoder. Its peak_retained_mb must lie within that metric's
# BENCHMARK.json bound of the committed value, relative.
#
# Every workload must have exactly one row per metric in the file and
# report every metric; a missing one fails the check. A change that
# moves decode output updates the file and says why. Needs only grep
# and awk.
set -euo pipefail

tsv=testdata/lfperf_quality.tsv
exact_metrics="goodput_kbps ber frame_error_rate"
bounded_metric=peak_retained_mb

if [ "$#" -eq 0 ]; then
	echo "usage: $0 WORKLOAD..." >&2
	exit 2
fi

bound=$(grep -o "\"name\": *\"$bounded_metric\"[^}]*" BENCHMARK.json |
	grep -o '"bound": *[0-9.]*' | awk '{print $2}') || true
if [ -z "$bound" ]; then
	echo "lfperf-quality: no bound for $bounded_metric in BENCHMARK.json" >&2
	exit 1
fi

# committed W M prints the committed value of metric M for workload W,
# failing unless the file holds exactly one such row.
committed() {
	awk -F '\t' -v w="$1" -v m="$2" '
		$1 == w && $2 == m { n++; v = $3 }
		END { if (n != 1) exit 1; print v }' "$tsv"
}

# reported LINE M prints metric M's value from an lfperf result line,
# or nothing when the line lacks it.
reported() {
	printf '%s' "$1" | { grep -o "\"$2\":{\"value\":[^,}]*" || true; } | head -n 1 | sed 's/.*"value"://'
}

# pass W TRACE runs one 3 s pass of workload W and prints its last
# line, or, when the run fails or is not correct, why.
pass() {
	local last
	last=$(bash lfperf/run.sh --workload "$1" --seed 1 --seconds 3 --trace "$2" | tail -n 1) || {
		echo "lfperf run failed"
		return 1
	}
	if printf '%s' "$last" | grep -q '"correct":true' &&
		printf '%s' "$last" | grep -Eq '"failed":0[,}]'; then
		printf '%s\n' "$last"
	else
		echo "result not correct: $(printf '%s' "$last" | cut -c1-300)"
		return 1
	fi
}

status=0
for w in "$@"; do
	problems=()
	if ! out=$(pass "$w" 1); then
		problems+=("--trace 1: $out")
	fi
	if ! last=$(pass "$w" 0); then
		problems+=("--trace 0: $last")
		last=
	fi
	checked=0
	for m in $exact_metrics $bounded_metric; do
		if ! want=$(committed "$w" "$m"); then
			problems+=("$tsv needs exactly one $m row")
			continue
		fi
		got=$(reported "$last" "$m")
		if [ -z "$got" ]; then
			problems+=("$m missing from the lfperf result")
			continue
		fi
		if [ "$m" = "$bounded_metric" ]; then
			ok=$(awk -v g="$got" -v c="$want" -v b="$bound" \
				'BEGIN { d = (g - c) / c; if (d < 0) d = -d; print (c > 0 && d <= b) ? 1 : 0 }')
			[ "$ok" = 1 ] || problems+=("$m $got is outside $bound of $want")
		elif [ "$got" = "$want" ]; then
			ok=1
		else
			ok=0
			problems+=("$m $got != $want")
		fi
		if [ "$ok" = 1 ]; then
			checked=$((checked + 1))
		fi
	done
	if [ "${#problems[@]}" -eq 0 ] && [ "$checked" -eq 4 ]; then
		echo "lfperf-quality: $w ok (both passes correct; $exact_metrics exact, $bounded_metric within $bound)"
	else
		status=1
		for p in "${problems[@]}"; do
			echo "lfperf-quality: $w: $p" >&2
		done
	fi
done
exit "$status"
