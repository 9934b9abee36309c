#!/usr/bin/env bash
# Traffic map: which internal/ functions no CI workload reaches.
#
#   bash scripts/traffic.sh [OUT]
#
# Builds the benchmark, mrbench and mrchaos with coverage of every package in
# the module, runs them over the CI workloads — the four BENCHMARK.json
# workloads (2 s each), the five CI mrchaos configurations, the Fig. 3 and
# 4-region Fig. 6 ledger rows and `mrbench -quick all` — and writes each
# internal/ function those runs never entered (0.0 % of statements covered)
# to OUT (default results/traffic.txt). Tests are not run: the map says what
# the workloads exercise, not what is tested. It takes about 5 minutes on two
# cores.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-results/traffic.txt}"
case $out in /*) ;; *) out="$PWD/$out" ;; esac
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/bin" "$tmp/cov" "$tmp/run"

# -coverpkg must name the module's packages by pattern: with
# mrdb/internal/... alone the binaries write no coverage data.
for pkg in benchmark cmd/mrbench cmd/mrchaos; do
	go build -cover -coverpkg=./... -o "$tmp/bin/$(basename "$pkg")" "./$pkg"
done
export GOCOVERDIR="$tmp/cov"

echo "traffic: benchmark" >&2
"$tmp/bin/benchmark" -seconds 2 -out "$tmp/bench.json" >/dev/null
echo "traffic: mrchaos" >&2
"$tmp/bin/mrchaos" -seed 1 -faults 12 -verify -export-dir "$tmp/run/chaos" >/dev/null
"$tmp/bin/mrchaos" -seed 3 -faults 12 -crashes -verify >/dev/null
"$tmp/bin/mrchaos" -seed 5 -faults 12 -crashes -verify >/dev/null
"$tmp/bin/mrchaos" -seed 23 -elastic -verify >/dev/null
"$tmp/bin/mrchaos" -seed 1 -elastic -faults 12 -verify >/dev/null
echo "traffic: mrbench" >&2
"$tmp/bin/mrbench" ledger fig3 fig6-4 >/dev/null
# -quick all writes BENCH_elastic.json and results/ into its working
# directory, so it runs in a scratch one.
(cd "$tmp/run" && "$tmp/bin/mrbench" -quick all >/dev/null)

{
	echo "# Traffic map: internal/ functions that no CI workload entered."
	echo "# Regenerate with: bash scripts/traffic.sh"
	echo "#"
	echo "# This is a map, not a deletion list. The workloads are the four"
	echo "# BENCHMARK.json workloads, the five CI mrchaos configurations,"
	echo "# mrbench ledger fig3 fig6-4 and mrbench -quick all; tests are not"
	echo "# run. A function listed here may still be reached by mrsql, the"
	echo "# examples or a test, and a path with zero traffic needs a workload"
	echo "# that exercises it or a reason it can go. One line per function:"
	echo "# file, then function (with its receiver)."
	go tool covdata func -i="$tmp/cov" |
		awk '$NF == "0.0%" && $1 ~ /^mrdb\/internal\// { sub(/^mrdb\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1, $2 }' |
		LC_ALL=C sort
} >"$tmp/traffic.txt"
mkdir -p "$(dirname "$out")"
mv "$tmp/traffic.txt" "$out"
echo "wrote $out ($(grep -vc '^#' "$out") functions)" >&2
