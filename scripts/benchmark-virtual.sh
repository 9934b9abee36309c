#!/usr/bin/env bash
# Virtual-clock golden of the benchmark.
#
#   bash scripts/benchmark-virtual.sh [OUT]
#
# Runs every workload named in BENCHMARK.json once, at seed 1 with per-layer
# metrics (-trace 1), and writes each metric whose Clock in
# benchmark/metrics.go is "virtual" or "count" to OUT (default
# results/benchmark-virtual.txt), one "workload metric value unit" row per
# line. Those numbers are a function of the seed alone, so the file is exact:
# a change shows the rows it moved on purpose, and `git diff --exit-code` on
# the regenerated file fails on any other. The host-clock rows (wall time,
# allocations, heap, CPU shares) are left out; they need repeated pairs.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-results/benchmark-virtual.txt}"

# Metric names whose Clock is virtual or count, in catalogue order.
names=$(grep -o 'Name: "[^"]*",[^}]*Clock: "\(virtual\|count\)"' benchmark/metrics.go |
	sed 's/^Name: "\([^"]*\)".*/\1/')
# Workload names: the BENCHMARK.json entries that carry a "why".
workloads=$(grep '"why"' BENCHMARK.json | sed 's/.*"name": *"\([^"]*\)".*/\1/')

tmp=$(mktemp)
trap 'rm -f "$tmp" "$tmp.run"' EXIT
{
	echo "# Virtual-clock and count metrics of each BENCHMARK.json workload at seed 1."
	echo "# Regenerate with: bash scripts/benchmark-virtual.sh"
	for w in $workloads; do
		bash benchmark/run.sh -workload "$w" -seed 1 -trace 1 >"$tmp.run"
		for n in $names; do
			# A printed row: name, value (%.6g), unit, [clock or source], and
			# "min … max …" when the repetitions disagreed.
			row=$(awk -v n="$n" '$1 == n { $4 = ""; print; exit }' "$tmp.run")
			if [ -z "$row" ]; then
				echo "benchmark-virtual: no row for $n in workload $w" >&2
				exit 1
			fi
			echo "$w $row" | tr -s ' ' | sed 's/ $//'
		done
	done
} >"$tmp"
mkdir -p "$(dirname "$out")"
mv "$tmp" "$out"
echo "wrote $out"
