#!/usr/bin/env bash
# Quick-scale output of every paper experiment.
#
#   bash scripts/mrbench-quick.sh [OUT]
#
# Runs `go run ./cmd/mrbench -quick` (every table, figure and ablation of §7
# and the elastic scenarios, each at quick scale) and writes what it prints
# to OUT (default results/mrbench-quick.txt), after a two-line header. The
# run is a function of its seeds alone, so the file is exact: `git diff
# --exit-code` on the regenerated file fails on any row a change moved
# without regenerating it. Like `mrbench -quick elastic`, the run also
# rewrites BENCH_elastic.json. About 6 s of wall time.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-results/mrbench-quick.txt}"

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
{
	echo "# Output of go run ./cmd/mrbench -quick: every experiment at quick scale."
	echo "# Regenerate with: bash scripts/mrbench-quick.sh"
	go run ./cmd/mrbench -quick
} >"$tmp"
mkdir -p "$(dirname "$out")"
mv "$tmp" "$out"
echo "wrote $out"
