#!/usr/bin/env bash
# Per-layer ledger of three runs.
#
#   bash scripts/ledger.sh [OUT]
#
# Runs `mrbench ledger` — the Fig. 3 GLOBAL variant and the quick Fig. 6
# point (seed 602) at 4 and at 26 regions — and writes what each layer
# counted, whole-run totals and per committed transaction, to OUT (default
# results/ledger.txt). The counts are a function of the seeds, so a
# `git diff` on the file shows exactly what a change moved; the "host." lines
# (wall time, HeapInuse) are measurements and vary run to run. The 26-region
# row takes about a minute and over a GiB of heap.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-results/ledger.txt}"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
{
	echo "# Per-layer ledger: row counter total per_txn (totals include setup and load)."
	echo "# Regenerate with: bash scripts/ledger.sh"
	go run ./cmd/mrbench ledger
} >"$tmp"
mkdir -p "$(dirname "$out")"
mv "$tmp" "$out"
echo "wrote $out"
