#!/usr/bin/env bash
# Traffic map: which internal/ functions no CI workload reaches, and why each
# of them stays.
#
#   bash scripts/traffic.sh [OUT]
#
# Builds every program CI runs with coverage of every package in the module
# and runs it as CI does — the four BENCHMARK.json workloads (2 s each), CI's
# mrchaos sweep (seeds 1-10, 16 and the traced seeds 20, 59, 212, 223, 248,
# 317 and 392 under 12 faults, seed 23 without the nemesis; seed 16 has
# requests that exhaust their retries, the only traffic of the DistSender's
# give-up path, fillErr),
# the Fig. 3 and 4-region Fig. 6 ledger rows, `mrbench -quick all`, the
# traced Fig. 3 smoke and the three examples — and writes each internal/
# function those runs never entered (0.0 % of statements covered; a
# function without statements has nothing to cover and is left out) to OUT
# (default results/traffic.txt), one line each: file, function (with its
# receiver), class. The class says why a function without traffic stays:
#
#   string    a String or Error method
#   ast       an AST node's marker method (stmt, expr)
#   mrsql     reached by the interactive shell: mrsql, driven by
#             scripts/traffic.sql, enters it
#   cmd       reached only by a cmd/ or examples/ program CI does not run:
#             mrdemo enters it, or it is listed below
#   observer  a test observer used across packages (listed below)
#
# A function that fits no class gets none, and the script fails listing it:
# it needs a workload or a reason to stay, or it goes. Tests are not run: the
# map says what the programs exercise, not what is tested. It takes about 3
# minutes on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-results/traffic.txt}"
case $out in /*) ;; *) out="$PWD/$out" ;; esac
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/bin" "$tmp/cov" "$tmp/reach/mrsql" "$tmp/reach/cmd" "$tmp/run"

# Test observers: read-only accessors, and one workload driver, that tests in
# other packages call to look inside a layer or drive it. No program needs
# them.
observers='
*RangeCatalog.Len
*Engine.IntentCount
*Trace.Find
*Node.CommitIndex
*Node.DurableIndex
*Node.ID
*Node.IsVoter
*Simulation.Pending
*WAL.DurableSize
*WAL.FlipBit
*Txn.ID
*Txn.ReadTimestamp
*LatencyRecorder.Samples
*Movr.Run
'
# Reached only by a program CI does not run and mrdemo does not enter:
# mrbench full, the paper-scale runs (hours).
cmdonly='
Full
'

# -coverpkg must name the module's packages by pattern: with
# mrdb/internal/... alone the binaries write no coverage data.
for pkg in benchmark cmd/mrbench cmd/mrchaos cmd/mrsql cmd/mrdemo examples/quickstart examples/movr examples/iot; do
	go build -cover -coverpkg=./... -o "$tmp/bin/$(basename "$pkg")" "./$pkg"
done

export GOCOVERDIR="$tmp/cov"
echo "traffic: benchmark" >&2
"$tmp/bin/benchmark" -seconds 2 -out "$tmp/bench.json" >/dev/null
echo "traffic: mrchaos" >&2
"$tmp/bin/mrchaos" -seed 1 -faults 12 -verify -export-dir "$tmp/run/chaos" >/dev/null
for seed in 2 3 4 5 6 7 8 9 10 16 20 59 212 223 248 317 392; do
	"$tmp/bin/mrchaos" -seed "$seed" -faults 12 -verify >/dev/null
done
"$tmp/bin/mrchaos" -seed 23 -faults 0 -verify >/dev/null
echo "traffic: mrbench" >&2
"$tmp/bin/mrbench" ledger fig3 fig6-4 >/dev/null
# -quick writes BENCH_elastic.json and results/ into its working directory,
# so it runs in a scratch one.
(cd "$tmp/run" && "$tmp/bin/mrbench" -quick all >/dev/null)
(cd "$tmp/run" && "$tmp/bin/mrbench" -quick -trace fig3 >/dev/null)
echo "traffic: examples" >&2
for ex in quickstart movr iot; do
	"$tmp/bin/$ex" >/dev/null
done

echo "traffic: mrsql, mrdemo (classes only)" >&2
GOCOVERDIR="$tmp/reach/mrsql" "$tmp/bin/mrsql" <scripts/traffic.sql >/dev/null
GOCOVERDIR="$tmp/reach/cmd" "$tmp/bin/mrdemo" >/dev/null

# entered DIR: every function of DIR's runs with statements covered.
entered() {
	go tool covdata func -i="$1" | awk '$NF != "0.0%" && $1 ~ /^mrdb\// { print $2 }' | LC_ALL=C sort -u
}
entered "$tmp/reach/mrsql" >"$tmp/mrsql.txt"
entered "$tmp/reach/cmd" >"$tmp/cmd.txt"
echo "$observers" | grep . >"$tmp/observer.txt"
echo "$cmdonly" | grep . >>"$tmp/cmd.txt"

{
	echo "# Traffic map: internal/ functions that no CI workload entered."
	echo "# Regenerate with: bash scripts/traffic.sh (its header defines the classes)."
	echo "#"
	echo "# The workloads are the four BENCHMARK.json workloads, CI's mrchaos"
	echo "# sweep, mrbench ledger fig3 fig6-4, mrbench -quick all, mrbench"
	echo "# -quick -trace fig3 and the three examples; tests are not"
	echo "# run. A function without statements (an empty body, such as an AST"
	echo "# node's marker method) is left out: coverage cannot see it run. One"
	echo "# line per function: file, function (with its receiver), class:"
	echo "# string, ast, mrsql, cmd or observer."
	go tool covdata func -i="$tmp/cov" |
		awk '$NF == "0.0%" && $1 ~ /^mrdb\/internal\// { print $1, $2 }' |
		while read -r loc fn; do
			loc=${loc#mrdb/}
			file=${loc%%:*}
			line=${loc#*:}
			line=${line%:}
			if sed -n "${line}p" "$file" | grep -q '{[[:space:]]*}[[:space:]]*$'; then
				continue
			fi
			class=
			case $fn in
			*.String | *.Error) class=string ;;
			*.stmt | *.expr) [ "$file" = internal/sql/parser.go ] && class=ast ;;
			esac
			for c in mrsql cmd observer; do
				if [ -z "$class" ] && grep -qxF -- "$fn" "$tmp/$c.txt"; then
					class=$c
				fi
			done
			echo "$file $fn $class"
		done |
		LC_ALL=C sort
} >"$tmp/traffic.txt"
mkdir -p "$(dirname "$out")"
mv "$tmp/traffic.txt" "$out"
echo "wrote $out ($(grep -vc '^#' "$out") functions)" >&2
unclassed=$(grep -v '^#' "$out" | awk 'NF != 3')
if [ -n "$unclassed" ]; then
	echo "traffic: functions without traffic or a class (give them a workload, or delete them):" >&2
	echo "$unclassed" >&2
	exit 1
fi
