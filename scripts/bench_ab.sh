#!/usr/bin/env bash
# A/B of the end-to-end benchmark on one host: the working tree against a
# base revision, in alternating pairs, so host noise lands on both sides.
#
# Usage: scripts/bench_ab.sh <base-rev> [workload] [pairs] [seconds] [first-seed]
#        (defaults: fleet-building, 10 pairs, 45 s per run, seed 1)
#
# The base revision is unpacked (git archive) into a temporary directory
# and built there by perfbench/run.sh, exactly as the working tree is
# built in place; the directory is removed on exit. Pair i runs seed
# first-seed + i − 1 on both sides, and the side that runs first alternates
# from pair to pair.
# Per seed the script prints both sides' frames/s, CPU ms/frame and verdict
# digest, flagging a digest mismatch (the change altered a verdict or the
# bias database); then each side's median and quartiles, how many pairs
# the working tree won on frames/s, and the median of the per-pair ratios.
# Every run's full report is kept under .bench_build/ab/. Exits 1 when any
# digest differed.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
	echo "usage: scripts/bench_ab.sh <base-rev> [workload] [pairs] [seconds] [first-seed]" >&2
	exit 2
fi
base_rev=$1
workload=${2:-fleet-building}
pairs=${3:-10}
seconds=${4:-45}
first=${5:-1}

head_dir=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
base_dir=$tmp/base
mkdir -p "$base_dir"
git archive "$base_rev" | tar -x -C "$base_dir"
out=$head_dir/.bench_build/ab
mkdir -p "$out"

# run <side> <dir> <seed>: one benchmark run; prints "frames/s cpu-ms digest".
run() {
	local log=$out/$workload-seed$3-$1.txt
	(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$3" \
		--seconds "$seconds" --trace 0) >"$log" 2>"$log.err"
	awk '$1 == "frames_per_s" { f = $2 }
		$1 == "cpu_ms_per_frame" { c = $2 }
		$1 == "#" && $2 == "digest" { d = $3 }
		END { if (f == "" || c == "" || d == "") exit 1; print f, c, d }' "$log"
}

printf '%-5s %12s %12s %10s %10s  %s\n' seed base_fps head_fps base_cpu head_cpu digest
mismatch=0
rows=$tmp/rows
: >"$rows"
for seed in $(seq "$first" $((first + pairs - 1))); do
	if [ $(((seed - first) % 2)) -eq 0 ]; then
		b=$(run base "$base_dir" "$seed")
		h=$(run head "$head_dir" "$seed")
	else
		h=$(run head "$head_dir" "$seed")
		b=$(run base "$base_dir" "$seed")
	fi
	read -r bf bc bd <<<"$b"
	read -r hf hc hd <<<"$h"
	flag=$bd
	if [ "$bd" != "$hd" ]; then
		flag="MISMATCH base $bd head $hd"
		mismatch=1
	fi
	printf '%-5s %12s %12s %10s %10s  %s\n' "$seed" "$bf" "$hf" "$bc" "$hc" "$flag"
	echo "$bf $hf $bc $hc" >>"$rows"
done

# quartiles <column>: q1, median and q3 (linear interpolation) of a column.
quartiles() {
	awk -v c="$1" '{ print $c }' "$rows" | sort -g | awk '
		{ v[NR] = $1 }
		function q(p,   h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
		END { v[NR + 1] = v[NR]; printf "q1 %.4g  median %.4g  q3 %.4g (IQR %.4g)", q(0.25), q(0.5), q(0.75), q(0.75) - q(0.25) }'
}

echo
echo "frames/s    base: $(quartiles 1)"
echo "frames/s    head: $(quartiles 2)"
echo "cpu ms/frame base: $(quartiles 3)"
echo "cpu ms/frame head: $(quartiles 4)"
wins=$(awk '$2 > $1' "$rows" | wc -l)
echo "head won $wins of $pairs pairs on frames/s"
awk '{ print $2 / $1 }' "$rows" | sort -g | awk '
	{ v[NR] = $1 }
	END { m = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
		printf "median frames/s ratio head/base %.3f\n", m }'
if [ "$mismatch" -ne 0 ]; then
	echo "bench_ab: verdict digests differ between base and head" >&2
	exit 1
fi
