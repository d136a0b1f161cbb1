#!/usr/bin/env sh
# Compares the two most recent BENCH_history.jsonl snapshots — normally the
# previous PR's entry vs the one scripts/bench.sh appended for the current
# change, both measured on the same box — and fails when a guarded
# benchmark regressed by more than the threshold in ns/op. Guarded:
# BenchmarkDechirpOnset, BenchmarkFFTPlan/planned-*,
# BenchmarkGatewayBatchThroughput/workers-1, BenchmarkFBDechirpFFT,
# BenchmarkNetworkServerCheck, BenchmarkNetworkServerCheckWindowed,
# BenchmarkSnapshotRoundTrip.
#
# CI runs this against the committed history (commit-to-commit on the
# snapshot-producing box), NOT against a fresh runner measurement — a
# runner-vs-dev-box diff would measure hardware, not the change. For the
# same reason it only diffs snapshots with the same host fingerprint
# (gomaxprocs, cpu_model, go_version, as scripts/bench.sh records them) and
# skips with a message otherwise.
#
# Usage: scripts/bench_check.sh [history-file]
# Env:   BENCH_REGRESSION_PCT (default 25)
set -eu
cd "$(dirname "$0")/.."

HIST=${1:-BENCH_history.jsonl}
THRESH=${BENCH_REGRESSION_PCT:-25}

if [ ! -f "$HIST" ] || [ "$(wc -l < "$HIST")" -lt 2 ]; then
	echo "bench_check: fewer than two snapshots in $HIST; nothing to compare"
	exit 0
fi

tail -n 2 "$HIST" | awk -v thresh="$THRESH" '
function guarded(name) {
	return name == "BenchmarkDechirpOnset" ||
	       name == "BenchmarkGatewayBatchThroughput/workers-1" ||
	       name == "BenchmarkGatewayBatchScaling/gomaxprocs-1" ||
	       name == "BenchmarkFBDechirpFFT" ||
	       name == "BenchmarkNetworkServerCheck" ||
	       name == "BenchmarkNetworkServerCheckWindowed" ||
	       name == "BenchmarkSnapshotRoundTrip" ||
	       name ~ /^BenchmarkFFTPlan\/planned-/
}
{
	row++
	line = $0
	if (match(line, /"gomaxprocs": [0-9]+/)) {
		gmp[row] = substr(line, RSTART + 14, RLENGTH - 14) + 0
	}
	if (match(line, /"cpu_model": "[^"]*"/)) {
		cpu[row] = substr(line, RSTART + 14, RLENGTH - 15)
	}
	if (match(line, /"go_version": "[^"]*"/)) {
		gover[row] = substr(line, RSTART + 15, RLENGTH - 16)
	}
	while (match(line, /"Benchmark[^"]*": \{"iters": [0-9]+, "ns_per_op": [0-9.eE+-]+/)) {
		entry = substr(line, RSTART, RLENGTH)
		line = substr(line, RSTART + RLENGTH)
		name = entry
		sub(/^"/, "", name)
		sub(/".*/, "", name)
		# go test appends -GOMAXPROCS to every name when it exceeds 1;
		# drop it so the guarded names match at any core count.
		if (gmp[row] > 1) sub("-" gmp[row] "$", "", name)
		sub(/.*"ns_per_op": /, "", entry)
		ns[row, name] = entry + 0
		names[name] = 1
	}
}
END {
	if (row < 2) { print "bench_check: malformed history"; exit 1 }
	# ns/op measured at different core counts are not comparable (the
	# worker-pool benches scale with GOMAXPROCS); only diff matching
	# snapshots. Entries predating the field count as matching.
	if (gmp[1] != "" && gmp[2] != "" && gmp[1] != gmp[2]) {
		printf "bench_check: snapshots from different core counts (gomaxprocs %d vs %d); skipping\n", gmp[1], gmp[2]
		exit 0
	}
	# Nor are ns/op from different CPU models or Go toolchains. A snapshot
	# predating these fields reads as "" and so differs from one that has
	# them: an unknown host is not the same host.
	if (cpu[1] != cpu[2]) {
		printf "bench_check: snapshots from different CPU models (\"%s\" vs \"%s\"); skipping\n", cpu[1], cpu[2]
		exit 0
	}
	if (gover[1] != gover[2]) {
		printf "bench_check: snapshots from different Go versions (\"%s\" vs \"%s\"); skipping\n", gover[1], gover[2]
		exit 0
	}
	bad = 0
	checked = 0
	for (name in names) {
		if (!guarded(name)) continue
		old = ns[1, name]; new = ns[2, name]
		# A guarded benchmark present in only one snapshot (just added,
		# renamed, or retired) has no pair to diff: note it and move on
		# rather than erroring or comparing against zero.
		if (old <= 0 && new > 0) {
			printf "%-55s only in newer snapshot; skipping (no baseline yet)\n", name
			continue
		}
		if (old > 0 && new <= 0) {
			printf "%-55s only in older snapshot; skipping (absent from newer)\n", name
			continue
		}
		if (old <= 0 || new <= 0) continue
		checked++
		pct = (new - old) / old * 100
		printf "%-55s %12.0f -> %12.0f ns/op (%+6.1f%%)\n", name, old, new, pct
		if (pct > thresh) {
			printf "  ^ REGRESSION beyond %s%% threshold\n", thresh
			bad = 1
		}
	}
	if (checked == 0) { print "bench_check: no guarded benchmarks found in snapshots"; exit 1 }
	exit bad
}'
