#!/usr/bin/env sh
# Runs the perf-trajectory benchmarks, refreshes BENCH_softlora.json (the
# current snapshot) and appends a commit-labelled copy to BENCH_history.jsonl
# so the trajectory survives across PRs instead of being overwritten.
# Override the measurement window with BENCHTIME=3s scripts/bench.sh.
set -eu
cd "$(dirname "$0")/.."

OUT=BENCH_softlora.json
HIST=BENCH_history.jsonl
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

go test -run '^$' \
	-bench 'BenchmarkFFTPlan|BenchmarkDechirpOnset$|BenchmarkGatewayBatchThroughput|BenchmarkGatewayBatchScaling|BenchmarkFBDechirpFFT(Exhaustive)?$|BenchmarkFBLinearRegression$|BenchmarkOnsetAIC$|BenchmarkChirpSynthesize|BenchmarkSDRDownconvert|BenchmarkNetworkServerCheck(Windowed)?$|BenchmarkSnapshotRoundTrip$' \
	-benchmem -benchtime "${BENCHTIME:-1s}" . | tee "$TMP"

# The B/op and allocs/op columns only exist under -benchmem; locate them by
# their unit tokens instead of fixed positions so the parser tolerates both
# layouts (and any extra metrics a benchmark reports).
awk '
BEGIN { print "{"; first = 1 }
/^Benchmark/ {
	if (!first) printf(",\n")
	first = 0
	printf("  \"%s\": {\"iters\": %s, \"ns_per_op\": %s", $1, $2, $3)
	for (i = 4; i <= NF; i++) {
		if ($i == "B/op") printf(", \"bytes_per_op\": %s", $(i - 1))
		if ($i == "allocs/op") printf(", \"allocs_per_op\": %s", $(i - 1))
	}
	printf("}")
}
END { print "\n}" }
' "$TMP" > "$OUT"

rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
# Catch unstaged, staged AND untracked changes: a snapshot from a dirty tree
# must not be recorded against the clean commit it happens to sit on.
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	rev="$rev-dirty"
fi
# Record the host fingerprint: ns/op from different GOMAXPROCS, CPU models
# or Go toolchains are not comparable, so bench_check.sh only diffs
# snapshots whose gomaxprocs, cpu_model and go_version all match. Quotes and
# backslashes are dropped so the strings stay valid JSON.
cpus=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
cpu_model=$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo 2>/dev/null | head -n 1 | tr -d '"\\')
go_version=$(go env GOVERSION 2>/dev/null | tr -d '"\\')
{
	printf '{"rev": "%s", "date": "%s", "benchtime": "%s", "gomaxprocs": %s, "cpus": %s, "cpu_model": "%s", "go_version": "%s", "results": ' \
		"$rev" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "${BENCHTIME:-1s}" \
		"${GOMAXPROCS:-$cpus}" "$cpus" "${cpu_model:-unknown}" "${go_version:-unknown}"
	tr '\n' ' ' < "$OUT" | sed 's/ \{2,\}/ /g; s/ $//'
	printf '}\n'
} >> "$HIST"

echo "wrote $OUT and appended rev $rev to $HIST"
