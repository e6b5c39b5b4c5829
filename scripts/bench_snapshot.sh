#!/bin/sh
# Captures the top-level benchmark suite (one benchmark per experiment,
# E1-E17 / A1-A4, E18 being retired, plus the worker sweeps and the
# per-layer ScheduleAll/Session/Engine benchmarks) as a compact JSON
# snapshot so future PRs can track the perf trajectory.
#
# Usage: scripts/bench_snapshot.sh [out.json | label] [benchtime] [bench-regex] [count]
#
# The first argument is either a full output path (anything ending in
# .json) or a bare label: `scripts/bench_snapshot.sh pr3` writes
# BENCH_pr3.json. The optional third argument restricts which benchmarks
# run (default all), e.g. 'E2|E3|E4|A3' for the multicore worker sweep.
# The optional fourth argument is passed to go test as -count (default
# 1): every benchmark then runs that many times and its entry records
# the median ns/op, B/op and allocs/op ("ns_per_op" and friends, so
# readers of single-run snapshots keep working), the ns/op min and max,
# and the run count. Compare two snapshots with scripts/bench_diff.sh.
#
# Each snapshot records the environment it was captured in (GOMAXPROCS,
# CPU count, go version, host label) because numbers from different
# machines or core counts are not comparable — the worker-sweep
# benchmarks in particular are meaningless to diff across CPU budgets,
# and bench_diff.sh warns loudly on a mismatch. Benchmark names are
# normalized by stripping go's -GOMAXPROCS suffix (Benchmark...-8) so
# the same benchmark lines up across environments.
set -eu
out="${1:-BENCH_baseline.json}"
case "$out" in
*.json) ;;
*) out="BENCH_${out}.json" ;;
esac
benchtime="${2:-3x}"
benchre="${3:-.}"
count="${4:-1}"

go_version="$(go env GOVERSION)"
goos="$(go env GOOS)"
goarch="$(go env GOARCH)"
num_cpu="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
gomaxprocs="${GOMAXPROCS:-$num_cpu}"
host_label="${BENCH_HOST_LABEL:-$(uname -n)}"

go test -run '^$' -bench "$benchre" -benchtime "$benchtime" -count "$count" . | tee /dev/stderr | awk \
    -v benchtime="$benchtime" -v go_version="$go_version" \
    -v goos="$goos" -v goarch="$goarch" -v num_cpu="$num_cpu" \
    -v gomaxprocs="$gomaxprocs" -v host_label="$host_label" '
# median sorts the n values held in v[name, 1..n] (insertion sort; n is
# the -count) into s[1..n] and returns the middle one (the mean of the
# two middle ones for even n).
function median(v, name, n, s,    i, j, x) {
    for (i = 1; i <= n; i++) {
        x = v[name, i]
        for (j = i - 1; j >= 1 && s[j] > x; j--)
            s[j + 1] = s[j]
        s[j + 1] = x
    }
    if (n % 2)
        return s[(n + 1) / 2]
    return (s[n / 2] + s[n / 2 + 1]) / 2
}
# num formats a JSON number: integral values without a fraction (go
# prints whole ns/op past 100 ns), others to two places.
function num(x) {
    return x == int(x) ? sprintf("%.0f", x) : sprintf("%.2f", x)
}
/^Benchmark/ {
    name = $1; ns = 0; bytes = 0; allocs = 0
    sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix go appends
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns     = $(i-1)
        if ($i == "B/op")      bytes  = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (!(name in runs))
        order[++n] = name
    k = ++runs[name]
    nsv[name, k] = ns + 0; bv[name, k] = bytes + 0; av[name, k] = allocs + 0
}
END {
    printf "{\n  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"env\": {\"go\": \"%s\", \"os_arch\": \"%s/%s\", \"num_cpu\": %s, \"gomaxprocs\": %s, \"host\": \"%s\"},\n", \
        go_version, goos, goarch, num_cpu, gomaxprocs, host_label
    printf "  \"benchmarks\": ["
    sep = ""
    for (i = 1; i <= n; i++) {
        name = order[i]; k = runs[name]
        ns = median(nsv, name, k, sorted)
        lo = sorted[1]; hi = sorted[k]
        bytes = median(bv, name, k, sorted)
        allocs = median(av, name, k, sorted)
        printf "%s\n    {\"name\": \"%s\", \"runs\": %d, \"ns_per_op\": %s, \"ns_min\": %s, \"ns_max\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
            sep, name, k, num(ns), num(lo), num(hi), num(bytes), num(allocs)
        sep = ","
    }
    printf "\n  ]\n}\n"
}
' > "$out"
echo "wrote $out"
