#!/usr/bin/env bash
# Perf trajectory: run the engine throughput bench, record the numbers in
# BENCH_engine.json at the repo root (committed, so regressions show in
# review), and print a per-scheme/path delta table against the numbers
# committed at HEAD.
#
# Every row is the MEDIAN of 3 independent runs (each itself best-of-3
# replays over identical work — the bench asserts the replays produce
# bit-identical stats), so a single scheduling hiccup cannot skew a
# committed number. Override the run count with BENCH_RUNS=N; pass
# REPRO_QUICK=1 for a fast single-run smoke — but commit numbers from a
# full (median-of-3) run only.
#
# The JSON opens with a `host` block (cores, rustc, git rev, runs, quick
# flag). Rates from another host are not comparable, so when the
# committed block's cores or rustc differ from this run's, the script
# prints a host-mismatch warning instead of the delta table.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

OLD_JSON="$(mktemp)"
trap 'rm -f "$OLD_JSON"' EXIT
HAVE_OLD=0
if git show HEAD:BENCH_engine.json >"$OLD_JSON" 2>/dev/null; then
    HAVE_OLD=1
fi

BENCH_RUSTC="$(rustc --version)" \
BENCH_GIT_REV="$(git describe --always --dirty 2>/dev/null || echo unknown)" \
BENCH_ENGINE_JSON="$PWD/BENCH_engine.json" \
    cargo bench -p cat-bench --bench engine_throughput

echo "bench: wrote BENCH_engine.json"

# The host identity of a JSON file: its cores and rustc fields.
host_of() {
    local host
    host="$(grep -o '"host": {[^}]*}' "$1" |
        sed -n 's/.*"cores": \([0-9]*\).*"rustc": "\([^"]*\)".*/\1 cores, \2/p')" || true
    echo "${host:-no host block}"
}

if [ "$HAVE_OLD" = 1 ] && [ "$(host_of "$OLD_JSON")" != "$(host_of BENCH_engine.json)" ]; then
    echo
    echo "bench: WARNING: host mismatch, no delta table. Committed numbers come from"
    echo "  [$(host_of "$OLD_JSON")], this run from [$(host_of BENCH_engine.json)];"
    echo "  rates from different hosts are not comparable."
elif [ "$HAVE_OLD" = 1 ]; then
    echo
    echo "delta vs committed BENCH_engine.json (HEAD):"
    awk -F'"' '
        # Result rows look like:
        #   {"scheme": "PRCAT_64", "path": "shards-4", "acts_per_sec": NNN, ...
        /"scheme":/ {
            scheme = $4; path = $8
            # acts_per_sec is the unquoted run after the 5th quoted token:
            # {"scheme": "X", "path": "Y", "acts_per_sec": NNN, ...
            rate = $11; sub(/^[^0-9]*/, "", rate); sub(/[^0-9].*$/, "", rate)
            key = scheme "|" path
            if (FILENAME == ARGV[1]) {
                old[key] = rate
            } else {
                new[key] = rate
                if (!(key in order)) { order[key] = ++n; keys[n] = key }
            }
        }
        END {
            printf "  %-12s %-18s %14s %14s %9s\n", \
                "scheme", "path", "old acts/s", "new acts/s", "delta"
            for (i = 1; i <= n; i++) {
                key = keys[i]
                split(key, kp, "|")
                if (key in old && old[key] > 0) {
                    d = (new[key] / old[key] - 1) * 100
                    printf "  %-12s %-18s %14d %14d %+8.1f%%\n", \
                        kp[1], kp[2], old[key], new[key], d
                } else {
                    printf "  %-12s %-18s %14s %14d %9s\n", \
                        kp[1], kp[2], "-", new[key], "(new)"
                }
            }
            for (key in old) {
                if (!(key in new)) {
                    split(key, kp, "|")
                    printf "  %-12s %-18s %14d %14s %9s\n", \
                        kp[1], kp[2], old[key], "-", "(gone)"
                }
            }
        }
    ' "$OLD_JSON" BENCH_engine.json
else
    echo "bench: no committed BENCH_engine.json at HEAD, skipping delta table"
fi
