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
#
# The delta table prints each row's old and new median with its
# [min, max] over the runs ("-" for JSON written before those fields
# existed). Rows whose two ranges overlap read `unresolved` instead of a
# signed %: the runs cannot order the two sides.
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
        # A numeric field of the current row, "" if the row has none.
        function num(name,   m) {
            if (!match($0, "\"" name "\": [0-9]+")) return ""
            m = substr($0, RSTART, RLENGTH); sub(/.*: /, "", m)
            return m
        }
        # A rate in M acts/s, then its [min, max] or "-" without one.
        function show(key, rate, lo, hi) {
            return sprintf("%8.2f %-17s", rate[key] / 1e6, \
                (key in lo) ? sprintf("[%.2f, %.2f]", lo[key] / 1e6, hi[key] / 1e6) : "-")
        }
        # Result rows look like:
        #   {"scheme": "PRCAT_64", "path": "shards-4", "acts_per_sec": NNN,
        #    "acts_per_sec_min": NNN, "acts_per_sec_max": NNN, ...
        # (JSON written before the min/max fields existed lacks them.)
        /"scheme":/ {
            key = $4 "|" $8
            rate = num("acts_per_sec"); lo = num("acts_per_sec_min"); hi = num("acts_per_sec_max")
            if (FILENAME == ARGV[1]) {
                old[key] = rate + 0
                if (lo != "" && hi != "") { old_lo[key] = lo + 0; old_hi[key] = hi + 0 }
            } else {
                new[key] = rate + 0
                if (lo != "" && hi != "") { new_lo[key] = lo + 0; new_hi[key] = hi + 0 }
                if (!(key in order)) { order[key] = ++n; keys[n] = key }
            }
        }
        END {
            printf "  %-12s %-18s %-26s %-26s %11s\n", "scheme", "path", \
                "old M acts/s [min, max]", "new M acts/s [min, max]", "delta"
            for (i = 1; i <= n; i++) {
                key = keys[i]
                split(key, kp, "|")
                if (key in old && old[key] > 0) {
                    # Overlapping run ranges cannot order the two sides.
                    if ((key in old_lo) && (key in new_lo) && \
                        old_lo[key] <= new_hi[key] && new_lo[key] <= old_hi[key]) {
                        d = "unresolved"
                    } else {
                        d = sprintf("%+.1f%%", (new[key] / old[key] - 1) * 100)
                    }
                    printf "  %-12s %-18s %s %s %11s\n", kp[1], kp[2], \
                        show(key, old, old_lo, old_hi), show(key, new, new_lo, new_hi), d
                } else {
                    printf "  %-12s %-18s %-26s %s %11s\n", kp[1], kp[2], "-", \
                        show(key, new, new_lo, new_hi), "(new)"
                }
            }
            for (key in old) {
                if (!(key in new)) {
                    split(key, kp, "|")
                    printf "  %-12s %-18s %s %-26s %11s\n", kp[1], kp[2], \
                        show(key, old, old_lo, old_hi), "-", "(gone)"
                }
            }
        }
    ' "$OLD_JSON" BENCH_engine.json
else
    echo "bench: no committed BENCH_engine.json at HEAD, skipping delta table"
fi
