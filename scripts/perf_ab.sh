#!/usr/bin/env bash
# A/B the end-to-end benchmark: a base revision against the working tree,
# under BENCHMARK.json's protocol.
#
#   scripts/perf_ab.sh <rev> <workload> <pairs> <first-seed>
#
# Builds <rev> from `git archive` in a temporary directory, then runs
# `perfbench/run.py --workload <workload> --trace 0` for BENCHMARK.json's
# `run_seconds` on each side, <pairs> times. Pair k uses seed
# <first-seed> + k on both sides, and the order alternates: even pairs run
# <rev> first, odd pairs the working tree first. Each side runs the
# benchmark of its own checkout and builds into its own `.bench_build`.
#
# Prints every pair's end-to-end metrics, each side's median and
# quartiles, and per metric how many pairs the working tree won (was
# strictly better in BENCHMARK.json's direction). A claim holds when the
# working tree wins at least 9 of every 10 pairs and the medians differ
# by more than the base's interquartile range. A run that reports a
# failed session or an incorrect result fails the script.
#
# Reads perfbench/ and BENCHMARK.json, never writes them. Set TMPDIR to
# choose where the base checkout and its build go; it is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 4 ]; then
    echo "usage: $0 <rev> <workload> <pairs> <first-seed>" >&2
    exit 2
fi
REV="$1" WORKLOAD="$2" PAIRS="$3" FIRST_SEED="$4"
case "$PAIRS$FIRST_SEED" in
    *[!0-9]*) echo "perf_ab: <pairs> and <first-seed> are integers" >&2; exit 2 ;;
esac
[ "$PAIRS" -ge 1 ] || { echo "perf_ab: at least one pair" >&2; exit 2; }

export CARGO_NET_OFFLINE=true
unset CARGO_TARGET_DIR # each side builds into its own .bench_build
SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
BASE="$WORK/base"
mkdir "$BASE" "$WORK/results"
git archive "$REV" | tar -x -C "$BASE"
HEAD_DIR="$PWD"
echo "perf_ab: $REV vs working tree, $WORKLOAD, $PAIRS pair(s) of ${SECONDS_PER_RUN} s, seeds from $FIRST_SEED"

# run_side <side> <dir> <seed>: one benchmark run; its JSON result line
# goes to $WORK/results/<side>.<seed>.json, the rest of its output to a log.
run_side() {
    local side="$1" dir="$2" seed="$3"
    local out="$WORK/results/$side.$seed"
    if ! (cd "$dir" && python3 perfbench/run.py --workload "$WORKLOAD" --seed "$seed" \
        --seconds "$SECONDS_PER_RUN" --trace 0) >"$out.log" 2>&1; then
        echo "perf_ab: $side run with seed $seed failed:" >&2
        tail -20 "$out.log" >&2
        exit 1
    fi
    tail -1 "$out.log" >"$out.json"
}

for ((k = 0; k < PAIRS; k++)); do
    seed=$((FIRST_SEED + k))
    if ((k % 2 == 0)); then
        run_side base "$BASE" "$seed"
        run_side head "$HEAD_DIR" "$seed"
    else
        run_side head "$HEAD_DIR" "$seed"
        run_side base "$BASE" "$seed"
    fi
    echo "perf_ab: pair $((k + 1))/$PAIRS (seed $seed) done"
done

python3 - "$WORK/results" "$FIRST_SEED" "$PAIRS" "$REV" <<'EOF'
import json
import statistics
import sys

results, first, pairs, rev = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
spec = json.load(open("BENCHMARK.json"))
seeds = range(first, first + pairs)


def load(side, seed):
    r = json.load(open(f"{results}/{side}.{seed}.json"))
    if not r.get("correct") or r.get("failed", 1) != 0:
        sys.exit(f"perf_ab: {side} seed {seed}: correct={r.get('correct')} "
                 f"failed={r.get('failed')}")
    return {name: m["value"] for name, m in r["metrics"].items()}


runs = {side: [load(side, s) for s in seeds] for side in ("base", "head")}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"\nper pair: {rev} / working tree")
for m in spec["end_to_end"]:
    name, unit = m["name"], m["unit"]
    base = [r[name] for r in runs["base"]]
    head = [r[name] for r in runs["head"]]
    pairs_text = "  ".join(f"{b:.4g}/{h:.4g}" for b, h in zip(base, head))
    print(f"  {name} ({unit}): {pairs_text}")
print("\nsummary (median [q1, q3]):")
for m in spec["end_to_end"]:
    name, better, bound = m["name"], m["better"], m["bound"]
    base = [r[name] for r in runs["base"]]
    head = [r[name] for r in runs["head"]]
    bq, hq = quartiles(base), quartiles(head)
    wins = sum((h > b) if better == "higher" else (h < b) for b, h in zip(base, head))
    gap = hq[1] - bq[1]
    iqr = bq[2] - bq[0]
    change = gap / bq[1] if bq[1] else 0.0
    worse = -change if better == "higher" else change
    resolved = abs(gap) > iqr
    verdict = "resolved" if resolved else "within the base IQR"
    if worse > bound:
        verdict += f", WORSE than the {bound:.0%} bound"
    print(f"  {name}: base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]  "
          f"head {hq[1]:.4g} [{hq[0]:.4g}, {hq[2]:.4g}]  "
          f"{change:+.1%}  head wins {wins}/{pairs}  ({verdict})")
EOF
