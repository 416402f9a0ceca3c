#!/usr/bin/env bash
# Tier-1 verification: everything must build (release, all targets), the
# whole test suite must pass, and clippy must be clean. Run from anywhere.
#
# The workspace builds fully offline — if this script ever tries to touch a
# registry, a crates.io dependency snuck in (see README.md, "Offline build
# constraint") and that is itself the failure.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo fmt --all --check
# Scripts run by hand (not by this gate) must at least parse.
bash -n scripts/perf_ab.sh
bash -n scripts/loc.sh
bash -n scripts/cpu_split.sh
cargo build --release --workspace --all-targets

# Determinism & concurrency contract lint (DESIGN.md §9): hash-ordered
# iteration, wall-clock reads, peer-reachable panics and unannotated lock
# nesting fail here, before the test suite, so contract violations fail fast
# with a file:line diagnostic instead of a flaky test three minutes later.
cargo run --release -p cat-lint -- --workspace

cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# The end-to-end benchmark is a package of its own (perfbench/, outside the
# workspace) compiled against the facade's public API: build and test it,
# and run its selftest (every workload on a tiny trace, untraced and
# traced), so an API change cannot silently break the benchmark.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
python3 perfbench/run.py --selftest

# Quick engine bench as a gate: every row asserts its stats equal the
# `boxed-dyn` row, which dispatches one activation at a time, so on the
# swapt trace this checks that run-level scheme replay (DESIGN.md §3.7)
# matches per-activation dispatch on every engine path (`instance`,
# `stream`, `queue-*`, `fleet-2`, `shards-*`).
REPRO_QUICK=1 cargo bench -p cat-bench --bench engine_throughput >/dev/null
echo "tier-1: quick engine bench OK (every path matches per-activation dispatch)"

# Docs are part of the gate: broken intra-doc links and undocumented public
# items (the engine crates set `warn(missing_docs)`) fail the build.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The examples are part of the public API surface: build them all and run
# the quickstart end to end (also exercised by tests/examples_smoke.rs).
cargo build --release --examples
cargo run --release --quiet --example quickstart >/dev/null

# Huge-geometry smoke (DESIGN.md §10): a 1Mi-bank system with ~1% of the
# banks hot must fit and finish under a 1 GiB virtual-memory ceiling —
# eager dense bank storage would need several GiB, so a regression to
# eager materialization dies on the ulimit, not just on the asserts. Run
# the prebuilt binary in a subshell so the ceiling binds nothing else.
( ulimit -v 1048576; ./target/release/examples/sparse_smoke >/dev/null )
echo "tier-1: sparse 1Mi-bank smoke OK (under 1 GiB ceiling)"

# Loopback ingestion smoke: catd serves a MemorySystem on an ephemeral
# 127.0.0.1 port, the load generator streams a bounded workload slice over
# N producer connections and exits nonzero unless the server's stats
# snapshot is bit-identical to its local replay (DESIGN.md §8). Run at
# 2 producers × 2 shards and again at 4 × 4 so the per-producer lane merge is
# exercised with more lanes than this host may have cores.
CATD_LOG="$(mktemp)"
CATD_PID=""
FLEET_PIDS=""
cleanup_catd() {
    [ -n "$CATD_PID" ] && kill "$CATD_PID" 2>/dev/null || true
    for pid in $FLEET_PIDS; do kill "$pid" 2>/dev/null || true; done
    rm -f "$CATD_LOG"
}
trap cleanup_catd EXIT
# Prints the address a server logged as "<tag>: listening on <addr>",
# polling its log for up to 10 s; fails (exit 1, the log on stderr) if it
# never appears. Call it in a command substitution.
scrape_listen_addr() { # <log> <tag: catd|catd_router>
    local addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n "s/^$2: listening on //p" "$1")"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "$2 never reported its address" >&2; cat "$1" >&2; exit 1; }
    printf '%s' "$addr"
}
run_catd_smoke() {
    local producers="$1" shards="$2"
    : >"$CATD_LOG"
    # drcat:64:11:2048: a threshold low enough that the scheme actually
    # fires on a 200k-access slice, so the bit-identical check covers
    # refresh accounting, not just activation counts.
    ./target/release/examples/catd 127.0.0.1:0 drcat:64:11:2048 \
        "$producers" 50000 "$shards" >"$CATD_LOG" &
    CATD_PID=$!
    local addr
    addr="$(scrape_listen_addr "$CATD_LOG" catd)"
    ./target/release/examples/catd_loadgen "$addr" swapt 200000 "$producers"
    wait "$CATD_PID"
    CATD_PID=""
    grep -q "session done" "$CATD_LOG" || { echo "catd did not finish cleanly"; cat "$CATD_LOG"; exit 1; }
    echo "tier-1: catd loopback smoke OK (${producers} producers × ${shards} shards)"
}
run_catd_smoke 2 2
run_catd_smoke 4 4

# Per-thread CPU split (scripts/cpu_split.sh): a short serve session must
# run end to end, sampling its own catd's threads, and print its total.
CPU_SPLIT="$(scripts/cpu_split.sh serve 200000)"
grep -q '^total ' <<<"$CPU_SPLIT" || {
    echo "cpu_split.sh printed no total line"; echo "$CPU_SPLIT"; exit 1; }
echo "tier-1: cpu_split smoke OK"

# Kill-and-resume smoke (DESIGN.md §11): session 1 checkpoints into a
# directory and ends after 110 000 of 240 000 accesses — past the epoch-50k
# image at 100 000, leaving a 10 000-record trace-log tail. Session 2
# starts with --resume on 4 shards instead of 2, so restore re-carves the
# image onto a different engine layout, must report exactly the
# recovered position, and
# the load generator (skip=110000) verifies the *combined* result
# bit-identically against its local single-process replay of the full
# trace. A broken image, log, or replay fails the scrape or the replay
# comparison.
run_catd_resume_smoke() {
    local ckpt_dir total=240000 first=110000
    ckpt_dir="$(mktemp -d)"
    : >"$CATD_LOG"
    ./target/release/examples/catd 127.0.0.1:0 drcat:64:11:2048 2 50000 2 \
        --checkpoint-dir "$ckpt_dir" >"$CATD_LOG" &
    CATD_PID=$!
    local addr
    addr="$(scrape_listen_addr "$CATD_LOG" catd)"
    ./target/release/examples/catd_loadgen "$addr" swapt "$total" 2 8192 0 "$first"
    wait "$CATD_PID"
    CATD_PID=""

    # Torn-header leg: a crash inside the log rotation that follows the
    # 100 000-access image leaves an empty trace.log beside it. A copy of
    # the directory cut that way must resume at the image, and the load
    # generator (skip=100000) verifies the whole trace bit-identically.
    local torn_dir image=100000
    torn_dir="$(mktemp -d)"
    cp -r "$ckpt_dir/." "$torn_dir"
    : >"$torn_dir/trace.log"
    : >"$CATD_LOG"
    ./target/release/examples/catd 127.0.0.1:0 drcat:64:11:2048 2 50000 2 \
        --checkpoint-dir "$torn_dir" --resume >"$CATD_LOG" &
    CATD_PID=$!
    addr="$(scrape_listen_addr "$CATD_LOG" catd)"
    grep -q "^catd: resumed $image accesses" "$CATD_LOG" || {
        echo "catd did not resume a torn-header log at access $image"; cat "$CATD_LOG"; exit 1; }
    ./target/release/examples/catd_loadgen "$addr" swapt "$total" 2 8192 "$image"
    wait "$CATD_PID"
    CATD_PID=""
    grep -q "session done" "$CATD_LOG" || { echo "catd did not finish cleanly"; cat "$CATD_LOG"; exit 1; }
    rm -rf "$torn_dir"
    echo "tier-1: catd torn-header resume smoke OK (resumed at ${image}/${total})"

    : >"$CATD_LOG"
    ./target/release/examples/catd 127.0.0.1:0 drcat:64:11:2048 2 50000 4 \
        --checkpoint-dir "$ckpt_dir" --resume >"$CATD_LOG" &
    CATD_PID=$!
    addr="$(scrape_listen_addr "$CATD_LOG" catd)"
    grep -q "^catd: resumed $first accesses" "$CATD_LOG" || {
        echo "catd did not resume at access $first"; cat "$CATD_LOG"; exit 1; }
    ./target/release/examples/catd_loadgen "$addr" swapt "$total" 2 8192 "$first"
    wait "$CATD_PID"
    CATD_PID=""
    grep -q "session done" "$CATD_LOG" || { echo "catd did not finish cleanly"; cat "$CATD_LOG"; exit 1; }
    rm -rf "$ckpt_dir"
    echo "tier-1: catd kill-and-resume smoke OK (resumed at ${first}/${total})"
}
run_catd_resume_smoke

# Fleet smoke (DESIGN.md §12): a 2-backend fleet behind catd_router must
# be bit-identical to a single host — including across a fleet-wide
# restart. Session 1: two sliced clockless backends (each checkpointing
# into its own directory) behind a router that owns the epoch-50k clock;
# the load generator streams 110 000 of a 240 000-access trace and every
# process exits cleanly at that cut-aligned session boundary, publishing
# final images. Session 2: both backends --resume from their own
# directories, a fresh router re-phases the fleet clock from their
# advertised positions, and the load generator (skip=110000) verifies the
# combined fleet result bit-identically against its local single-process
# replay of the full trace on the union geometry.
run_fleet_smoke() {
    local total=240000 first=110000 epoch=50000
    local dir0 dir1 b0log b1log rlog
    dir0="$(mktemp -d)"; dir1="$(mktemp -d)"
    b0log="$(mktemp)"; b1log="$(mktemp)"; rlog="$(mktemp)"

    fleet_session() { # <skip> <send> <backend-resume-flag or empty>
        local skip="$1" send="$2" resume="$3"
        local a0 a1 raddr pid0 pid1 rpid
        : >"$b0log"; : >"$b1log"; : >"$rlog"
        # Sliced backends run clockless (epoch positional 0): the router
        # owns the fleet clock and streams EpochCut frames instead.
        # shellcheck disable=SC2086
        ./target/release/examples/catd 127.0.0.1:0 drcat:64:11:2048 1 0 2 \
            --slice 0/2 --checkpoint-dir "$dir0" $resume >"$b0log" &
        pid0=$!
        # shellcheck disable=SC2086
        ./target/release/examples/catd 127.0.0.1:0 drcat:64:11:2048 1 0 2 \
            --slice 1/2 --checkpoint-dir "$dir1" $resume >"$b1log" &
        pid1=$!
        FLEET_PIDS="$pid0 $pid1"
        a0="$(scrape_listen_addr "$b0log" catd)"
        a1="$(scrape_listen_addr "$b1log" catd)"
        ./target/release/examples/catd_router 127.0.0.1:0 2 "$epoch" "$a0" "$a1" >"$rlog" &
        rpid=$!
        FLEET_PIDS="$pid0 $pid1 $rpid"
        raddr="$(scrape_listen_addr "$rlog" catd_router)"
        ./target/release/examples/catd_loadgen "$raddr" swapt "$total" 2 8192 "$skip" "$send"
        wait "$rpid"
        wait "$pid0"
        wait "$pid1"
        FLEET_PIDS=""
        grep -q "session done" "$rlog" || { echo "catd_router did not finish cleanly"; cat "$rlog"; exit 1; }
        grep -q "session done" "$b0log" || { echo "backend 0/2 did not finish cleanly"; cat "$b0log"; exit 1; }
        grep -q "session done" "$b1log" || { echo "backend 1/2 did not finish cleanly"; cat "$b1log"; exit 1; }
    }

    fleet_session 0 "$first" ""
    fleet_session "$first" $((total - first)) --resume
    # Each backend recovered its scatter split of the stream, so the two
    # resume positions must sum to the fleet position the fresh router
    # re-phased its clock from.
    local r0 r1
    r0="$(sed -n 's/^catd: resumed \([0-9]*\) accesses.*/\1/p' "$b0log")"
    r1="$(sed -n 's/^catd: resumed \([0-9]*\) accesses.*/\1/p' "$b1log")"
    { [ -n "$r0" ] && [ -n "$r1" ]; } || {
        echo "a backend did not report a resume position"; cat "$b0log" "$b1log"; exit 1; }
    [ $((r0 + r1)) -eq "$first" ] || {
        echo "backend resume positions $r0 + $r1 != fleet position $first"
        cat "$b0log" "$b1log"; exit 1; }
    rm -rf "$dir0" "$dir1"
    rm -f "$b0log" "$b1log" "$rlog"
    echo "tier-1: catd fleet smoke OK (2 sliced backends, fleet resumed at ${first}/${total})"
}
run_fleet_smoke

echo "tier-1: OK"
