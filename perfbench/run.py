#!/usr/bin/env python3
"""Build and run the end-to-end catd benchmark.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first form builds the release `catd` and `catd_router` examples and the
`perfbench` package (into $CARGO_TARGET_DIR, `.bench_build` by default), then
runs one workload; the last stdout line is the JSON result. `--selftest`
runs every workload on a tiny trace, untraced and traced, and checks that
every metric named in BENCHMARK.json prints with its unit and that no
session failed.

The benchmark runs in its own process group, which is killed when it exits
or when this script is interrupted, so no server outlives a run.
"""

import json
import math
import os
import shutil
import signal
import subprocess
import sys

OUT_DIR = ".perfbench"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(3)


def cargo_executables(args):
    """Runs `cargo build` with JSON messages and returns {target name: path}."""
    cmd = ["cargo", "build", "--release", "--offline",
           "--message-format=json-render-diagnostics"] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")
    found = {}
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            found[msg["target"]["name"]] = msg["executable"]
    return found


def build():
    """Builds the servers and the benchmark; returns their paths."""
    if not (os.path.isfile("Cargo.toml") and os.path.isfile("examples/catd.rs")):
        fail("run me from the root of a repository checkout "
             "(Cargo.toml and examples/catd.rs not found)")
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    servers = cargo_executables(["--example", "catd", "--example", "catd_router"])
    bench = cargo_executables(["--manifest-path", "perfbench/Cargo.toml"])
    try:
        return servers["catd"], servers["catd_router"], bench["perfbench"]
    except KeyError as missing:
        fail(f"build produced no {missing} executable")


def run_bench(argv, capture=False):
    """Runs the benchmark in its own process group; returns (code, stdout)."""
    catd, router, bench = build()
    cmd = [bench] + argv + ["--catd", catd, "--router", router, "--out", OUT_DIR]
    child = subprocess.Popen(cmd, start_new_session=True,
                             stdout=subprocess.PIPE if capture else None, text=True)

    def stop(signum, _frame):
        kill_group(child)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = child.communicate()
    finally:
        kill_group(child)
        shutil.rmtree(os.path.join(OUT_DIR, "work"), ignore_errors=True)
    return child.returncode, out


def kill_group(child):
    """Kills whatever is left of the benchmark's process group and reaps it."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    child.wait()


def selftest():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            argv = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--quick"]
            code, out = run_bench(argv, capture=True)
            lines = out.strip().splitlines()
            where = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                problems.append(f"{where}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{where}: correct={result.get('correct')} "
                                f"failed={result.get('failed')}")
            if not result.get("attempted", 0) >= 1:
                problems.append(f"{where}: nothing attempted")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = result.get("metrics", {})
            if set(got) != set(wanted):
                problems.append(f"{where}: metrics {sorted(got)} != {sorted(wanted)}")
            for name, unit in wanted.items():
                m = got.get(name, {})
                value = m.get("value")
                if m.get("unit") != unit or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {m}")
                if not any(name in l and unit in l for l in lines[:-1]):
                    problems.append(f"{where}: {name} not printed with its unit")
            rates = [l for l in lines if "error_rate" in l]
            if not rates or " 0.000000 " not in rates[0]:
                problems.append(f"{where}: error_rate line {rates}")
            print(f"selftest: {where}: ok ({len(got)} metrics)")
    if problems:
        for p in problems:
            print(f"selftest: FAIL {p}", file=sys.stderr)
        sys.exit(1)
    print("selftest: OK")


def main():
    if sys.argv[1:] == ["--selftest"]:
        selftest()
        return
    code, _ = run_bench(sys.argv[1:])
    sys.exit(code)


if __name__ == "__main__":
    main()
