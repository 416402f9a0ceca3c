//! `perfbench` — the end-to-end `catd` benchmark.
//!
//! One invocation runs one workload (`serve` or `fleet`, see
//! `README.md`) against the real release `catd`/`catd_router` binaries over
//! loopback, verifies every session bit for bit against a local
//! `MemorySystem` replay of the same trace, and prints every metric by name
//! with its unit, median and sample count. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`).
//!
//! ```text
//! perfbench --workload serve --seed 1 --seconds 10 --trace 0 \
//!           --catd <path> --router <path> [--out .perfbench] [--quick]
//! ```
//!
//! `perfbench/run.py` builds the binaries and passes their paths; run the
//! benchmark through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod e2e;
mod layers;
mod procs;
mod spans;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use clock::Stamp;
use e2e::{Binaries, DirGuard, Sample, Session};
use layers::Layers;
use spans::Tracer;
use workload::{Kind, Workload};

/// Sessions a run measures at least, however short `--seconds` is.
const MIN_SESSIONS: usize = 3;
/// A run starts no new session after this many seconds, so it ends well
/// inside the 180 s a run may take.
const SESSION_BUDGET_S: f64 = 100.0;
/// Untraced/traced session pairs of a traced run (the tracing overhead) at
/// least; more run for the first third of `--seconds`.
const TRACED_PAIRS: usize = 2;
/// Per-layer rounds of a traced run at most.
const MAX_ROUNDS: usize = 5;

/// The end-to-end metrics, in output order: name, unit, what it is.
const E2E: [(&str, &str, &str); 4] = [
    (
        "throughput_macc_s",
        "Macc/s",
        "accesses streamed / session wall time (first frame to last verified snapshot)",
    ),
    (
        "setup_s",
        "s",
        "spawning the server(s) until every listener is bound",
    ),
    (
        "server_cpu_ms_per_macc",
        "ms/Macc",
        "user+sys CPU of every server process per million accesses",
    ),
    (
        "server_peak_rss_mib",
        "MiB",
        "peak resident memory of the servers, summed across a fleet",
    ),
];

/// The per-layer metrics of a traced run, in output order: name, unit, and
/// the end-to-end metric (and workload) it should move.
const PER_LAYER: [(&str, &str, &str); 29] = [
    (
        "wire.encode_ns_per_rec",
        "ns/rec",
        "throughput on all (fleet: two hops)",
    ),
    (
        "wire.decode_ns_per_rec",
        "ns/rec",
        "throughput on all (fleet: two hops)",
    ),
    ("ingest.merge_ns_per_rec", "ns/rec", "throughput on all"),
    ("ingest.batches", "count", "throughput on all"),
    (
        "system.batch_ns_per_acc",
        "ns/acc",
        "throughput, server CPU on all",
    ),
    (
        "system.bulk_ns_per_acc",
        "ns/acc",
        "throughput, server CPU on all",
    ),
    (
        "system.batch_overhead_ns_per_acc",
        "ns/acc",
        "throughput, server CPU on all",
    ),
    (
        "system.self_ns_per_acc",
        "ns/acc",
        "throughput, server CPU on all",
    ),
    ("engine.ns_per_act", "ns/act", "throughput on all"),
    ("engine.self_ns_per_act", "ns/act", "throughput on all"),
    ("core.scheme_ns_per_act", "ns/act", "throughput on all"),
    ("scheme.refresh_events", "count", "throughput on all"),
    ("scheme.splits", "count", "throughput on all"),
    ("scheme.sram_reads", "count", "throughput on all"),
    (
        "checkpoint.encode_ms",
        "ms",
        "a checkpointed catd only: no workload",
    ),
    (
        "checkpoint.restore_ms",
        "ms",
        "a checkpointed catd only: no workload",
    ),
    (
        "checkpoint.image_bytes",
        "bytes",
        "a checkpointed catd only: no workload",
    ),
    (
        "checkpoint.resume_s",
        "s",
        "a checkpointed catd only: no workload",
    ),
    (
        "checkpoint.replay_ns_per_rec",
        "ns/rec",
        "a checkpointed catd only: no workload",
    ),
    (
        "checkpoint.wal_overhead_ns_per_acc",
        "ns/acc",
        "a checkpointed catd only: no workload",
    ),
    (
        "checkpoint.wal_syncs",
        "count",
        "a checkpointed catd only: no workload",
    ),
    (
        "checkpoint.publishes",
        "count",
        "a checkpointed catd only: no workload",
    ),
    ("router.scatter_ns_per_rec", "ns/rec", "throughput on fleet"),
    ("router.merge_ms", "ms", "throughput on fleet"),
    ("address.route_ns_per_rec", "ns/rec", "throughput on fleet"),
    ("e2e.ns_per_acc", "ns/acc", "1e3 / throughput_macc_s"),
    (
        "residual_ns_per_acc",
        "ns/acc",
        "e2e minus the blocking-path self costs",
    ),
    (
        "trace.overhead_ns_per_acc",
        "ns/acc",
        "traced minus untraced e2e",
    ),
    ("trace.spans", "count", "spans written by the traced run"),
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bins: Binaries,
    out: PathBuf,
    quick: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut flags: BTreeMap<String, String> = BTreeMap::new();
        let mut quick = false;
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--workload" | "--seed" | "--seconds" | "--trace" | "--catd" | "--router"
                | "--out" => {
                    let value = it.next().ok_or(format!("{arg} needs a value"))?;
                    flags.insert(arg[2..].to_string(), value);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let mut need = |key: &str| flags.remove(key).ok_or(format!("--{key} is required"));
        let workload = need("workload")?;
        let seed = need("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = need("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        let trace = match need("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        let bins = Binaries {
            catd: need("catd")?.into(),
            router: need("router")?.into(),
        };
        let out = flags.remove("out").unwrap_or(".perfbench".into()).into();
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            bins,
            out,
            quick,
        })
    }
}

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Runs the benchmark; returns the exit code (nonzero once any session or
/// check failed — the result line is still printed).
fn run() -> Result<i32, String> {
    let args = Args::parse()?;
    let w = Workload::by_name(&args.workload, args.quick).ok_or(format!(
        "unknown workload {:?} (serve, fleet)",
        args.workload
    ))?;
    for bin in [&args.bins.catd, &args.bins.router] {
        if !bin.is_file() {
            return Err(format!("{} is not a file", bin.display()));
        }
    }
    println!(
        "host: nproc={} rustc={:?} git_rev={} workload={} seed={} seconds={} trace={} quick={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick
    );

    let start = Stamp::now();
    let trace = w.trace(args.seed);
    let expected = w.expected(&trace);
    println!(
        "trace: {} accesses of swapt (epoch {}, split {}), generated and replayed locally in {:.2} s",
        trace.len(),
        w.epoch,
        w.split,
        start.elapsed_s()
    );

    let work = args
        .out
        .join("work")
        .join(format!("{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let _work = DirGuard(work.clone());
    let session = Session {
        workload: &w,
        bins: &args.bins,
        trace: &trace,
        expected: &expected,
    };
    let result = if args.trace {
        traced(&args, &w, &session, &work)
    } else {
        untraced(&args, &w, &session)
    };
    println!("{}", result.json);
    Ok(if result.correct { 0 } else { 1 })
}

/// The first line a command prints, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// A finished run: whether everything verified, and its result line.
struct Outcome {
    correct: bool,
    json: String,
}

/// Tallies attempted and failed sessions.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Quartiles and median as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) computes them for three or more values.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Million accesses streamed over `samples`.
fn pooled_macc(samples: &[Sample]) -> f64 {
    samples.iter().map(|s| s.accesses).sum::<u64>() as f64 / 1e6
}

/// Accesses streamed over `samples` per second of their summed wall time,
/// in millions.
fn pooled_macc_s(samples: &[Sample]) -> f64 {
    pooled_macc(samples) / samples.iter().map(|s| s.wall_s).sum::<f64>()
}

fn sample_metrics(s: &Sample) -> [f64; 4] {
    let macc = s.accesses as f64 / 1e6;
    [
        macc / s.wall_s,
        s.setup_s,
        s.cpu_s * 1e3 / macc,
        s.peak_kib as f64 / 1024.0,
    ]
}

/// The result line: `correct`, `attempted`, `failed`, and `metrics` as
/// `name → {value, unit}`.
fn result_json(correct: bool, tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted, tally.failed
    )
}

/// The run's outcome: correct only if `ok` and all `want` metrics were
/// measured as finite numbers; an incomplete metric set is not reported.
fn outcome(ok: bool, tally: &Tally, mut metrics: Vec<(&str, f64, &str)>, want: usize) -> Outcome {
    let complete = metrics.len() == want && metrics.iter().all(|m| m.1.is_finite());
    if !complete {
        metrics.clear();
    }
    let correct = ok && complete;
    Outcome {
        correct,
        json: result_json(correct, tally, &metrics),
    }
}

/// Prints the checked model outputs.
fn print_model(w: &Workload, session: &Session<'_>) {
    println!(
        "model ({}, every session bit-identical to the local replay): {}",
        w.name,
        w.model(&session.expected[1])
    );
}

/// The end-to-end run: a warm-up session, then sessions until `--seconds`
/// have passed (at least [`MIN_SESSIONS`]); medians of the verified ones.
fn untraced(args: &Args, w: &Workload, session: &Session<'_>) -> Outcome {
    let mut tally = Tally::default();
    let _ = tally.record("warm-up session", session.run(None));
    let start = Stamp::now();
    let mut samples = Vec::new();
    let mut i = 1;
    while (samples.len() < MIN_SESSIONS || start.elapsed_s() < args.seconds)
        && start.elapsed_s() < SESSION_BUDGET_S
    {
        if let Some(s) = tally.record(&format!("session {i}"), session.run(None)) {
            let [rate, setup, cpu, rss] = sample_metrics(&s);
            println!(
                "session {i}: {rate:.3} Macc/s, setup {setup:.6} s, {cpu:.2} ms/Macc, {rss:.3} MiB"
            );
            samples.push(s);
        }
        i += 1;
    }
    print_model(w, session);
    let mut metrics = Vec::new();
    for (k, (name, unit, what)) in E2E.iter().enumerate() {
        let values: Vec<f64> = samples.iter().map(|s| sample_metrics(s)[k]).collect();
        if values.is_empty() {
            continue;
        }
        let (p25, median, p75) = quartiles(&values);
        let (how, value) = match *name {
            // CPU time comes in 10 ms clock ticks, a few percent of one
            // session's; pooled over every session it keeps its resolution.
            "server_cpu_ms_per_macc" => {
                let cpu_s: f64 = samples.iter().map(|s| s.cpu_s).sum();
                ("pooled", cpu_s * 1e3 / pooled_macc(&samples))
            }
            _ => ("median", median),
        };
        println!(
            "e2e {:<8} {name:<24} {how} {value:>12.6} {unit:<8} p25 {p25:.6} p50 {median:.6} p75 {p75:.6} n={} ({what})",
            w.name,
            values.len()
        );
        metrics.push((*name, value, *unit));
    }
    println!(
        "e2e {:<8} {:<24} {:>19.6} {:<8} ({} of {} sessions failed)",
        w.name,
        "error_rate",
        tally.error_rate(),
        "fraction",
        tally.failed,
        tally.attempted
    );
    outcome(tally.failed == 0, &tally, metrics, E2E.len())
}

/// The traced run: untraced and traced sessions alternately for a third
/// of `--seconds` (their difference is the tracing overhead), then
/// per-layer rounds until `--seconds` have passed in all (at least one,
/// at most [`MAX_ROUNDS`]). Writes
/// every span to `<out>/spans/<workload>-seed<seed>.jsonl`.
fn traced(args: &Args, w: &Workload, session: &Session<'_>, work: &Path) -> Outcome {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(w.name);
    let _ = tally.record("warm-up session", session.run(None));
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let start = Stamp::now();
    let mut i = 0;
    while i < TRACED_PAIRS || start.elapsed_s() < args.seconds / 3.0 {
        let name = format!("untraced session {i}");
        if let Some(s) = tally.record(&name, session.run(None)) {
            plain.push(s);
        }
        let name = format!("traced session {i}");
        if let Some(s) = tally.record(&name, session.run(Some(&mut tracer))) {
            spanned.push(s);
        }
        i += 1;
    }
    let layers = Layers {
        workload: w,
        trace: session.trace,
        expected: session.expected,
        work,
    };
    let mut rounds = Vec::new();
    while rounds.is_empty() || (start.elapsed_s() < args.seconds && rounds.len() < MAX_ROUNDS) {
        match tally.record(
            &format!("layer round {}", rounds.len()),
            layers.round(&mut tracer),
        ) {
            Some(round) => rounds.push(round),
            None if tally.failed >= 2 => break,
            None => {}
        }
    }
    print_model(w, session);

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut samples: BTreeMap<&str, usize> = BTreeMap::new();
    let names: Vec<&str> = rounds
        .first()
        .map_or(Vec::new(), |r| r.iter().map(|m| m.0).collect());
    for name in names {
        let v: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.iter().find(|m| m.0 == name).map(|m| m.1))
            .collect();
        values.insert(name, quartiles(&v).1);
        samples.insert(name, v.len());
    }
    let complete = !values.is_empty() && !plain.is_empty() && !spanned.is_empty();
    if complete {
        let get = |values: &BTreeMap<&str, f64>, k: &str| values[k];
        let e2e_ns = 1e3 / pooled_macc_s(&plain);
        let batch = get(&values, "system.batch_ns_per_acc");
        let engine = get(&values, "engine.ns_per_act");
        values.insert(
            "system.batch_overhead_ns_per_acc",
            batch - get(&values, "system.bulk_ns_per_acc"),
        );
        values.insert("system.self_ns_per_acc", batch - engine);
        values.insert(
            "engine.self_ns_per_act",
            engine - get(&values, "core.scheme_ns_per_act"),
        );
        // The blocking path of each workload: client encode, server decode
        // and merge, then the scheme replay (whole host) on `serve`, or the
        // router's scatter and snapshot merge on `fleet` (its scatter spans
        // include waiting on the backends).
        let front = get(&values, "wire.encode_ns_per_rec")
            + get(&values, "wire.decode_ns_per_rec")
            + get(&values, "ingest.merge_ns_per_rec");
        let path = front
            + match w.kind {
                Kind::Serve => batch,
                Kind::Fleet => {
                    get(&values, "router.scatter_ns_per_rec")
                        + get(&values, "router.merge_ms") * 1e6 / session.trace.len() as f64
                }
            };
        values.insert("e2e.ns_per_acc", e2e_ns);
        values.insert("residual_ns_per_acc", e2e_ns - path);
        values.insert(
            "trace.overhead_ns_per_acc",
            1e3 / pooled_macc_s(&spanned) - e2e_ns,
        );
        values.insert("trace.spans", tracer.len() as f64);
        for name in ["e2e.ns_per_acc", "trace.overhead_ns_per_acc"] {
            samples.insert(name, plain.len().min(spanned.len()));
        }
    }
    let spans_path = args
        .out
        .join("spans")
        .join(format!("{}-seed{}.jsonl", w.name, args.seed));
    match tracer.write_jsonl(&spans_path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.len(),
            spans_path.display()
        ),
        Err(e) => {
            eprintln!("perfbench: writing spans to {}: {e}", spans_path.display());
            tally.failed += 1;
        }
    }
    let mut metrics = Vec::new();
    for (name, unit, moves) in PER_LAYER {
        if let Some(&value) = values.get(name) {
            println!(
                "layer {:<8} {name:<36} {value:>16.4} {unit:<7} n={} -> {moves}",
                w.name,
                samples.get(name).copied().unwrap_or(rounds.len())
            );
            metrics.push((name, value, unit));
        }
    }
    println!(
        "e2e {:<8} error_rate {:.6} fraction ({} of {} sessions/rounds failed)",
        w.name,
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    outcome(
        tally.failed == 0 && complete,
        &tally,
        metrics,
        PER_LAYER.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        let line = result_json(true, &tally, &[("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn every_workload_ends_on_a_cut_and_splits_past_one_epoch() {
        for quick in [false, true] {
            for name in ["serve", "fleet"] {
                let w = Workload::by_name(name, quick).expect("known workload");
                assert!(w.split as u64 > w.epoch && w.split < w.accesses, "{name}");
                assert!(
                    (w.accesses as u64).is_multiple_of(w.epoch),
                    "{name}: ends on a cut"
                );
                assert!(
                    !(w.split as u64).is_multiple_of(w.epoch),
                    "{name}: session A ends mid-epoch"
                );
            }
        }
        assert!(Workload::by_name("nope", false).is_none());
    }
}
