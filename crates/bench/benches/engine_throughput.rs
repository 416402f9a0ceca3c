//! Engine throughput: activations/sec for the ways of driving the
//! per-bank mitigation schemes over the same pre-decoded workload trace —
//!
//! * `boxed-dyn`    — the old hand-rolled loop: `Vec<Option<Box<dyn
//!   MitigationScheme>>>` (each `build_instance` boxed explicitly), one
//!   virtual call per activation, modulo epoch rollover. Kept as one
//!   historical row, and as every row's stats oracle;
//! * `instance`     — `cat_engine::BankEngine::process_with_cuts` over the
//!   statically-dispatched `SchemeInstance` values, cut every epoch: the
//!   speedup baseline of every standard row;
//! * `stream`       — `cat_engine::MemorySystem` streaming ingestion:
//!   `push_decoded` per access, staging buffer flushing through the
//!   cut-aware batch path;
//! * `shards-N`     — `MemorySystem::with_shards(N)`: the engine split
//!   refined to at least N engine slices, replayed on N persistent shard
//!   workers (bit-identical results by the engine's determinism
//!   contract);
//! * `queue-N`      — the socket/queue ingestion front-end minus the
//!   socket: N producer threads deal the trace round-robin into the
//!   per-producer bounded lanes of `IngestQueue`, and
//!   `MemorySystem::ingest` drains the deterministic `(seq, producer)`
//!   merge chunk-at-a-time through the streaming path. Measures the
//!   merge + handoff overhead on top of `stream` (the `catd` TCP server
//!   adds only wire framing on top of this);
//! * `fleet-N`      — the partitioned datapath (DESIGN.md §12) minus the
//!   sockets: the trace is scattered by `Partition::route` into N sliced
//!   `MemorySystem`s (uniform bank split, global bank bases preserved)
//!   with epoch cuts fired at exact **global** stream positions — the
//!   in-process mirror of `catd_router` fronting N `catd --slice`
//!   backends — and the per-slice stats are merged in slice-id order.
//!   Measures the scatter + N-systems + merge overhead on top of
//!   `stream`; the checksum assert is the fleet ≡ single-host contract;
//! * `sparse-1m-*`  — the huge-geometry rows (DESIGN.md §10): 1 Mi banks
//!   with ~1% of them hot, as one flat engine (`sparse-1m-flat`) and as a
//!   4-shard `MemorySystem` over one 1 Mi-bank channel
//!   (`sparse-1m-shards-4`). Construction is O(1) in bank count and only
//!   touched banks materialize scheme state, so these rows also record the
//!   resident footprint (`resident_bytes`, amortized `bytes_per_bank`, and
//!   the arithmetic dense estimate — per-instance bytes × total banks —
//!   the sparse storage is beating). Speedups are reported against
//!   `sparse-1m-flat`: a dense baseline at this geometry would spend its
//!   time in construction, not the hot path;
//! * `*-small`      — `instance` (a `BankEngine`) and `shards-4` at an
//!   epoch length of 65 536 accesses (hundreds of boundaries per replay):
//!   the cut-aware regression guard. Small-epoch rows report speedups vs.
//!   `instance-small` and check their stats against the boxed loop at the
//!   same epoch length.
//!
//! The schemes measured are the per-bank state machines with real
//! per-activation work: the paper's tree family (PRCAT/DRCAT) and the
//! counter-cache baseline. Trivial-arithmetic schemes (SCA-class, a few ns
//! per activation — see `micro_schemes`) gain from the statically-dispatched
//! `instance` path but are bound by the `(bank, row)` partition pass when
//! sharded, so they only profit from sharding on multi-core hosts.
//!
//! Hand-rolled `std::time::Instant` harness (no criterion — the workspace
//! builds offline); each row is the **median of [`DEFAULT_RUNS`]
//! independent runs**, each run the best of [`REPS`] back-to-back
//! replays — single-run numbers are noisy enough to mask a 5%
//! regression. The slowest and fastest runs are printed and written next
//! to the median, so the spread behind it stays visible. Override the run count with `BENCH_RUNS`; `REPRO_QUICK`
//! drops it to 1. Set `BENCH_ENGINE_JSON=/path/to/BENCH_engine.json` to
//! also write the numbers as JSON (`scripts/bench.sh` does), headed by a
//! `host` block: core count, rustc and git revision (from `BENCH_RUSTC`
//! and `BENCH_GIT_REV`, which `scripts/bench.sh` sets), runs per row and
//! the quick flag.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The whole point of a bench harness is to read the wall clock; the
// workspace-wide clippy.toml ban (DESIGN.md §9) is lifted here only.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use cat_bench::{banner, decode_trace, quick_factor};
use cat_core::{MitigationScheme, RowId, SchemeSpec, SchemeStats};
use cat_engine::ingest::{self, IngestQueue};
use cat_engine::{BankEngine, EngineFootprint, MemGeometry, MemorySystem, Partition};
use cat_sim::SystemConfig;
use cat_workloads::catalog;

const EPOCHS: u64 = 4;
/// Back-to-back replays per run; the best one is the run's rate.
const REPS: u32 = 3;
/// Independent runs per row; the reported rate is their **median**.
const DEFAULT_RUNS: usize = 3;
/// Epoch length of the `*-small` rows, in accesses: far below the trace
/// length, so every replay crosses hundreds of epoch cuts.
const SMALL_EPOCH: u64 = 65_536;

/// Runs per row: `BENCH_RUNS` if set, 1 under `REPRO_QUICK`, else
/// [`DEFAULT_RUNS`].
fn runs_per_row() -> usize {
    if let Ok(v) = std::env::var("BENCH_RUNS") {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    if quick_factor() > 1 {
        1
    } else {
        DEFAULT_RUNS
    }
}

/// Activations/sec of one row: the median over its runs is the row's
/// rate; the slowest and fastest runs show the spread it was taken from.
#[derive(Copy, Clone)]
struct Rate {
    median: f64,
    min: f64,
    max: f64,
}

struct Measurement {
    scheme: String,
    path: &'static str,
    rate: Rate,
    refresh_events: u64,
    /// Resident-state footprint, recorded for the `sparse-1m-*` rows only
    /// (the standard rows run a geometry small enough that footprint is
    /// not the interesting axis).
    footprint: Option<EngineFootprint>,
}

/// Median, min and max over runs of the activations/sec of `f` (each run
/// the best of [`REPS`] back-to-back replays). `f` replays the whole trace once per call and
/// returns the aggregate stats, asserted identical across every replay
/// (used as a checksum so the compared paths provably did the same work).
fn measure<F: FnMut() -> SchemeStats>(accesses: u64, mut f: F) -> (Rate, SchemeStats) {
    let runs = runs_per_row();
    let mut rates = Vec::with_capacity(runs);
    let mut stats: Option<SchemeStats> = None;
    for _ in 0..runs {
        let mut best = 0.0f64;
        for _ in 0..REPS {
            let start = Instant::now();
            let s = f();
            let rate = accesses as f64 / start.elapsed().as_secs_f64();
            if rate > best {
                best = rate;
            }
            match &stats {
                Some(prev) => assert_eq!(*prev, s, "replays must do identical work"),
                None => stats = Some(s),
            }
        }
        rates.push(best);
    }
    rates.sort_by(f64::total_cmp);
    let rate = Rate {
        median: rates[rates.len() / 2],
        min: rates[0],
        max: rates[rates.len() - 1],
    };
    (rate, stats.expect("at least one replay"))
}

/// The pre-engine loop, reproduced as the historical row and stats oracle:
/// each scheme is boxed behind a trait object, so every activation pays
/// the virtual call the engine's static dispatch removed.
fn boxed_dyn_loop(
    cfg: &SystemConfig,
    spec: SchemeSpec,
    entries: &[(u32, u32)],
    per_epoch: u64,
) -> SchemeStats {
    let mut schemes: Vec<Option<Box<dyn MitigationScheme + Send>>> = (0..cfg.total_banks())
        .map(|b| {
            spec.build_instance(cfg.rows_per_bank, b)
                .map(|s| Box::new(s) as Box<dyn MitigationScheme + Send>)
        })
        .collect();
    let mut accesses = 0u64;
    for &(bank, row) in entries {
        if let Some(s) = &mut schemes[bank as usize] {
            s.on_activation(RowId(row));
        }
        accesses += 1;
        if accesses.is_multiple_of(per_epoch) {
            for s in schemes.iter_mut().flatten() {
                s.on_epoch_end();
            }
        }
    }
    let mut stats = SchemeStats::default();
    for s in schemes.iter().flatten() {
        stats.merge(s.stats());
    }
    stats
}

fn main() {
    banner("engine throughput: boxed-dyn vs SchemeInstance vs sharded system");
    let cfg = SystemConfig::dual_core_two_channel();
    let trace = decode_trace(&catalog::by_name("swapt").unwrap(), &cfg, EPOCHS, 0xCA7);
    let accesses = trace.entries.len() as u64;
    println!(
        "trace: swapt, {accesses} accesses over {} banks (REPRO_QUICK factor {})\n",
        cfg.total_banks(),
        quick_factor()
    );

    let specs = [
        SchemeSpec::Prcat {
            counters: 64,
            levels: 11,
            threshold: 32_768,
        },
        SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: 32_768,
        },
        SchemeSpec::CounterCache {
            entries: 1024,
            ways: 8,
            threshold: 32_768,
        },
    ];
    let mut results: Vec<Measurement> = Vec::new();
    println!(
        "{:<12} {:<18} {:>14} {:>10}   [min, max] acts/sec",
        "scheme", "path", "acts/sec", "speedup"
    );
    for spec in specs {
        let (boxed_rate, base_stats) = measure(accesses, || {
            boxed_dyn_loop(&cfg, spec, &trace.entries, trace.per_epoch)
        });
        let cuts = cuts_every(trace.per_epoch, trace.entries.len());
        let (instance_rate, instance_stats) = measure(accesses, || {
            let mut engine = BankEngine::new(spec, cfg.total_banks(), cfg.rows_per_bank);
            engine.process_with_cuts(&trace.entries, &cuts);
            engine.stats()
        });
        let mut row = |path: &'static str,
                       rate: Rate,
                       stats: &SchemeStats,
                       expected: &SchemeStats,
                       vs: f64| {
            assert_eq!(
                stats,
                expected,
                "{} {path}: paths must do identical work",
                spec.label()
            );
            println!(
                "{:<12} {:<18} {:>14.0} {:>9.2}x   [{:.0}, {:.0}]",
                spec.label(),
                path,
                rate.median,
                rate.median / vs,
                rate.min,
                rate.max
            );
            results.push(Measurement {
                scheme: spec.label(),
                path,
                rate,
                refresh_events: stats.refresh_events,
                footprint: None,
            });
        };
        row(
            "boxed-dyn",
            boxed_rate,
            &base_stats,
            &base_stats,
            instance_rate.median,
        );
        row(
            "instance",
            instance_rate,
            &instance_stats,
            &base_stats,
            instance_rate.median,
        );

        // Streaming ingestion: per-access push through the staging buffer,
        // flushed through the cut-aware routed batch path.
        let (rate, stats) = measure(accesses, || {
            let mut system = MemorySystem::new(&cfg, spec).with_epoch_length(trace.per_epoch);
            for &(bank, row) in &trace.entries {
                system.push_decoded(bank, row);
            }
            system.flush();
            system.stats()
        });
        row("stream", rate, &stats, &base_stats, instance_rate.median);

        // Queue ingestion: producer threads feed the bounded deterministic
        // merge, the consumer drains it into the streaming path (the catd
        // datapath minus the socket).
        for (path, producers) in [("queue-1", 1usize), ("queue-4", 4)] {
            let (rate, stats) = measure(accesses, || {
                let mut system = MemorySystem::new(&cfg, spec).with_epoch_length(trace.per_epoch);
                // Lanes sized to the deal chunk: each batch moves as one
                // 64 KiB chunk, and a producer holds at most one batch
                // ahead of the merge, so the handoff stays cache-resident.
                let (handles, mut consumer) = IngestQueue::bounded(producers, 1 << 13);
                std::thread::scope(|scope| {
                    for (handle, lane) in
                        handles
                            .into_iter()
                            .zip(ingest::deal(&trace.entries, producers, 8_192))
                    {
                        scope.spawn(move || {
                            let mut handle = handle;
                            for batch in lane {
                                handle.send(batch).expect("consumer outlives scope");
                            }
                        });
                    }
                    system
                        .ingest(&mut consumer)
                        .expect("in-slice records, no cuts");
                });
                system.stats()
            });
            row(path, rate, &stats, &base_stats, instance_rate.median);
        }

        // Partitioned datapath: scatter by Partition::route into sliced
        // systems, cut epochs at global positions, merge in slice-id
        // order — the fleet minus the sockets. The checksum assert
        // against the boxed baseline is the fleet ≡ single-host contract
        // (DESIGN.md §12).
        {
            let partition = Partition::uniform(&cfg, 2).expect("uniform split");
            let (rate, stats) = measure(accesses, || {
                let mut systems: Vec<MemorySystem> = partition
                    .slices()
                    .iter()
                    .map(|s| MemorySystem::for_slice(s, spec))
                    .collect();
                for segment in trace.entries.chunks(trace.per_epoch as usize) {
                    for &(bank, row) in segment {
                        systems[partition.route(bank)].push_decoded(bank, row);
                    }
                    if segment.len() == trace.per_epoch as usize {
                        for system in &mut systems {
                            system.flush();
                            system.end_epoch();
                        }
                    }
                }
                let mut stats = SchemeStats::default();
                for system in &mut systems {
                    system.flush();
                    stats.merge(&system.stats());
                }
                stats
            });
            row("fleet-2", rate, &stats, &base_stats, instance_rate.median);
        }

        // Engine slices replayed on N shard workers.
        for (path, shards) in [("shards-2", 2usize), ("shards-4", 4)] {
            let (rate, stats) = measure(accesses, || {
                let mut system = MemorySystem::new(&cfg, spec)
                    .with_epoch_length(trace.per_epoch)
                    .with_shards(shards);
                system.process(&trace.entries);
                system.stats()
            });
            row(path, rate, &stats, &base_stats, instance_rate.median);
        }

        // Small-epoch rows: the cut-aware regression guard (speedups vs.
        // the small-epoch engine — different epoch count, so the stats
        // checksum, one unmeasured boxed replay, differs from the rows
        // above).
        let small_stats = boxed_dyn_loop(&cfg, spec, &trace.entries, SMALL_EPOCH);
        let small_cuts = cuts_every(SMALL_EPOCH, trace.entries.len());
        let (small_rate, stats) = measure(accesses, || {
            let mut engine = BankEngine::new(spec, cfg.total_banks(), cfg.rows_per_bank);
            engine.process_with_cuts(&trace.entries, &small_cuts);
            engine.stats()
        });
        row(
            "instance-small",
            small_rate,
            &stats,
            &small_stats,
            small_rate.median,
        );
        let (rate, stats) = measure(accesses, || {
            let mut system = MemorySystem::new(&cfg, spec)
                .with_epoch_length(SMALL_EPOCH)
                .with_shards(4);
            system.process(&trace.entries);
            system.stats()
        });
        row(
            "shards-4-small",
            rate,
            &stats,
            &small_stats,
            small_rate.median,
        );
        println!();
    }

    sparse_1m_rows(&mut results);

    if let Ok(path) = std::env::var("BENCH_ENGINE_JSON") {
        write_json(&path, accesses, &results);
        println!("wrote {path}");
    }
}

/// Cut positions every `epoch` accesses of a `len`-access trace — where a
/// system `with_epoch_length(epoch)` fires its boundaries.
fn cuts_every(epoch: u64, len: usize) -> Vec<usize> {
    (1..=len as u64 / epoch)
        .map(|k| (k * epoch) as usize)
        .collect()
}

/// The huge-geometry rows: a 1 Mi-bank engine, ~1% of the banks hot
/// (every 97th global bank), row 7 hammered on 3 of every 4 accesses so
/// the mitigation actually fires. Records throughput **and** the resident
/// footprint — on this geometry the win the sparse storage buys is
/// measured in bytes as much as in acts/sec, so the JSON rows carry
/// `resident_bytes`, amortized `bytes_per_bank`, and the arithmetic dense
/// estimate (per-materialized-instance bytes × total banks).
fn sparse_1m_rows(results: &mut Vec<Measurement>) {
    const SPARSE_BANKS: u32 = 1 << 20;
    const ROWS_PER_BANK: u32 = 4096;
    let spec = SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: 32_768,
    };
    let hot: Vec<u32> = (0..SPARSE_BANKS).step_by(97).collect();
    let accesses = (3_000_000 / quick_factor()) as usize;
    let entries: Vec<(u32, u32)> = (0..accesses)
        .map(|i| {
            let row = if !i.is_multiple_of(4) {
                7
            } else {
                (i.wrapping_mul(2_654_435_761) % ROWS_PER_BANK as usize) as u32
            };
            (hot[i % hot.len()], row)
        })
        .collect();
    println!(
        "sparse trace: {accesses} accesses over {} of {SPARSE_BANKS} banks hot ({:.2}%)",
        hot.len(),
        100.0 * hot.len() as f64 / f64::from(SPARSE_BANKS)
    );
    println!(
        "{:<12} {:<18} {:>14} {:>10}   [min, max] acts/sec",
        "scheme", "path", "acts/sec", "speedup"
    );

    let mut footprint = EngineFootprint::default();
    let cuts = cuts_every(1_000_000, entries.len());
    let (flat_rate, flat_stats) = measure(accesses as u64, || {
        let mut engine = BankEngine::new(spec, SPARSE_BANKS, ROWS_PER_BANK);
        engine.process_with_cuts(&entries, &cuts);
        footprint = engine.footprint();
        engine.stats()
    });
    let mut row = |path: &'static str, rate: Rate, stats: &SchemeStats, fp: EngineFootprint| {
        assert_eq!(
            stats,
            &flat_stats,
            "{} {path}: paths must do identical work",
            spec.label()
        );
        assert_eq!(
            fp.materialized_banks,
            hot.len(),
            "{path}: exactly the hot banks must materialize"
        );
        // The footprint win the committed JSON records: resident sparse
        // state must beat the dense per-bank estimate by >= 10x.
        let dense = fp.scheme_bytes / fp.materialized_banks * fp.banks;
        assert!(
            fp.resident_bytes() * 10 <= dense,
            "{path}: resident {} bytes vs dense estimate {dense}: under the 10x win",
            fp.resident_bytes()
        );
        println!(
            "{:<12} {:<18} {:>14.0} {:>9.2}x   [{:.0}, {:.0}] ({} resident bytes, dense estimate {})",
            spec.label(),
            path,
            rate.median,
            rate.median / flat_rate.median,
            rate.min,
            rate.max,
            fp.resident_bytes(),
            dense
        );
        results.push(Measurement {
            scheme: spec.label(),
            path,
            rate,
            refresh_events: stats.refresh_events,
            footprint: Some(fp),
        });
    };
    row("sparse-1m-flat", flat_rate, &flat_stats, footprint);

    // The same 1 Mi banks as one channel of a 4-shard system.
    let geometry = MemGeometry {
        channels: 1,
        ranks_per_channel: 1,
        banks_per_rank: SPARSE_BANKS,
        rows_per_bank: ROWS_PER_BANK,
        lines_per_row: 16,
        line_bytes: 64,
    };
    let mut sharded_fp = EngineFootprint::default();
    let (rate, stats) = measure(accesses as u64, || {
        let mut system = MemorySystem::new(geometry, spec)
            .with_epoch_length(1_000_000)
            .with_shards(4);
        system.process(&entries);
        sharded_fp = system.footprint();
        system.stats()
    });
    row("sparse-1m-shards-4", rate, &stats, sharded_fp);
    println!();
}

/// Minimal JSON writer (the workspace has no serde — offline build).
/// `*-small` rows report their speedup against `instance-small` (same
/// epoch length) and `sparse-1m-*` rows against `sparse-1m-flat` (a dense
/// baseline at 1 Mi banks would measure construction, not the hot path);
/// everything else against `instance`. The sparse rows additionally
/// carry their resident footprint — `bytes_per_bank` is the amortized
/// cost over **all** banks, the number a dense layout cannot get below
/// one full instance. Every row also carries `acts_per_sec_min` and
/// `acts_per_sec_max`, the slowest and fastest of its runs, so a
/// comparison can see the run-to-run spread behind the median. New fields
/// always go after `acts_per_sec`: the `scripts/bench.sh` delta table
/// parses the rate by quote-field position.
fn write_json(path: &str, accesses: u64, results: &[Measurement]) {
    let mut rows = String::new();
    for (i, m) in results.iter().enumerate() {
        let (speedup_key, baseline) = if m.path.starts_with("sparse-1m") {
            ("speedup_vs_sparse_flat", "sparse-1m-flat")
        } else if m.path.ends_with("-small") {
            ("speedup_vs_instance", "instance-small")
        } else {
            ("speedup_vs_instance", "instance")
        };
        let base = results
            .iter()
            .find(|b| b.scheme == m.scheme && b.path == baseline)
            .expect("baseline measured first");
        let footprint = match m.footprint {
            Some(fp) => {
                let dense = fp.scheme_bytes / fp.materialized_banks * fp.banks;
                format!(
                    ", \"resident_bytes\": {}, \"bytes_per_bank\": {:.2}, \
                     \"materialized_banks\": {}, \"banks\": {}, \
                     \"dense_estimate_bytes\": {dense}",
                    fp.resident_bytes(),
                    fp.resident_bytes() as f64 / fp.banks as f64,
                    fp.materialized_banks,
                    fp.banks
                )
            }
            None => String::new(),
        };
        rows.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"path\": \"{}\", \"acts_per_sec\": {:.0}, \
             \"acts_per_sec_min\": {:.0}, \"acts_per_sec_max\": {:.0}, \
             \"{speedup_key}\": {:.4}, \"refresh_events\": {}{footprint}}}{}\n",
            m.scheme,
            m.path,
            m.rate.median,
            m.rate.min,
            m.rate.max,
            m.rate.median / base.rate.median,
            m.refresh_events,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let host = format!(
        "{{\"cores\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"runs\": {}, \"quick\": {}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env("BENCH_RUSTC"),
        env("BENCH_GIT_REV"),
        runs_per_row(),
        quick_factor() > 1
    );
    let json = format!(
        "{{\n  \"bench\": \"engine_throughput\",\n  \"host\": {host},\n  \
         \"trace\": \"swapt\",\n  \"accesses\": {accesses},\n  \"results\": [\n{rows}  ]\n}}\n"
    );
    std::fs::write(path, json).expect("write BENCH_ENGINE_JSON");
}
