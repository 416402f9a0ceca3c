//! Differential test: for every `SchemeSpec` variant the batched engine
//! and the per-slice `MemorySystem` routing — inline, on shard workers,
//! and streaming — must all produce exactly the same `SchemeStats` as the
//! old sequential per-access reference loop, invariant under 1/2/4/8
//! shards, arbitrary batch boundaries, streaming staging capacities, and
//! epoch lengths smaller than the batch (the cut-aware path's hard case).
//! PRA is included — per-bank PRNG seeding (with the engines' bank bases)
//! makes both bank-sharding and channel routing deterministic. The
//! invariants being exercised are spelled out in `DESIGN.md §7`.

use cat_core::{RowId, SchemeInstance, SchemeSpec, SchemeStats};
use cat_engine::{BankEngine, MemGeometry, MemorySystem};

const BANKS: u32 = 16;
const ROWS: u32 = 8192;
const EPOCH: u64 = 25_000;

/// The 16 banks arranged as the 2-channel geometry the `MemorySystem`
/// differential routes over (global bank order is channel-major, so flat
/// engine bank `b` is channel `b / 8`, local bank `b % 8`).
fn geometry() -> MemGeometry {
    MemGeometry {
        channels: 2,
        ranks_per_channel: 1,
        banks_per_rank: 8,
        rows_per_bank: ROWS,
        lines_per_row: 16,
        line_bytes: 64,
    }
}

/// One channel of `banks` banks: a `MemorySystem` over the same banks as a
/// flat `BankEngine::new(spec, banks, ROWS)`.
fn one_channel(banks: u32) -> MemGeometry {
    MemGeometry {
        channels: 1,
        ranks_per_channel: 1,
        banks_per_rank: banks,
        rows_per_bank: ROWS,
        lines_per_row: 16,
        line_bytes: 64,
    }
}

/// Epoch cut positions every `epoch` accesses of a `len`-access batch that
/// opens a stream — the cut list a system `with_epoch_length(epoch)`
/// computes for it.
fn cuts_every(epoch: u64, len: usize) -> Vec<usize> {
    (1..)
        .map(|k| (k * epoch) as usize)
        .take_while(|&c| c <= len)
        .collect()
}

/// Deterministic trace mixing a few hammered rows with a spread background,
/// across all banks (splitmix-style mixing, no RNG dependency).
fn trace(n: u64) -> Vec<(u32, u32)> {
    (0..n)
        .map(|i| {
            let mut z = i
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x6a09_e667);
            z ^= z >> 27;
            z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
            let bank = (z % u64::from(BANKS)) as u32;
            let row = if !i.is_multiple_of(4) {
                // Hot rows, distinct per bank, hammered 75% of the time.
                1000 + bank
            } else {
                ((z >> 32) % u64::from(ROWS)) as u32
            };
            (bank, row)
        })
        .collect()
}

/// The loop every consumer used to hand-roll before `cat-engine` existed:
/// one scheme instance per bank, one call per access, modulo epoch rollover.
fn old_loop_with_epoch(
    spec: SchemeSpec,
    trace: &[(u32, u32)],
    epoch: u64,
) -> (SchemeStats, Vec<SchemeStats>) {
    let mut schemes: Vec<Option<SchemeInstance>> =
        (0..BANKS).map(|b| spec.build_instance(ROWS, b)).collect();
    let mut accesses = 0u64;
    for &(bank, row) in trace {
        if let Some(s) = &mut schemes[bank as usize] {
            s.on_activation(RowId(row));
        }
        accesses += 1;
        if accesses.is_multiple_of(epoch) {
            for s in schemes.iter_mut().flatten() {
                s.on_epoch_end();
            }
        }
    }
    let mut total = SchemeStats::default();
    let mut per_bank = Vec::new();
    for s in schemes.iter().flatten() {
        per_bank.push(*s.stats());
        total.merge(s.stats());
    }
    (total, per_bank)
}

fn old_sequential_loop(spec: SchemeSpec, trace: &[(u32, u32)]) -> (SchemeStats, Vec<SchemeStats>) {
    old_loop_with_epoch(spec, trace, EPOCH)
}

fn all_specs() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::None,
        SchemeSpec::pra(0.002),
        SchemeSpec::Sca {
            counters: 64,
            threshold: 512,
        },
        SchemeSpec::Prcat {
            counters: 64,
            levels: 11,
            threshold: 512,
        },
        SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: 512,
        },
        SchemeSpec::CounterCache {
            entries: 256,
            ways: 4,
            threshold: 512,
        },
        SchemeSpec::SpaceSaving {
            counters: 64,
            threshold: 512,
        },
    ]
}

#[test]
fn engine_matches_old_loop_for_every_spec_and_shard_count() {
    let trace = trace(150_000);
    for spec in all_specs() {
        let (old_total, old_per_bank) = old_sequential_loop(spec, &trace);

        // Batched, unsharded.
        let mut engine = BankEngine::new(spec, BANKS, ROWS);
        engine.process_with_cuts(&trace, &cuts_every(EPOCH, trace.len()));
        assert_eq!(engine.stats(), old_total, "{spec}: batched != old loop");
        assert_eq!(
            engine.per_bank_stats(),
            old_per_bank,
            "{spec}: per-bank mismatch"
        );
        assert_eq!(engine.epochs(), 150_000 / EPOCH);

        // The same 16 banks on 1/2/4/8 shards.
        for shards in [1usize, 2, 4, 8] {
            let mut sharded = MemorySystem::new(geometry(), spec)
                .with_epoch_length(EPOCH)
                .with_shards(shards);
            sharded.process(&trace);
            assert_eq!(
                sharded.stats(),
                old_total,
                "{spec}: {shards}-shard stats != old loop"
            );
            assert_eq!(
                sharded.per_bank_stats(),
                old_per_bank,
                "{spec}: {shards}-shard per-bank mismatch"
            );
            assert_eq!(
                sharded.activations_per_bank(),
                engine.activations_per_bank()
            );
            assert_eq!(sharded.epochs(), engine.epochs());
        }

        // The comparison must not be vacuous: every real scheme fires.
        if spec != SchemeSpec::None {
            assert!(
                old_total.refresh_events > 0,
                "{spec}: trace too tame, no refreshes to compare"
            );
        }
    }
}

#[test]
fn memory_system_matches_old_loop_for_every_spec_and_shard_count() {
    // The per-channel routing front-end, inline and on shard workers, must
    // be bit-identical to the flat sequential engine (and so to the old
    // loop) — including across batch boundaries that straddle epochs.
    let trace = trace(150_000);
    for spec in all_specs() {
        let (old_total, old_per_bank) = old_sequential_loop(spec, &trace);
        let mut flat = BankEngine::new(spec, BANKS, ROWS);
        flat.process_with_cuts(&trace, &cuts_every(EPOCH, trace.len()));

        for shards in [1usize, 2, 4, 8] {
            let mut system = MemorySystem::new(geometry(), spec)
                .with_epoch_length(EPOCH)
                .with_shards(shards);
            for chunk in trace.chunks(13_337) {
                system.process(chunk);
            }
            assert_eq!(
                system.stats(),
                old_total,
                "{spec}: {shards}-shard system stats != old loop"
            );
            assert_eq!(
                system.per_bank_stats(),
                old_per_bank,
                "{spec}: {shards}-shard system per-bank mismatch"
            );
            assert_eq!(
                system.activations_per_bank(),
                flat.activations_per_bank(),
                "{spec}: {shards}-shard activations mismatch"
            );
            assert_eq!(system.epochs(), flat.epochs());
            assert_eq!(system.accesses(), 150_000);
        }
    }
}

#[test]
fn streaming_push_matches_old_loop_for_every_spec() {
    // The streaming front-end (push_decoded + automatic capacity flushes +
    // one final flush) must be bit-identical to the flat path for every
    // scheme, for staging capacities below, at, and above the epoch length
    // — including capacities that leave epoch boundaries mid-buffer.
    let trace = trace(120_000);
    for spec in all_specs() {
        let (old_total, old_per_bank) = old_loop_with_epoch(spec, &trace, EPOCH);
        for (capacity, shards) in [(257usize, 1usize), (8_192, 1), (8_192, 4), (60_000, 2)] {
            let mut system = MemorySystem::new(geometry(), spec)
                .with_epoch_length(EPOCH)
                .with_shards(shards)
                .with_stream_capacity(capacity);
            for &(bank, row) in &trace {
                system.push_decoded(bank, row);
            }
            let out = system.flush();
            assert_eq!(
                out.accesses,
                trace.len() as u64,
                "{spec}: stream cap {capacity} lost accesses"
            );
            assert_eq!(
                system.stats(),
                old_total,
                "{spec}: cap {capacity} × {shards} shards streamed stats != old loop"
            );
            assert_eq!(
                system.per_bank_stats(),
                old_per_bank,
                "{spec}: cap {capacity} × {shards} shards streamed per-bank mismatch"
            );
            assert_eq!(system.epochs(), trace.len() as u64 / EPOCH);
            assert_eq!(out.epochs, system.epochs());
        }
    }
}

#[test]
fn small_epochs_match_old_loop_for_every_spec_and_path() {
    // Epoch lengths far below the batch (and chunk) size: the cut-aware
    // batch path must fire hundreds of boundaries inside a single replay
    // per engine — including segments in which a whole engine sees no
    // access — and stay bit-identical on the flat engine and on systems
    // of 1/2/4/8 shards.
    let trace = trace(60_000);
    for epoch in [61u64, 997] {
        for spec in all_specs() {
            let (old_total, old_per_bank) = old_loop_with_epoch(spec, &trace, epoch);

            let mut flat = BankEngine::new(spec, BANKS, ROWS);
            flat.process_with_cuts(&trace, &cuts_every(epoch, trace.len()));
            assert_eq!(flat.stats(), old_total, "{spec}: flat != old loop @{epoch}");

            let mut sharded = MemorySystem::new(geometry(), spec)
                .with_epoch_length(epoch)
                .with_shards(4);
            for chunk in trace.chunks(13_337) {
                sharded.process(chunk);
            }
            assert_eq!(
                sharded.stats(),
                old_total,
                "{spec}: sharded != old loop @{epoch}"
            );
            assert_eq!(sharded.per_bank_stats(), old_per_bank);

            for shards in [1usize, 2, 8] {
                let mut system = MemorySystem::new(geometry(), spec)
                    .with_epoch_length(epoch)
                    .with_shards(shards);
                for chunk in trace.chunks(13_337) {
                    system.process(chunk);
                }
                assert_eq!(
                    system.stats(),
                    old_total,
                    "{spec}: {shards}-shard system != old loop @{epoch}"
                );
                assert_eq!(
                    system.per_bank_stats(),
                    old_per_bank,
                    "{spec}: {shards}-shard system per-bank mismatch @{epoch}"
                );
                assert_eq!(system.epochs(), 60_000 / epoch);
            }
        }
    }
}

#[test]
fn external_cuts_match_internal_epoch_accounting() {
    // process_with_cuts, and a clockless 4-shard system ending an epoch at
    // each cut, with the cut positions a clocked one-engine system
    // computes must land on identical stats — the cut-list form is the
    // same epoch clock, just caller-owned.
    let spec = SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: 512,
    };
    let trace = trace(50_000);
    let epoch = 7_000u64;
    let mut internal = MemorySystem::new(one_channel(BANKS), spec).with_epoch_length(epoch);
    internal.process(&trace);

    let cuts = cuts_every(epoch, trace.len());
    let mut external = BankEngine::new(spec, BANKS, ROWS);
    let out = external.process_with_cuts(&trace, &cuts);
    assert_eq!(external.stats(), internal.stats());
    assert_eq!(external.per_bank_stats(), internal.per_bank_stats());
    assert_eq!(external.epochs(), internal.epochs());
    assert_eq!(out.epochs, cuts.len() as u64);

    let mut external_sharded = MemorySystem::new(geometry(), spec).with_shards(4);
    let mut done = 0;
    for &cut in &cuts {
        external_sharded.process(&trace[done..cut]);
        external_sharded.end_epoch();
        done = cut;
    }
    external_sharded.process(&trace[done..]);
    assert_eq!(external_sharded.stats(), internal.stats());
    assert_eq!(external_sharded.per_bank_stats(), internal.per_bank_stats());
}

/// The old eager loop generalized over the bank count — the dense
/// reference for the sparse-storage differential below.
fn old_loop_over_banks(
    spec: SchemeSpec,
    trace: &[(u32, u32)],
    epoch: u64,
    banks: u32,
    rows: u32,
) -> (SchemeStats, Vec<SchemeStats>) {
    let mut schemes: Vec<Option<SchemeInstance>> =
        (0..banks).map(|b| spec.build_instance(rows, b)).collect();
    let mut accesses = 0u64;
    for &(bank, row) in trace {
        if let Some(s) = &mut schemes[bank as usize] {
            s.on_activation(RowId(row));
        }
        accesses += 1;
        if accesses.is_multiple_of(epoch) {
            for s in schemes.iter_mut().flatten() {
                s.on_epoch_end();
            }
        }
    }
    let mut total = SchemeStats::default();
    let mut per_bank = Vec::new();
    for s in schemes.iter().flatten() {
        per_bank.push(*s.stats());
        total.merge(s.stats());
    }
    (total, per_bank)
}

#[test]
fn sparse_storage_matches_dense_reference_across_touch_patterns() {
    // The tentpole differential for the lazily-materialized bank storage:
    // whatever subset of banks a workload touches — a contiguous hot
    // range, a stride that leaves gaps, one single bank, or every bank —
    // the sparse engine must be bit-identical to the dense eagerly-built
    // reference on the flat path and on 1/2/4 shards, and must have
    // materialized exactly the touched banks, never the cold ones. At 512
    // banks the touched banks span several 64-bank storage blocks, and a
    // system re-sharded mid-trace (1 -> 4 -> 16 -> 2 shards: 512-, 128-,
    // 32- and then 256-bank engines) moves whole blocks to other block
    // offsets, splits blocks and merges them back while they are populated.
    for sparse_banks in [64u32, 512] {
        sparse_storage_matches_dense_reference_at(sparse_banks);
    }
}

fn sparse_storage_matches_dense_reference_at(sparse_banks: u32) {
    const N: u64 = 60_000;
    let mix = |i: u64, bank: u32| {
        let mut z = i
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x6a09_e667);
        z ^= z >> 27;
        if !i.is_multiple_of(4) {
            1000 + bank
        } else {
            (z % u64::from(ROWS)) as u32
        }
    };
    let patterns: Vec<(&str, Vec<(u32, u32)>)> = vec![
        (
            "contiguous-hot",
            (0..N)
                .map(|i| {
                    let bank = (i % 4) as u32;
                    (bank, mix(i, bank))
                })
                .collect(),
        ),
        (
            "strided",
            (0..N)
                .map(|i| {
                    let bank = ((i % 8) * u64::from(sparse_banks / 8)) as u32;
                    (bank, mix(i, bank))
                })
                .collect(),
        ),
        ("single-bank", (0..N).map(|i| (37, mix(i, 37))).collect()),
        (
            "all-banks",
            (0..N)
                .map(|i| {
                    let bank = (i % u64::from(sparse_banks)) as u32;
                    (bank, mix(i, bank))
                })
                .collect(),
        ),
    ];
    for (name, trace) in &patterns {
        let touched: std::collections::BTreeSet<u32> = trace.iter().map(|&(b, _)| b).collect();
        for spec in all_specs() {
            let (old_total, old_per_bank) =
                old_loop_over_banks(spec, trace, EPOCH, sparse_banks, ROWS);
            let mut flat = BankEngine::new(spec, sparse_banks, ROWS);
            flat.process_with_cuts(trace, &cuts_every(EPOCH, trace.len()));
            assert_eq!(flat.stats(), old_total, "{spec} {name}: flat != dense");
            if spec != SchemeSpec::None {
                assert_eq!(
                    flat.per_bank_stats().len(),
                    sparse_banks as usize,
                    "{spec} {name}: cold banks must still report (zero) stats"
                );
                assert_eq!(
                    flat.per_bank_stats(),
                    old_per_bank,
                    "{spec} {name}: per-bank mismatch"
                );
                let fp = flat.footprint();
                assert_eq!(
                    fp.materialized_banks,
                    touched.len(),
                    "{spec} {name}: must materialize exactly the touched banks"
                );
                assert!(fp.scheme_bytes > 0, "{spec} {name}: footprint not wired");
            } else {
                assert_eq!(flat.footprint().materialized_banks, 0);
            }

            for shards in [1usize, 2, 4] {
                let mut sharded = MemorySystem::new(one_channel(sparse_banks), spec)
                    .with_epoch_length(EPOCH)
                    .with_shards(shards);
                sharded.process(trace);
                assert_eq!(
                    sharded.stats(),
                    old_total,
                    "{spec} {name}: {shards}-shard != dense"
                );
                assert_eq!(sharded.per_bank_stats(), flat.per_bank_stats());
                assert_eq!(sharded.activations_per_bank(), flat.activations_per_bank());
                if spec != SchemeSpec::None {
                    assert_eq!(
                        sharded.footprint().materialized_banks,
                        touched.len(),
                        "{spec} {name}: {shards}-shard workers over-materialized"
                    );
                }
            }

            let mut resharded =
                MemorySystem::new(one_channel(sparse_banks), spec).with_epoch_length(EPOCH);
            let chunks = trace.chunks(trace.len().div_ceil(4));
            for (chunk, shards) in chunks.zip([1usize, 4, 16, 2]) {
                resharded = resharded.with_shards(shards);
                resharded.process(chunk);
            }
            let what = format!("{spec} {name} {sparse_banks} banks re-sharded");
            assert_eq!(resharded.stats(), old_total, "{what}");
            assert_eq!(resharded.per_bank_stats(), flat.per_bank_stats(), "{what}");
            assert_eq!(
                resharded.activations_per_bank(),
                flat.activations_per_bank(),
                "{what}"
            );
            assert_eq!(
                resharded.footprint().materialized_banks,
                flat.footprint().materialized_banks,
                "{what}"
            );
        }
    }
}

#[test]
fn cold_banks_never_materialize_at_big_geometry() {
    // Construction must be O(1) in the bank count and cold banks must
    // stay unbuilt: a 1Mi-bank engine touching 64 banks holds exactly 64
    // scheme instances, and its resident footprint is orders of magnitude
    // below the dense estimate.
    const BIG: u32 = 1 << 20;
    let spec = SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: 512,
    };
    let mut engine = BankEngine::new(spec, BIG, ROWS);
    let trace: Vec<(u32, u32)> = (0..10_000u64)
        .map(|i| ((i % 64 * 16_384) as u32, 1_000 + (i % 7) as u32))
        .collect();
    engine.process_with_cuts(&trace, &cuts_every(1_000, trace.len()));
    let fp = engine.footprint();
    assert_eq!(fp.banks, BIG as usize);
    assert_eq!(fp.materialized_banks, 64);
    let per_instance = fp.scheme_bytes / 64;
    let dense_estimate = per_instance * BIG as usize;
    assert!(
        fp.resident_bytes() * 10 <= dense_estimate,
        "sparse {} vs dense estimate {}: under 10x win",
        fp.resident_bytes(),
        dense_estimate
    );
    // The sharded path must stay lazy too (shard workers materialize only
    // on rows), and keep matching the flat run.
    let mut sharded = MemorySystem::new(one_channel(BIG), spec)
        .with_epoch_length(1_000)
        .with_shards(4);
    sharded.process(&trace);
    assert_eq!(sharded.stats(), engine.stats());
    assert_eq!(sharded.footprint().materialized_banks, 64);
}

#[test]
fn sharded_batches_compose_across_process_calls() {
    // Epoch state must carry across repeated sharded batches exactly as in
    // one big sequential run — and the persistent shard workers must keep
    // producing identical results when fed many small batches.
    let spec = SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: 512,
    };
    let trace = trace(90_000);
    let (old_total, _) = old_sequential_loop(spec, &trace);
    let mut engine = MemorySystem::new(geometry(), spec)
        .with_epoch_length(EPOCH)
        .with_shards(4);
    for chunk in trace.chunks(13_337) {
        engine.process(chunk);
    }
    assert_eq!(engine.stats(), old_total);
    assert_eq!(engine.epochs(), 90_000 / EPOCH);
}
