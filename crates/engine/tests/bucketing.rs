//! Differential edge cases of the batch path's bank bucketing: every way a
//! batch reaches the count-then-place pass — `BankEngine::process_with_cuts`
//! with hand-made cut lists, `MemorySystem::process` over uniform and
//! mixed-size engine layouts on 1/3/8 shards, streaming pushes at
//! staging capacities 1 and 8192, and batches spanning several bucketing
//! chunks — must leave exactly the state that per-activation `activate`
//! plus `end_epoch` leaves (`DESIGN.md §7`).

use cat_core::SchemeSpec;
use cat_engine::{BankEngine, GeometrySlice, MemGeometry, MemorySystem, Partition};

const BANKS: u32 = 16;
const ROWS: u32 = 1024;

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

/// Thresholds low enough that refreshes, splits and resets all happen on
/// a few thousand accesses.
fn specs() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::None,
        SchemeSpec::pra(0.01),
        SchemeSpec::Sca {
            counters: 16,
            threshold: 64,
        },
        SchemeSpec::Prcat {
            counters: 16,
            levels: 8,
            threshold: 64,
        },
        SchemeSpec::Drcat {
            counters: 16,
            levels: 8,
            threshold: 64,
        },
        SchemeSpec::CounterCache {
            entries: 64,
            ways: 4,
            threshold: 64,
        },
        SchemeSpec::SpaceSaving {
            counters: 16,
            threshold: 64,
        },
    ]
}

/// Row `i` of bank `bank`: a hammered row most of the time, spread
/// otherwise.
fn row(i: usize, bank: u32) -> u32 {
    if i.is_multiple_of(3) {
        ((i * 2_654_435_761) % ROWS as usize) as u32
    } else {
        7 + bank
    }
}

/// The batch shapes: mixed banks, banks in descending order, one bank.
fn batches(n: usize) -> Vec<(&'static str, Vec<(u32, u32)>)> {
    let mixed = (0..n)
        .map(|i| {
            let bank = ((i * 7 + i / 5) % BANKS as usize) as u32;
            (bank, row(i, bank))
        })
        .collect();
    let descending = (0..n)
        .map(|i| {
            let bank = BANKS - 1 - (i * BANKS as usize / n) as u32;
            (bank, row(i, bank))
        })
        .collect();
    let single = (0..n).map(|i| (5, row(i, 5))).collect();
    vec![
        ("mixed", mixed),
        ("descending", descending),
        ("single-bank", single),
    ]
}

/// The per-activation reference: one engine over all banks, `activate`
/// per access, `end_epoch` after the `c`-th access for every cut `c`.
fn reference(
    spec: SchemeSpec,
    banks: u32,
    base: u32,
    batch: &[(u32, u32)],
    cuts: &[usize],
) -> BankEngine {
    let mut engine = BankEngine::with_bank_base(spec, banks, ROWS, base);
    let mut cuts = cuts.iter().peekable();
    for (i, &(bank, row)) in batch.iter().enumerate() {
        while cuts.next_if(|&&c| c == i).is_some() {
            engine.end_epoch();
        }
        let _ = engine.activate(bank as usize, row);
    }
    for _ in cuts {
        engine.end_epoch();
    }
    engine
}

/// Cut positions every `epoch` global accesses over `len` accesses.
fn clock(len: usize, epoch: usize) -> Vec<usize> {
    (1..=len / epoch).map(|k| k * epoch).collect()
}

fn assert_engine_matches(engine: &BankEngine, reference: &BankEngine, what: &str) {
    assert_eq!(engine.stats(), reference.stats(), "{what}: stats");
    assert_eq!(
        engine.per_bank_stats(),
        reference.per_bank_stats(),
        "{what}: per-bank stats"
    );
    assert_eq!(
        engine.activations_per_bank(),
        reference.activations_per_bank(),
        "{what}: activations"
    );
    assert_eq!(
        engine.footprint().scheme_bytes,
        reference.footprint().scheme_bytes,
        "{what}: scheme bytes"
    );
    assert_eq!(engine.epochs(), reference.epochs(), "{what}: epochs");
    assert_eq!(engine.accesses(), reference.accesses(), "{what}: accesses");
}

fn assert_system_matches(system: &MemorySystem, reference: &BankEngine, what: &str) {
    assert_eq!(system.stats(), reference.stats(), "{what}: stats");
    assert_eq!(
        system.per_bank_stats(),
        reference.per_bank_stats(),
        "{what}: per-bank stats"
    );
    assert_eq!(
        system.activations_per_bank(),
        reference.activations_per_bank(),
        "{what}: activations"
    );
    assert_eq!(
        system.footprint().scheme_bytes,
        reference.footprint().scheme_bytes,
        "{what}: scheme bytes"
    );
    assert_eq!(system.epochs(), reference.epochs(), "{what}: epochs");
    assert_eq!(system.accesses(), reference.accesses(), "{what}: accesses");
}

#[test]
fn engine_cut_lists_at_the_edges_match_per_activation_replay() {
    const N: usize = 3_000;
    let cut_lists: [(&str, Vec<usize>); 6] = [
        ("no cuts", vec![]),
        ("cut at 0", vec![0, 1_000]),
        ("duplicate cuts", vec![700, 700, 700, 2_100]),
        ("cut at len", vec![1_500, N]),
        ("cuts at 0 and len only", vec![0, 0, N, N]),
        ("cut after every access", (0..=N).collect()),
    ];
    let mut refreshes = 0;
    for spec in specs() {
        for (shape, batch) in batches(N) {
            for (name, cuts) in &cut_lists {
                let what = format!("{spec} {shape} {name}");
                let mut engine = BankEngine::new(spec, BANKS, ROWS);
                let out = engine.process_with_cuts(&batch, cuts);
                assert_eq!(out.accesses, N as u64, "{what}");
                assert_eq!(out.epochs, cuts.len() as u64, "{what}");
                let reference = reference(spec, BANKS, 0, &batch, cuts);
                assert_eq!(
                    out.refresh_events,
                    reference.stats().refresh_events,
                    "{what}: outcome"
                );
                assert_engine_matches(&engine, &reference, &what);
                refreshes += out.refresh_events;
            }
        }
    }
    assert!(refreshes > 0, "the thresholds must make the schemes fire");
}

#[test]
fn engine_with_a_bank_base_buckets_its_local_banks() {
    // An engine over global banks 8..16 takes engine-local bank indices;
    // its PRA seeds follow the global index.
    for spec in specs() {
        for (shape, batch) in batches(2_000) {
            let local: Vec<(u32, u32)> = batch.iter().map(|&(b, r)| (b % 8, r)).collect();
            let cuts = [0, 500, 500, 2_000];
            let mut engine = BankEngine::with_bank_base(spec, 8, ROWS, 8);
            engine.process_with_cuts(&local, &cuts);
            let reference = reference(spec, 8, 8, &local, &cuts);
            assert_engine_matches(&engine, &reference, &format!("{spec} {shape} base 8"));
        }
    }
}

#[test]
fn systems_match_per_activation_replay_on_every_layout_and_shard_count() {
    // Mixed slice sizes (8 + 4 + 2 + 1 + 1 banks) next to the built-in
    // uniform per-channel layout; epoch lengths that cut after every
    // access, mid-batch, and exactly at the end of the streamed batch.
    const N: usize = 1_536;
    let g = geometry();
    let slice = |start, banks| GeometrySlice::new(g, start, banks).unwrap();
    let mixed = Partition::from_slices(vec![
        slice(0, 8),
        slice(8, 4),
        slice(12, 2),
        slice(14, 1),
        slice(15, 1),
    ])
    .unwrap();
    let layouts: [(&str, Option<&Partition>); 2] = [("per-channel", None), ("mixed", Some(&mixed))];
    for spec in specs() {
        for (shape, batch) in batches(N) {
            for epoch in [1usize, 97, 512] {
                let cuts = clock(N, epoch);
                let reference = reference(spec, BANKS, 0, &batch, &cuts);
                for (layout, partition) in layouts {
                    for shards in [1usize, 3, 8] {
                        let what = format!("{spec} {shape} epoch {epoch} {layout} x{shards}");
                        let build = || {
                            match partition {
                                None => MemorySystem::new(g, spec),
                                Some(p) => MemorySystem::partitioned(p, spec),
                            }
                            .with_epoch_length(epoch as u64)
                            .with_shards(shards)
                        };
                        let mut batched = build();
                        for chunk in batch.chunks(1_000) {
                            batched.process(chunk);
                        }
                        assert_system_matches(&batched, &reference, &what);

                        for capacity in [1usize, 8_192] {
                            let mut streamed = build().with_stream_capacity(capacity);
                            for &(bank, row) in &batch {
                                streamed.push_decoded(bank, row);
                            }
                            streamed.flush();
                            assert_system_matches(
                                &streamed,
                                &reference,
                                &format!("{what} streamed at capacity {capacity}"),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn batches_past_the_bucketing_chunk_size_match_per_activation_replay() {
    // Batches are bucketed and replayed in chunks (one ends at its first
    // cut past 64 Ki accesses, and at 8 Mi at the latest): cuts at and
    // next to the chunk bounds, a segment longer than a whole chunk, and
    // an epoch clock whose boundaries straddle chunks must all land where
    // per-activation replay puts them.
    const N: usize = (1 << 23) + (1 << 17) + 12_345;
    let spec = SchemeSpec::Drcat {
        counters: 16,
        levels: 8,
        threshold: 64,
    };
    let (_, batch) = batches(N).swap_remove(0);
    let cuts = [0, 65_535, 65_536, 65_536, N - 5, N];
    let mut engine = BankEngine::new(spec, BANKS, ROWS);
    engine.process_with_cuts(&batch, &cuts);
    let reference_engine = reference(spec, BANKS, 0, &batch, &cuts);
    assert_engine_matches(&engine, &reference_engine, "engine");

    let epoch = 300_007;
    let reference = reference(spec, BANKS, 0, &batch, &clock(N, epoch));
    for shards in [1usize, 3] {
        let mut system = MemorySystem::new(geometry(), spec)
            .with_epoch_length(epoch as u64)
            .with_shards(shards);
        system.process(&batch);
        assert_system_matches(&system, &reference, &format!("x{shards}"));
    }
}
