//! Kill-and-resume differential suite for the checkpoint format
//! (`DESIGN.md §11`): for **every** scheme spec × shard count, checkpoint
//! a seeded workload at **every** epoch cut, restore the image into a
//! freshly built twin, run the rest of the trace on both — final
//! `SchemeStats` *and* `EngineFootprint` must be bit-identical. The
//! uninterrupted comparison run processes the trace with the same batch
//! split (`trace[..cut]`, then `trace[cut..]`), so the footprint
//! comparison pins high-water marks, slab directory capacities and lazy
//! materialization order, not just counter values.
//!
//! Covers one engine over all banks (a one-engine [`MemorySystem`], the
//! only checkpoint scope), the per-channel system on one shard (inline)
//! and on several (shard workers), and images
//! restored into a different shard count, where restore re-carves the
//! saved engine sections onto the target's layout (`DESIGN.md §7`).

use cat_core::SchemeSpec;
use cat_engine::{GeometrySlice, MemGeometry, MemorySystem, Partition};

const BANKS: u32 = 16;
const ROWS: u32 = 4096;
const EPOCH: u64 = 1_500;
const TRACE: u64 = 9_000;

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

/// Every scheme spec the engine can serve, including the no-mitigation
/// baseline — a checkpoint must round-trip all of them.
fn specs() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::None,
        SchemeSpec::pra(0.001),
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
            entries: 128,
            ways: 4,
            threshold: 512,
        },
        SchemeSpec::SpaceSaving {
            counters: 64,
            threshold: 512,
        },
    ]
}

/// Deterministic hammered-plus-background trace (splitmix-style mixing,
/// same shape as the ingest loopback suite) — hot rows drive refreshes
/// and tree growth, the background tail spreads across all banks.
fn trace() -> Vec<(u32, u32)> {
    (0..TRACE)
        .map(|i| {
            let mut z = i
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x6a09_e667);
            z ^= z >> 27;
            z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
            let bank = (z % u64::from(BANKS)) as u32;
            let row = if i % 4 != 0 {
                1000 + bank
            } else {
                ((z >> 32) % u64::from(ROWS)) as u32
            };
            (bank, row)
        })
        .collect()
}

/// Every epoch cut of the trace, including its (aligned) end.
fn cuts() -> Vec<usize> {
    (1..=TRACE / EPOCH).map(|k| (k * EPOCH) as usize).collect()
}

fn fresh_system(spec: SchemeSpec, shards: usize) -> MemorySystem {
    system_over(None, spec, shards)
}

/// A system over the whole geometry (`owned` is `None`) or over one slice
/// of it, with the suite's epoch clock and `shards` shards.
fn system_over(owned: Option<GeometrySlice>, spec: SchemeSpec, shards: usize) -> MemorySystem {
    let system = match owned {
        None => MemorySystem::new(geometry(), spec),
        Some(slice) => MemorySystem::for_slice(&slice, spec),
    };
    system.with_epoch_length(EPOCH).with_shards(shards)
}

#[test]
fn system_kill_and_resume_is_bit_identical_for_every_spec_and_shard_count() {
    let trace = trace();
    for spec in specs() {
        for shards in [1usize, 2, 4] {
            for cut in cuts() {
                // The "killed" session: run to the cut, publish an image.
                let mut original = fresh_system(spec, shards);
                original.process(&trace[..cut]);
                let image = original
                    .checkpoint()
                    .unwrap_or_else(|e| panic!("{spec} x{shards} cut {cut}: checkpoint: {e}"));

                // The resumed session: restore into a fresh twin.
                let mut resumed = fresh_system(spec, shards);
                resumed
                    .restore(&image)
                    .unwrap_or_else(|e| panic!("{spec} x{shards} cut {cut}: restore: {e}"));
                assert_eq!(resumed.accesses(), original.accesses());
                assert_eq!(resumed.epochs(), original.epochs());
                assert_eq!(
                    resumed.stats(),
                    original.stats(),
                    "{spec} x{shards} cut {cut}: stats diverge at the cut"
                );
                assert_eq!(
                    resumed.footprint(),
                    original.footprint(),
                    "{spec} x{shards} cut {cut}: footprint diverges at the cut"
                );

                // Both finish the trace with the same batch split; the
                // original doubles as the uninterrupted comparison run.
                if cut < trace.len() {
                    original.process(&trace[cut..]);
                    resumed.process(&trace[cut..]);
                }
                assert_eq!(
                    resumed.stats(),
                    original.stats(),
                    "{spec} x{shards} cut {cut}: stats diverge after resume"
                );
                assert_eq!(
                    resumed.footprint(),
                    original.footprint(),
                    "{spec} x{shards} cut {cut}: footprint diverges after resume"
                );
            }
        }
    }
}

/// What the engine sweep checkpoints: one engine over all 16 banks (a
/// one-engine system over the whole geometry), or the same 16 banks as a
/// sharded system.
fn subject(spec: SchemeSpec, shards: usize) -> MemorySystem {
    if shards == 1 {
        let one = Partition::uniform(geometry(), 1).unwrap();
        let system = MemorySystem::partitioned(&one, spec).with_epoch_length(EPOCH);
        assert_eq!(system.engines().len(), 1, "one engine over {BANKS} banks");
        system
    } else {
        fresh_system(spec, shards)
    }
}

#[test]
fn engine_kill_and_resume_is_bit_identical_on_one_and_four_engines() {
    let trace = trace();
    for spec in specs() {
        for shards in [1usize, 4] {
            for cut in cuts() {
                let mut original = subject(spec, shards);
                original.process(&trace[..cut]);
                let image = original
                    .checkpoint()
                    .unwrap_or_else(|e| panic!("{spec} x{shards} cut {cut}: checkpoint: {e}"));

                let mut resumed = subject(spec, shards);
                resumed
                    .restore(&image)
                    .unwrap_or_else(|e| panic!("{spec} x{shards} cut {cut}: restore: {e}"));
                assert_eq!(resumed.stats(), original.stats());
                assert_eq!(resumed.footprint(), original.footprint());

                if cut < trace.len() {
                    original.process(&trace[cut..]);
                    resumed.process(&trace[cut..]);
                }
                assert_eq!(
                    resumed.stats(),
                    original.stats(),
                    "{spec} x{shards} cut {cut}: engine stats diverge after resume"
                );
                assert_eq!(
                    resumed.footprint(),
                    original.footprint(),
                    "{spec} x{shards} cut {cut}: engine footprint diverges after resume"
                );
            }
        }
    }
}

/// Asserts that two systems hold the same state: counters, every per-bank
/// vector, and the split-invariant footprint fields.
fn assert_same_state(a: &MemorySystem, b: &MemorySystem, what: &str) {
    assert_eq!(a.accesses(), b.accesses(), "{what}: accesses");
    assert_eq!(a.epochs(), b.epochs(), "{what}: epochs");
    assert_eq!(a.stats(), b.stats(), "{what}: stats");
    assert_eq!(
        a.per_bank_stats(),
        b.per_bank_stats(),
        "{what}: per-bank stats"
    );
    assert_eq!(
        a.activations_per_bank(),
        b.activations_per_bank(),
        "{what}: activations"
    );
    let (fa, fb) = (a.footprint(), b.footprint());
    assert_eq!(
        fa.materialized_banks, fb.materialized_banks,
        "{what}: materialized banks"
    );
    assert_eq!(fa.scheme_bytes, fb.scheme_bytes, "{what}: scheme bytes");
}

#[test]
fn images_restore_across_shard_counts() {
    // Shard count is an execution-strategy knob, not state (`DESIGN.md
    // §7`), but the engine layout follows it, so restore re-carves the
    // saved engine sections onto the target's layout. An image taken on
    // any shard count must restore into any other — on a whole-geometry
    // system and on a fleet backend's slice — with the same per-bank
    // state, and finish bit-identically. Footprints compare only in their
    // split-invariant fields: scratch high-water marks (and so
    // `accounting_bytes`) legitimately depend on the layout.
    let full = trace();
    let slice = Partition::uniform(geometry(), 2).unwrap().slices()[1];
    let sliced: Vec<(u32, u32)> = full
        .iter()
        .copied()
        .filter(|&(bank, _)| slice.contains(bank))
        .collect();
    let cut = 2 * EPOCH as usize;
    let specs = [
        SchemeSpec::pra(0.001),
        SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: 512,
        },
    ];
    for spec in specs {
        for (owned, trace) in [(None, &full), (Some(slice), &sliced)] {
            let scope = if owned.is_some() { "for_slice" } else { "new" };
            for from in [1usize, 3, 4, 8] {
                for to in [1usize, 3, 4, 8] {
                    let what = format!("{spec} {scope} x{from} -> x{to}");
                    let mut narrow = system_over(owned, spec, from);
                    narrow.process(&trace[..cut]);
                    let image = narrow.checkpoint().unwrap();

                    let mut wide = system_over(owned, spec, to);
                    wide.restore(&image)
                        .unwrap_or_else(|e| panic!("{what}: restore: {e}"));
                    assert_same_state(&wide, &narrow, &format!("{what} at the cut"));

                    narrow.process(&trace[cut..]);
                    wide.process(&trace[cut..]);
                    assert_same_state(&wide, &narrow, &format!("{what} after resume"));
                }
            }
        }
    }
}
