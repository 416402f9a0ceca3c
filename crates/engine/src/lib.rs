//! # cat-engine — the sharded, statically-dispatched multi-bank engine
//!
//! Every consumer of the mitigation schemes drives the same per-bank state
//! machines: one scheme instance per DRAM bank, an `on_activation` per `ACT`,
//! an `on_epoch_end` at every auto-refresh epoch boundary, and a stats merge
//! at the end. [`BankEngine`] is the single implementation of that loop; the
//! functional simulator, the timed simulator and the CMRPO replay harness all
//! sit on top of it. [`MemorySystem`] adds the system-level front-end —
//! physical-address decode ([`AddressMapping`]) routing into per-slice
//! `BankEngine`s, plus streaming `push(addr)` ingestion — so no consumer
//! hand-rolls channel/rank/bank math or its own batching buffer.
//!
//! Schemes are held as [`SchemeInstance`] values (enum static dispatch, no
//! per-activation virtual call) built from a [`SchemeSpec`].
//!
//! ## One execution path
//!
//! Every batch reaches the banks the same way. Its epoch boundary
//! positions are computed once (a *cut list*), then one stable
//! count-then-place pass **buckets** the batch: per epoch segment, each
//! touched bank's rows in stream order, banks ascending, with a cut marker
//! where a boundary fires. That is the one copy a record takes after
//! staging. Each engine then replays its banks' runs — one
//! [`SchemeInstance::run`] per bank per segment — with no sort of its own.
//! [`MemorySystem::process`] buckets over its owned range and replays
//! every engine; [`BankEngine::process_with_cuts`] is an adapter that
//! buckets one engine's banks at caller-given cuts through the same two
//! calls. The epoch clock and the bucketing scratch belong to the
//! [`MemorySystem`]; a [`BankEngine`] is only its banks.
//!
//! [`MemorySystem::with_shards`] changes only *where* the replay runs. A
//! shard is an engine slice: with `n > 1` shards the engine split is
//! refined until there are at least `n` engines, and `n` persistent worker
//! threads each replay a contiguous group of them. The engines travel to
//! the workers by value, with a shared handle on the runs, and come back
//! before the call returns, so stats, checkpoints and single-access calls
//! read the same engines on every shard count.
//!
//! Single-access callers with their own epoch clock (the cycle-based
//! timing simulator) use [`BankEngine::activate`] /
//! [`MemorySystem::activate_global`] plus `end_epoch` instead; streaming
//! callers stage accesses through [`MemorySystem::push`] and get the same
//! batch path on every flush. Remote producers stream
//! [`wire`]-framed record batches over a socket into the [`ingest`]
//! layer's deterministic multi-producer merge (the `catd` server), which
//! feeds the same staging buffer — producer count and arrival
//! interleaving are as unobservable as the shard count (`DESIGN.md §8`).
//!
//! ## Determinism contract
//!
//! Spelled out with the invariants in `DESIGN.md §7`; the short form:
//!
//! [`MemorySystem`] partitions **banks** (never per-bank order) into
//! contiguous engine slices and replays each engine independently, on the
//! calling thread or on a shard worker. Because
//!
//! 1. every scheme instance is per-bank state held by exactly one engine,
//! 2. each bank replays its own activations in original stream order
//!    (schemes never observe other banks' activations, so the inter-bank
//!    interleaving is immaterial),
//! 3. epoch boundaries are positions in the *global* access stream, applied
//!    to each bank at the same point of its own activation subsequence
//!    regardless of the engine split, and
//! 4. PRA draws from a per-bank PRNG seeded from `(base seed, bank index)`,
//!    where the bank index is the engine's
//!    [`bank base`](BankEngine::with_bank_base) plus the local index — so a
//!    bank keeps its seed no matter which engine it lands in,
//!
//! the resulting [`SchemeStats`] — aggregated in bank order — are
//! **bit-identical for every shard count and engine split**, including a
//! single [`BankEngine`] driven through
//! [`process_with_cuts`](BankEngine::process_with_cuts) at the same cuts.
//! The equivalence is asserted for every [`SchemeSpec`] variant by
//! `tests/equivalence.rs`.
//!
//! ## Batching rationale
//!
//! The engine consumes pre-decoded `(bank, row)` batches instead of single
//! accesses: decoding addresses and driving schemes have very different
//! costs, and batching keeps the scheme-driving inner loop free of iterator
//! and dispatch overhead. Bucketing it by bank lets each bank replay its
//! whole subsequence of a segment at once, paying the bank lookup once
//! per run, not once per access; schemes never observe other banks
//! (`DESIGN.md §7`), so one pass lays out every engine's runs.
//! Single-access callers (the cycle-based timing simulator) use
//! [`BankEngine::activate`] instead. Bank ids are full `u32`s: the decode
//! front-end never narrows them, so geometries beyond 65 536 banks route
//! correctly.
//!
//! ```
//! use cat_core::SchemeSpec;
//! use cat_engine::{MemGeometry, MemorySystem};
//!
//! let geometry = MemGeometry {
//!     channels: 1,
//!     ranks_per_channel: 1,
//!     banks_per_rank: 4,
//!     rows_per_bank: 65_536,
//!     lines_per_row: 16,
//!     line_bytes: 64,
//! };
//! let spec = SchemeSpec::Sca { counters: 64, threshold: 1024 };
//! let mut system = MemorySystem::new(&geometry, spec).with_epoch_length(10_000);
//! let batch: Vec<(u32, u32)> = (0..20_000).map(|i| (i % 4, 7)).collect();
//! system.process(&batch);
//! let report = system.report();
//! assert_eq!(report.accesses, 20_000);
//! assert_eq!(report.epochs, 2);
//! assert!(report.scheme_stats.refresh_events > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
pub mod checkpoint;
pub mod ingest;
pub mod router;
mod shard;
mod sparse;
mod system;
pub mod wire;

pub use address::{
    AddressMapping, GeometryError, GeometrySlice, Location, MemGeometry, Partition, PartitionError,
    SliceError,
};
pub use system::MemorySystem;

use cat_core::{Refreshes, RowId, SchemeInstance, SchemeSpec, SchemeStats};
use shard::Bucketer;
use sparse::SparseBanks;

/// Computes the epoch **cut positions** inside a batch of `len` accesses:
/// a cut at position `c` means "after the batch's first `c` accesses, a
/// global epoch boundary falls" (`on_epoch_end` fires there). Positions are
/// strictly increasing, in `1..=len`; `cuts` is cleared first.
///
/// This is *the* epoch-phase arithmetic — [`MemorySystem`]'s batch path,
/// its write-ahead drain and the router's epoch clock all derive their cut
/// lists here, so the paths cannot drift apart (their bit-identical
/// equivalence depends on agreeing about boundary positions, see
/// `DESIGN.md §7`).
pub(crate) fn epoch_cuts(
    len: usize,
    accesses_so_far: u64,
    epoch_len: Option<u64>,
    cuts: &mut Vec<usize>,
) {
    cuts.clear();
    let Some(l) = epoch_len else { return };
    let mut next = l - accesses_so_far % l;
    while next <= len as u64 {
        cuts.push(next as usize); // next <= len, so the cast is exact
        next += l;
    }
}

/// Panics unless `cuts` is a valid cut list for a batch of `len` accesses:
/// nondecreasing positions, none beyond `len`.
pub(crate) fn validate_cuts(cuts: &[usize], len: usize) {
    let mut prev = 0usize;
    for &cut in cuts {
        assert!(
            cut >= prev,
            "epoch cuts must be nondecreasing: {cut} after {prev}"
        );
        assert!(cut <= len, "epoch cut {cut} beyond batch of {len} accesses");
        prev = cut;
    }
}

/// The one out-of-range panic of the engine layer: `bank` is outside the
/// `banks` banks starting at `first` that a [`BankEngine`] call (local
/// banks, `first` 0) or a bucketing pass addresses. Served batches never
/// reach it — the wire decoder and `push_decoded` range-check first.
#[cold]
#[inline(never)]
pub(crate) fn bank_out_of_range(bank: usize, first: usize, banks: usize) -> ! {
    panic!(
        "bank {bank} out of range for banks {first}..{}",
        first + banks
    )
}

/// Aggregate outcome of one [`MemorySystem::process`] batch, computed by
/// differencing O(banks) stats snapshots around the batch — the
/// per-activation loops carry no accounting at all.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Accesses processed in this batch.
    pub accesses: u64,
    /// Mitigation refresh commands the batch triggered.
    pub refresh_events: u64,
    /// Victim rows covered by those refreshes.
    pub refreshed_rows: u64,
    /// Epoch boundaries crossed during the batch.
    pub epochs: u64,
}

impl BatchOutcome {
    /// Accumulates another batch's outcome into this one (every field is a
    /// count, so aggregation is plain addition). The streaming front-end
    /// uses this to report all automatic flushes in one
    /// [`MemorySystem::flush`] outcome.
    pub fn merge(&mut self, other: &BatchOutcome) {
        self.accesses += other.accesses;
        self.refresh_events += other.refresh_events;
        self.refreshed_rows += other.refreshed_rows;
        self.epochs += other.epochs;
    }
}

/// Resident-memory snapshot of an engine's sparse bank storage
/// (`DESIGN.md §10`): how many banks exist, how many were ever touched,
/// and what the touched ones cost in bytes. Cold banks cost nothing, so
/// `materialized_banks / banks` *is* the workload's bank-sparsity.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineFootprint {
    /// Banks the engine spans (with or without an attached scheme).
    pub banks: usize,
    /// Banks whose scheme instance has been built (touched at least once).
    pub materialized_banks: usize,
    /// Resident bytes of materialized scheme/tree state — the sum of
    /// per-bank instance footprints. Purely per-bank, so it is invariant
    /// under the engine split and sums exactly across the slices of a
    /// partition (`DESIGN.md §12`); this is the footprint field a fleet
    /// merge reports bit-identically to a single host.
    pub scheme_bytes: usize,
    /// Resident bytes of everything execution-strategy-dependent: the
    /// sparse containers' own block storage, per-bank activation
    /// counters, and the batch path's bucketing scratch. Depends on the
    /// engine split and shard count, so it stays out of the wire
    /// snapshot.
    pub accounting_bytes: usize,
}

impl EngineFootprint {
    /// Total resident bytes of live engine state.
    pub fn resident_bytes(&self) -> usize {
        self.scheme_bytes + self.accounting_bytes
    }

    /// Accumulates another engine's footprint (the [`MemorySystem`] sums
    /// its per-slice engines this way).
    pub fn merge(&mut self, other: &EngineFootprint) {
        self.banks += other.banks;
        self.materialized_banks += other.materialized_banks;
        self.scheme_bytes += other.scheme_bytes;
        self.accounting_bytes += other.accounting_bytes;
    }
}

/// Snapshot of a system's accumulated state ([`MemorySystem::report`]),
/// shaped like the reports the simulator layers expose.
#[derive(Clone, Debug, Default)]
pub struct EngineReport {
    /// Accesses processed.
    pub accesses: u64,
    /// Epochs processed.
    pub epochs: u64,
    /// Row activations per bank (counted whether or not a scheme is
    /// attached).
    pub activations_per_bank: Vec<u64>,
    /// Scheme statistics aggregated across banks (in bank order).
    pub scheme_stats: SchemeStats,
    /// Per-bank scheme statistics (empty when the spec is
    /// [`SchemeSpec::None`]).
    pub per_bank_stats: Vec<SchemeStats>,
    /// Resident-memory snapshot of the sparse bank storage.
    pub footprint: EngineFootprint,
}

impl EngineReport {
    /// Merges the report of the **next** slice (ascending slice-id order,
    /// `DESIGN.md §12`) into this one: counters add, per-bank vectors
    /// concatenate (the slice order *is* the global bank order), and
    /// epochs take the maximum — every slice observes every system-wide
    /// boundary, so well-formed slice reports agree on the epoch count
    /// and `max` keeps the merge associative with `Default` as identity.
    pub fn merge(&mut self, other: &EngineReport) {
        self.accesses += other.accesses;
        self.epochs = self.epochs.max(other.epochs);
        self.activations_per_bank
            .extend_from_slice(&other.activations_per_bank);
        self.scheme_stats.merge(&other.scheme_stats);
        self.per_bank_stats.extend_from_slice(&other.per_bank_stats);
        self.footprint.merge(&other.footprint);
    }
}

/// A multi-bank mitigation engine: one [`SchemeInstance`] per bank and
/// batched activation processing — the unit a [`MemorySystem`] slices its
/// banks into and replays, inline or on a shard worker. It is exactly a
/// contiguous slice of bank records plus its access and epoch counts; the
/// epoch clock and the bucketing scratch belong to the [`MemorySystem`].
///
/// Bank storage is **sparse and lazily materialized** (`DESIGN.md §10`): a
/// bank's record — its activation count and scheme instance — is built on
/// the bank's first activation, so construction is O(1) in the bank count
/// and an engine over millions of banks only pays for the banks the
/// workload touches.
pub struct BankEngine {
    pub(crate) banks: SparseBanks,
    pub(crate) accesses: u64,
    pub(crate) epochs: u64,
}

impl BankEngine {
    /// Creates an engine for `banks` banks of `rows_per_bank` rows each.
    /// `spec` is instantiated per bank **on the bank's first activation**
    /// (PRA banks get distinct deterministic seeds from their global bank
    /// index), so construction is O(1) in `banks`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is invalid for the bank geometry.
    pub fn new(spec: SchemeSpec, banks: u32, rows_per_bank: u32) -> Self {
        Self::with_bank_base(spec, banks, rows_per_bank, 0)
    }

    /// Like [`new`](Self::new), but bank `b` is instantiated as bank index
    /// `bank_base + b`. [`MemorySystem`] builds its per-slice engines
    /// with the slice's first global bank as the base, so every bank
    /// keeps the PRA seed it would have in one system-wide engine — that
    /// is what keeps per-slice routing bit-identical to the flat path.
    pub fn with_bank_base(
        spec: SchemeSpec,
        banks: u32,
        rows_per_bank: u32,
        bank_base: u32,
    ) -> Self {
        // Banks materialize lazily, so probe-build one instance up front:
        // an invalid spec/geometry still fails at construction, not at an
        // arbitrary later first touch.
        drop(spec.build_instance(rows_per_bank, bank_base));
        BankEngine {
            banks: SparseBanks::new(spec, banks, rows_per_bank, bank_base),
            accesses: 0,
            epochs: 0,
        }
    }

    /// Number of banks (with or without an attached scheme).
    pub fn bank_count(&self) -> usize {
        self.banks.capacity()
    }

    /// Accesses processed so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Epoch boundaries processed so far (batched and manual).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Row activations observed per bank, materialized densely (banks that
    /// were never activated report `0`).
    pub fn activations_per_bank(&self) -> Vec<u64> {
        let mut dense = vec![0u64; self.banks.capacity()];
        for (bank, record) in self.banks.records() {
            dense[bank] = record.activations;
        }
        dense
    }

    /// Drives one activation through bank `bank` and returns the refreshes
    /// the scheme requests. Fires no epoch boundaries — single-access
    /// callers (the timing simulator) own their epoch clock and call
    /// [`end_epoch`](Self::end_epoch) themselves.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is not below [`bank_count`](Self::bank_count).
    #[inline]
    pub fn activate(&mut self, bank: usize, row: u32) -> Refreshes {
        self.accesses += 1;
        let record = self.banks.touch(bank);
        record.activations += 1;
        match &mut record.scheme {
            Some(scheme) => scheme.on_activation(RowId(row)),
            None => Refreshes::none(),
        }
    }

    /// Signals an auto-refresh epoch boundary to every bank. Only
    /// materialized banks are visited: an unmaterialized bank is fresh,
    /// and `on_epoch_end` on a fresh instance is a bit-exact no-op
    /// (fresh-idempotence, `DESIGN.md §10`).
    pub fn end_epoch(&mut self) {
        self.epochs += 1;
        for scheme in self.banks.schemes_mut() {
            scheme.on_epoch_end();
        }
    }

    /// Processes a batch of `(bank, row)` activations in order, with the
    /// epoch boundaries dictated by the caller: `cuts[i]` fires
    /// `on_epoch_end` on every bank after the batch's first `cuts[i]`
    /// accesses. Positions must be nondecreasing and at most
    /// `batch.len()`; `0` and duplicates are allowed (boundaries before
    /// the first access / back-to-back empty epochs). It buckets the batch
    /// over this engine's banks through the same pass as
    /// [`MemorySystem`]'s batch path (`DESIGN.md §7`), with scratch local
    /// to the call, and returns the incrementally-aggregated outcome.
    ///
    /// ```
    /// use cat_core::SchemeSpec;
    /// use cat_engine::BankEngine;
    ///
    /// let spec = SchemeSpec::Sca { counters: 16, threshold: 64 };
    /// let mut engine = BankEngine::new(spec, 4, 4096);
    /// let batch: Vec<(u32, u32)> = (0..1_000).map(|i| (i % 4, 7)).collect();
    /// let out = engine.process_with_cuts(&batch, &[600]);
    /// assert_eq!((out.accesses, out.epochs), (1_000, 1));
    /// assert!(out.refresh_events > 0);
    /// assert_eq!(engine.epochs(), 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `cuts` is not a valid cut list, or if a bank of `batch`
    /// is not below [`bank_count`](Self::bank_count) (before any access of
    /// that bank's bucketing chunk is applied).
    pub fn process_with_cuts(&mut self, batch: &[(u32, u32)], cuts: &[usize]) -> BatchOutcome {
        validate_cuts(cuts, batch.len());
        let before = shard::refresh_totals(std::slice::from_ref(self));
        let origin = self.banks.base();
        Bucketer::default().run(batch, cuts, 0, self.bank_count(), |runs| {
            shard::replay(std::slice::from_mut(self), runs, origin);
        });
        let after = shard::refresh_totals(std::slice::from_ref(self));
        BatchOutcome {
            accesses: batch.len() as u64,
            epochs: cuts.len() as u64,
            refresh_events: after.0 - before.0,
            refreshed_rows: after.1 - before.1,
        }
    }

    /// One past this engine's last global bank.
    fn end_bank(&self) -> u32 {
        self.banks.base() + self.bank_count() as u32
    }

    /// Replays one bucketed run: local bank `bank`'s rows, in stream order,
    /// through one monomorphic [`SchemeInstance::run`] loop — the bank
    /// lookup is paid once per run, not once per access.
    fn replay_run(&mut self, bank: usize, rows: &[u32]) {
        self.accesses += rows.len() as u64;
        let record = self.banks.touch(bank);
        record.activations += rows.len() as u64;
        if let Some(scheme) = &mut record.scheme {
            scheme.run(rows, |_| {});
        }
    }

    /// Scheme statistics aggregated across banks, in ascending bank order.
    /// Unmaterialized banks contribute nothing (their stats are all-zero
    /// by fresh-idempotence), so only materialized banks are walked.
    pub fn stats(&self) -> SchemeStats {
        let mut total = SchemeStats::default();
        for s in self.schemes() {
            total.merge(s.stats());
        }
        total
    }

    /// Per-bank scheme statistics: one entry per bank in bank order, with
    /// all-zero stats synthesized for banks that were never touched (empty
    /// for [`SchemeSpec::None`], which attaches no schemes at all).
    pub fn per_bank_stats(&self) -> Vec<SchemeStats> {
        if !self.banks.has_scheme() {
            return Vec::new();
        }
        let mut stats = vec![SchemeStats::default(); self.banks.capacity()];
        for (bank, record) in self.banks.records() {
            if let Some(s) = &record.scheme {
                stats[bank] = *s.stats();
            }
        }
        stats
    }

    /// The materialized scheme instances, in ascending bank order (banks
    /// never touched have no instance yet and are skipped).
    pub fn schemes(&self) -> impl Iterator<Item = &SchemeInstance> {
        self.banks.schemes()
    }

    /// Resident-memory snapshot of the engine's sparse bank storage.
    pub fn footprint(&self) -> EngineFootprint {
        EngineFootprint {
            banks: self.banks.capacity(),
            materialized_banks: self.banks.materialized(),
            scheme_bytes: self.banks.scheme_bytes(),
            accounting_bytes: self.banks.container_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: u64, banks: u32) -> Vec<(u32, u32)> {
        // Deterministic hot/cold mix across all banks.
        (0..n)
            .map(|i| {
                let bank = (i % u64::from(banks)) as u32;
                let row = if i % 3 == 0 {
                    99
                } else {
                    (i.wrapping_mul(2_654_435_761) % 4096) as u32
                };
                (bank, row)
            })
            .collect()
    }

    /// Runs `batch` through `engine` with a boundary every `epoch`
    /// accesses of the engine's own stream — the cut list a system with
    /// `with_epoch_length(epoch)` computes for the same position.
    pub(crate) fn clocked(
        engine: &mut BankEngine,
        batch: &[(u32, u32)],
        epoch: u64,
    ) -> BatchOutcome {
        let mut cuts = Vec::new();
        epoch_cuts(batch.len(), engine.accesses(), Some(epoch), &mut cuts);
        engine.process_with_cuts(batch, &cuts)
    }

    /// One channel of `banks` banks: the system counterpart of a flat
    /// `BankEngine::new(spec, banks, 4096)`.
    fn one_channel(banks: u32) -> MemGeometry {
        MemGeometry {
            channels: 1,
            ranks_per_channel: 1,
            banks_per_rank: banks,
            rows_per_bank: 4096,
            lines_per_row: 16,
            line_bytes: 64,
        }
    }

    #[test]
    fn epoch_accounting_fires_at_global_positions() {
        let spec = SchemeSpec::Sca {
            counters: 16,
            threshold: 1 << 20,
        };
        let mut engine = BankEngine::new(spec, 4, 4096);
        let out = clocked(&mut engine, &batch(2_500, 4), 1_000);
        assert_eq!(out.epochs, 2);
        assert_eq!(engine.epochs(), 2);
        // The boundary state carries across process calls.
        let out = clocked(&mut engine, &batch(500, 4), 1_000);
        assert_eq!(out.epochs, 1);
        assert_eq!(engine.accesses(), 3_000);
    }

    #[test]
    fn none_spec_counts_activations_only() {
        let mut engine = BankEngine::new(SchemeSpec::None, 4, 4096);
        clocked(&mut engine, &batch(400, 4), 100);
        assert_eq!(engine.activations_per_bank(), &[100, 100, 100, 100]);
        assert!(engine.per_bank_stats().is_empty());
        assert_eq!(engine.stats(), SchemeStats::default());
        assert_eq!(engine.epochs(), 4);
    }

    #[test]
    fn batch_outcome_matches_scheme_stats_delta() {
        let spec = SchemeSpec::Sca {
            counters: 16,
            threshold: 64,
        };
        let mut engine = BankEngine::new(spec, 4, 4096);
        let out = engine.process_with_cuts(&batch(10_000, 4), &[]);
        let stats = engine.stats();
        assert_eq!(out.refresh_events, stats.refresh_events);
        assert_eq!(out.refreshed_rows, stats.refreshed_rows);
        assert!(out.refresh_events > 0);
    }

    #[test]
    fn sharded_equals_sequential_here_too() {
        // The exhaustive per-spec sweep lives in tests/equivalence.rs; this
        // is the quick in-crate smoke check.
        let spec = SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: 256,
        };
        let trace = batch(50_000, 8);
        let mut seq = BankEngine::new(spec, 8, 4096);
        clocked(&mut seq, &trace, 7_000);
        for shards in [1, 2, 4, 8, 64] {
            let mut sharded = MemorySystem::new(one_channel(8), spec)
                .with_epoch_length(7_000)
                .with_shards(shards);
            sharded.process(&trace);
            assert_eq!(sharded.stats(), seq.stats(), "{shards} shards");
            assert_eq!(sharded.per_bank_stats(), seq.per_bank_stats());
            assert_eq!(sharded.activations_per_bank(), seq.activations_per_bank());
            assert_eq!(sharded.epochs(), seq.epochs());
            assert_eq!(sharded.accesses(), seq.accesses());
        }
        assert!(seq.stats().refresh_events > 0);
    }

    #[test]
    fn system_survives_shard_count_changes() {
        // Changing the shard count of a live system re-carves its engines
        // (banks move by global index, scheme state intact) and keeps
        // producing sequential-identical results either way.
        let spec = SchemeSpec::Sca {
            counters: 16,
            threshold: 128,
        };
        let trace = batch(30_000, 8);
        let mut seq = BankEngine::new(spec, 8, 4096);
        clocked(&mut seq, &trace, 4_000);
        let mut sharded = MemorySystem::new(one_channel(8), spec).with_epoch_length(4_000);
        for (chunk, shards) in trace.chunks(10_000).zip([2usize, 4, 2]) {
            sharded = sharded.with_shards(shards);
            sharded.process(chunk);
        }
        assert_eq!(sharded.stats(), seq.stats());
        assert_eq!(sharded.epochs(), seq.epochs());
        assert_eq!(sharded.activations_per_bank(), seq.activations_per_bank());

        // The re-carved system still checkpoints bit-exactly: bring it to
        // the next epoch cut (30 000 is off the 4 000-access clock), then
        // restore into a fresh system of the same layout.
        sharded.process(&batch(2_000, 8));
        let image = sharded.checkpoint().unwrap();
        let mut restored = MemorySystem::new(one_channel(8), spec)
            .with_epoch_length(4_000)
            .with_shards(2);
        restored.restore(&image).unwrap();
        assert_eq!(restored.footprint(), sharded.footprint());
        assert_eq!(restored.stats(), sharded.stats());
    }

    #[test]
    fn activate_drives_single_accesses() {
        let spec = SchemeSpec::Sca {
            counters: 16,
            threshold: 4,
        };
        let mut engine = BankEngine::new(spec, 2, 4096);
        let mut rows = 0u64;
        for _ in 0..16 {
            rows += engine.activate(1, 123).total_rows();
        }
        engine.end_epoch();
        assert!(rows > 0, "threshold 4 must fire within 16 activations");
        assert_eq!(engine.activations_per_bank(), &[0, 16]);
        assert_eq!(engine.epochs(), 1);
        assert_eq!(engine.accesses(), 16);
        assert_eq!(engine.per_bank_stats().len(), 2);
    }

    #[test]
    #[should_panic(expected = "bank 4 out of range for banks 0..4")]
    fn activate_names_an_out_of_range_bank() {
        BankEngine::new(SchemeSpec::None, 4, 4096).activate(4, 0);
    }

    #[test]
    #[should_panic(expected = "bank 7 out of range for banks 0..4")]
    fn process_with_cuts_names_an_out_of_range_bank() {
        let spec = SchemeSpec::Sca {
            counters: 16,
            threshold: 64,
        };
        BankEngine::new(spec, 4, 4096).process_with_cuts(&[(7, 0)], &[]);
    }
}
