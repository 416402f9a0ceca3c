//! Lazily-materialized per-bank state — **the** sparse accessor module
//! (`DESIGN.md §10`).
//!
//! [`SparseBanks`] wraps one [`SparseSlab`] of [`Bank`] records — a
//! bank's activation count and its [`SchemeInstance`] — plus the recipe
//! to build one: the [`SchemeSpec`], the per-bank row count and the
//! engine's bank base. A bank's record is created on the bank's *first
//! touch*, its scheme built from the spec and the bank's deterministic
//! global index — the same pure function [`BankEngine::with_bank_base`]
//! used to call for every bank eagerly — so instantiation order cannot
//! leak into results and an engine over a million banks constructs in
//! O(1).
//!
//! Lazy materialization preserves the determinism contract (`DESIGN.md
//! §7`) because every scheme's `on_epoch_end` is *fresh-idempotent*: on a
//! freshly built instance it is a bit-exact no-op (locked by
//! `cat-core/tests/fresh_idempotence.rs`). A bank first touched in epoch
//! `k` therefore equals an eagerly-built bank that sat through `k`
//! boundaries, and untouched banks can skip boundaries entirely.
//!
//! Every other module in this crate goes through these accessors;
//! `cat-lint`'s `dense-banks` rule refuses direct dense indexing of bank
//! storage anywhere else under `crates/engine/src`.
//!
//! [`BankEngine::with_bank_base`]: crate::BankEngine::with_bank_base

use cat_core::{SchemeInstance, SchemeSpec, SparseSlab};

/// One touched bank: every activation it has seen and its scheme, which
/// exists exactly when the spec attaches one.
pub(crate) struct Bank {
    /// Row activations this bank has seen; at least 1 once touched.
    pub(crate) activations: u64,
    /// The bank's scheme instance; `None` only for [`SchemeSpec::None`].
    pub(crate) scheme: Option<SchemeInstance>,
}

/// Sparse, lazily-materialized map from local bank index to the bank's
/// record (see the module docs).
pub(crate) struct SparseBanks {
    spec: SchemeSpec,
    rows: u32,
    /// Global index of local bank 0 — the PRA seed derivation input.
    base: u32,
    slab: SparseSlab<Bank>,
}

impl SparseBanks {
    /// Storage for `banks` banks of `rows` rows each, local bank `b`
    /// carrying global index `base + b`. O(1): nothing is built yet.
    pub(crate) fn new(spec: SchemeSpec, banks: u32, rows: u32, base: u32) -> Self {
        SparseBanks {
            spec,
            rows,
            base,
            slab: SparseSlab::new(banks as usize),
        }
    }

    /// Number of banks this storage spans (touched or not).
    pub(crate) fn capacity(&self) -> usize {
        self.slab.capacity()
    }

    /// Number of touched banks.
    pub(crate) fn touched(&self) -> usize {
        self.slab.occupied()
    }

    /// Number of banks whose scheme instance has been materialized: every
    /// touched bank, unless the spec attaches no scheme.
    pub(crate) fn materialized(&self) -> usize {
        if self.has_scheme() {
            self.touched()
        } else {
            0
        }
    }

    /// Global index of local bank 0 (see the struct docs).
    pub(crate) fn base(&self) -> u32 {
        self.base
    }

    /// Allocated block-directory capacity of the underlying slab — the
    /// touch-order-dependent part of
    /// [`container_bytes`](Self::container_bytes) that checkpoints
    /// record as a high-water mark.
    pub(crate) fn block_capacity(&self) -> usize {
        self.slab.block_capacity()
    }

    /// Pre-grows the slab's block directory (checkpoint restore: reserve
    /// first, then touch in ascending bank order, so the restored
    /// footprint is bit-equal to the saved one).
    pub(crate) fn reserve_block_capacity(&mut self, cap: usize) {
        self.slab.reserve_block_capacity(cap);
    }

    /// `true` when the spec attaches a scheme to banks at all.
    pub(crate) fn has_scheme(&self) -> bool {
        !matches!(self.spec, SchemeSpec::None)
    }

    /// The record of `bank`, created with no activations and a fresh
    /// scheme on first touch — one slab lookup either way.
    #[inline]
    pub(crate) fn touch(&mut self, bank: usize) -> &mut Bank {
        let (spec, rows, base) = (self.spec, self.rows, self.base);
        self.slab.get_or_insert_with(bank, || Bank {
            activations: 0,
            scheme: spec.build_instance(rows, base + bank as u32),
        })
    }

    /// Touched banks' records in ascending bank order.
    pub(crate) fn records(&self) -> impl Iterator<Item = (usize, &Bank)> {
        self.slab.iter()
    }

    /// Materialized schemes in ascending bank order.
    pub(crate) fn schemes(&self) -> impl Iterator<Item = &SchemeInstance> {
        self.records().filter_map(|(_, b)| b.scheme.as_ref())
    }

    /// Mutable materialized schemes in ascending bank order.
    pub(crate) fn schemes_mut(&mut self) -> impl Iterator<Item = &mut SchemeInstance> {
        self.slab.iter_mut().filter_map(|(_, b)| b.scheme.as_mut())
    }

    /// Moves the donor's touched banks in `range` (donor-local indices)
    /// here, the donor's `range.start` landing at local bank `at` — the
    /// re-carve step of `BankEngine::adopt` — and returns the activations
    /// they carry. An instance keeps the global index it was built with,
    /// so both sides must agree on it. Ascending inserts: O(touched in
    /// range), not O(range).
    pub(crate) fn adopt_range(
        &mut self,
        at: usize,
        donor: &mut SparseBanks,
        range: std::ops::Range<usize>,
    ) -> u64 {
        debug_assert_eq!(self.base as usize + at, donor.base as usize + range.start);
        let start = range.start;
        let mut moved = 0;
        for (bank, record) in donor.slab.drain_range(range) {
            moved += record.activations;
            self.slab.insert(at + bank - start, record);
        }
        moved
    }

    /// Resident bytes of the materialized schemes themselves: the sum of
    /// per-instance footprints, with **no** container overhead. Purely
    /// per-bank, so it is invariant under any engine split and sums
    /// exactly across the slices of a partition (`DESIGN.md §12`) — the
    /// property the fleet's merged footprint relies on.
    pub(crate) fn scheme_bytes(&self) -> usize {
        self.schemes().map(SchemeInstance::footprint_bytes).sum()
    }

    /// Resident bytes of the slab's own block storage: directory plus
    /// record slots, activation counts included, minus the materialized
    /// instances' payload (already counted by
    /// [`scheme_bytes`](Self::scheme_bytes) — every such instance sits in
    /// an occupied slot, so this never underflows). Depends on the engine
    /// split and touch order — accounting overhead, not scheme state.
    pub(crate) fn container_bytes(&self) -> usize {
        self.slab.heap_bytes() - self.materialized() * std::mem::size_of::<SchemeInstance>()
    }
}
