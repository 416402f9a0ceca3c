//! Lazily-materialized per-bank scheme storage — **the** sparse accessor
//! module (`DESIGN.md §10`).
//!
//! [`SparseBanks`] wraps a [`SparseSlab`] of [`SchemeInstance`]s plus the
//! recipe to build one: the [`SchemeSpec`], the per-bank row count and
//! the engine's bank base. A bank's scheme is built on the bank's *first
//! touch*, from the spec and the bank's deterministic global index — the
//! same pure function [`BankEngine::with_bank_base`] used to call for
//! every bank eagerly — so instantiation order cannot leak into results
//! and an engine over a million banks constructs in O(1).
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

/// Sparse, lazily-materialized map from local bank index to the bank's
/// [`SchemeInstance`] (see the module docs).
pub(crate) struct SparseBanks {
    spec: SchemeSpec,
    rows: u32,
    /// Global index of local bank 0 — the PRA seed derivation input.
    base: u32,
    slab: SparseSlab<SchemeInstance>,
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

    /// Number of banks this storage spans (materialized or not).
    pub(crate) fn capacity(&self) -> usize {
        self.slab.capacity()
    }

    /// Number of banks whose scheme instance has been materialized.
    pub(crate) fn materialized(&self) -> usize {
        self.slab.occupied()
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
    /// first, then materialize in ascending bank order, so the restored
    /// footprint is bit-equal to the saved one).
    pub(crate) fn reserve_block_capacity(&mut self, cap: usize) {
        self.slab.reserve_block_capacity(cap);
    }

    /// `true` when the spec attaches a scheme to banks at all.
    pub(crate) fn has_scheme(&self) -> bool {
        !matches!(self.spec, SchemeSpec::None)
    }

    /// The scheme of `bank`, materializing it on first touch. `None` only
    /// for [`SchemeSpec::None`], which builds no instance.
    #[inline]
    pub(crate) fn scheme_mut(&mut self, bank: usize) -> Option<&mut SchemeInstance> {
        if !self.slab.contains(bank) {
            let instance = self
                .spec
                .build_instance(self.rows, self.base + bank as u32)?;
            self.slab.insert(bank, instance);
        }
        self.slab.get_mut(bank)
    }

    /// Materialized schemes in ascending bank order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &SchemeInstance)> {
        self.slab.iter()
    }

    /// Mutable materialized schemes in ascending bank order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut SchemeInstance)> {
        self.slab.iter_mut()
    }

    /// Moves the donor's materialized banks in `range` (donor-local
    /// indices) here, the donor's `range.start` landing at local bank
    /// `at` — the re-carve step of `BankEngine::adopt`. An instance keeps
    /// the global index it was built with, so both sides must agree on
    /// it. Ascending inserts: O(materialized in range), not O(range).
    pub(crate) fn adopt_range(
        &mut self,
        at: usize,
        donor: &mut SparseBanks,
        range: std::ops::Range<usize>,
    ) {
        debug_assert_eq!(self.base as usize + at, donor.base as usize + range.start);
        let start = range.start;
        for (bank, instance) in donor.slab.drain_range(range) {
            self.slab.insert(at + bank - start, instance);
        }
    }

    /// Resident bytes of the materialized schemes themselves: the sum of
    /// per-instance footprints, with **no** container overhead. Purely
    /// per-bank, so it is invariant under any engine split and sums
    /// exactly across the slices of a partition (`DESIGN.md §12`) — the
    /// property the fleet's merged footprint relies on.
    pub(crate) fn scheme_bytes(&self) -> usize {
        self.iter()
            .map(|(_, instance)| instance.footprint_bytes())
            .sum()
    }

    /// Resident bytes of the slab's own block storage: directory plus
    /// slot vectors, minus the occupied slots' instance payload (already
    /// counted by [`scheme_bytes`](Self::scheme_bytes) — slot capacity is
    /// always at least the occupied count, so this never underflows).
    /// Depends on the engine split and touch order — accounting
    /// overhead, not scheme state.
    pub(crate) fn container_bytes(&self) -> usize {
        self.slab.heap_bytes() - self.materialized() * std::mem::size_of::<SchemeInstance>()
    }
}
