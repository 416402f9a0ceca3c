//! Lazily-materialized per-bank state — **the** sparse accessor module
//! (`DESIGN.md §10`).
//!
//! [`SparseBanks`] holds the [`Bank`] records — a bank's activation count
//! and its [`SchemeInstance`] — plus the recipe to build one: the
//! [`SchemeSpec`], the per-bank row count and the engine's bank base. A
//! bank's record is created on the bank's *first touch*, its scheme built
//! from the spec and the bank's deterministic global index — the same pure
//! function [`BankEngine::with_bank_base`] used to call for every bank
//! eagerly — so instantiation order cannot leak into results and an engine
//! over a million banks constructs in O(1).
//!
//! The records live in 64-bank *bit-blocks*: a `u64` occupancy mask plus
//! the touched banks' records in ascending bank order, so bank `i` of a
//! block sits at rank `popcount(mask & ((1 << i) - 1))`. Blocks past the
//! highest touched bank are never allocated and an untouched bank costs no
//! record bytes. There is one layout only: the engine looks a bank up once
//! per bucketed run, not once per activation, and inserts it once in its
//! lifetime, so a dense direct-indexed layout for hot blocks would save
//! nothing measurable. Iteration is in ascending bank order regardless of
//! touch order — the store is purely index-addressed.
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

use cat_core::{SchemeInstance, SchemeSpec};

/// One touched bank: every activation it has seen and its scheme, which
/// exists exactly when the spec attaches one.
pub(crate) struct Bank {
    /// Row activations this bank has seen; at least 1 once touched.
    pub(crate) activations: u64,
    /// The bank's scheme instance; `None` only for [`SchemeSpec::None`].
    pub(crate) scheme: Option<SchemeInstance>,
}

/// 64 consecutive banks: which of them are touched, and their records in
/// ascending bank (rank) order.
#[derive(Default)]
struct Block {
    mask: u64,
    banks: Vec<Bank>,
}

/// Pairs block `b`'s records, in rank order, with their banks: each takes
/// the lowest remaining bit of `mask`, which sets one bit per record.
fn ranked<T>(
    b: usize,
    mut mask: u64,
    records: impl IntoIterator<Item = T>,
) -> impl Iterator<Item = (usize, T)> {
    records.into_iter().map(move |record| {
        let i = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        ((b << 6) + i, record)
    })
}

/// Sparse, lazily-materialized map from local bank index to the bank's
/// record (see the module docs).
pub(crate) struct SparseBanks {
    spec: SchemeSpec,
    rows: u32,
    /// Global index of local bank 0 — the PRA seed derivation input.
    base: u32,
    capacity: usize,
    touched: usize,
    /// Grown lazily up to the highest touched block only.
    blocks: Vec<Block>,
}

impl SparseBanks {
    /// Storage for `banks` banks of `rows` rows each, local bank `b`
    /// carrying global index `base + b`. O(1): nothing is built yet.
    pub(crate) fn new(spec: SchemeSpec, banks: u32, rows: u32, base: u32) -> Self {
        SparseBanks {
            spec,
            rows,
            base,
            capacity: banks as usize,
            touched: 0,
            blocks: Vec::new(),
        }
    }

    /// Number of banks this storage spans (touched or not).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of touched banks.
    pub(crate) fn touched(&self) -> usize {
        self.touched
    }

    /// Number of banks whose scheme instance has been materialized: every
    /// touched bank, unless the spec attaches no scheme.
    pub(crate) fn materialized(&self) -> usize {
        if self.has_scheme() {
            self.touched
        } else {
            0
        }
    }

    /// Global index of local bank 0 (see the struct docs).
    pub(crate) fn base(&self) -> u32 {
        self.base
    }

    /// Allocated capacity of the block directory — the touch-order
    /// dependent part of [`container_bytes`](Self::container_bytes) that
    /// checkpoints record as a high-water mark.
    pub(crate) fn block_capacity(&self) -> usize {
        self.blocks.capacity()
    }

    /// Grows the block directory's allocation to exactly `cap` blocks
    /// (checkpoint restore: reserve first, then touch in ascending bank
    /// order, so the restored footprint is bit-equal to the saved one —
    /// a block's record capacity depends only on its record count).
    pub(crate) fn reserve_block_capacity(&mut self, cap: usize) {
        self.blocks
            .reserve_exact(cap.saturating_sub(self.blocks.len()));
    }

    /// `true` when the spec attaches a scheme to banks at all.
    pub(crate) fn has_scheme(&self) -> bool {
        !matches!(self.spec, SchemeSpec::None)
    }

    /// The record of `bank`, created with no activations and a fresh
    /// scheme on first touch — one mask test and one rank either way.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is not below [`capacity`](Self::capacity).
    #[inline]
    pub(crate) fn touch(&mut self, bank: usize) -> &mut Bank {
        if bank >= self.capacity {
            crate::bank_out_of_range(bank, 0, self.capacity);
        }
        let (spec, rows, global) = (self.spec, self.rows, self.base + bank as u32);
        self.insert_with(bank, || Bank {
            activations: 0,
            scheme: spec.build_instance(rows, global),
        })
    }

    /// Places `record` (its scheme built for this store's global bank) at
    /// untouched local `bank` — the re-carve step of `MemorySystem::carve`
    /// — growing its block exactly as a touch would.
    pub(crate) fn put(&mut self, bank: usize, record: Bank) {
        let touched = self.touched;
        self.insert_with(bank, || record);
        debug_assert_eq!(self.touched, touched + 1, "bank {bank} placed twice");
    }

    /// The record of `bank`, inserted at its rank from `fresh` if untouched:
    /// the one insert step of [`touch`](Self::touch) and [`put`](Self::put).
    #[inline]
    fn insert_with(&mut self, bank: usize, fresh: impl FnOnce() -> Bank) -> &mut Bank {
        let (b, bit) = (bank >> 6, 1u64 << (bank & 63));
        if self.blocks.len() <= b {
            self.blocks.resize_with(b + 1, Block::default);
        }
        let block = &mut self.blocks[b];
        let rank = (block.mask & (bit - 1)).count_ones() as usize;
        if block.mask & bit == 0 {
            block.banks.insert(rank, fresh());
            block.mask |= bit;
            self.touched += 1;
        }
        &mut block.banks[rank]
    }

    /// Touched banks' records in ascending bank order.
    pub(crate) fn records(&self) -> impl Iterator<Item = (usize, &Bank)> {
        let blocks = self.blocks.iter().enumerate();
        blocks.flat_map(|(b, block)| ranked(b, block.mask, &block.banks))
    }

    /// Consumes the store into its touched banks' records, ascending.
    pub(crate) fn into_records(self) -> impl Iterator<Item = (usize, Bank)> {
        let blocks = self.blocks.into_iter().enumerate();
        blocks.flat_map(|(b, block)| ranked(b, block.mask, block.banks))
    }

    /// Materialized schemes in ascending bank order.
    pub(crate) fn schemes(&self) -> impl Iterator<Item = &SchemeInstance> {
        let banks = self.blocks.iter().flat_map(|block| &block.banks);
        banks.filter_map(|bank| bank.scheme.as_ref())
    }

    /// Mutable materialized schemes in ascending bank order.
    pub(crate) fn schemes_mut(&mut self) -> impl Iterator<Item = &mut SchemeInstance> {
        let banks = self.blocks.iter_mut().flat_map(|block| &mut block.banks);
        banks.filter_map(|bank| bank.scheme.as_mut())
    }

    /// Resident bytes of the materialized schemes themselves: the sum of
    /// per-instance footprints, with **no** container overhead. Purely
    /// per-bank, so it is invariant under any engine split and sums
    /// exactly across the slices of a partition (`DESIGN.md §12`) — the
    /// property the fleet's merged footprint relies on.
    pub(crate) fn scheme_bytes(&self) -> usize {
        self.schemes().map(SchemeInstance::footprint_bytes).sum()
    }

    /// Resident bytes of the block storage itself: directory plus record
    /// slots, activation counts included, minus the materialized
    /// instances' payload (already counted by
    /// [`scheme_bytes`](Self::scheme_bytes) — every such instance sits in
    /// a record slot, so this never underflows). Depends on the engine
    /// split and touch order — accounting overhead, not scheme state.
    pub(crate) fn container_bytes(&self) -> usize {
        let slots: usize = self.blocks.iter().map(|block| block.banks.capacity()).sum();
        self.blocks.capacity() * std::mem::size_of::<Block>() + slots * std::mem::size_of::<Bank>()
            - self.materialized() * std::mem::size_of::<SchemeInstance>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: SchemeSpec = SchemeSpec::Sca {
        counters: 4,
        threshold: 64,
    };

    /// Banks across several blocks, touched high block first and out of
    /// order within each block.
    const OUT_OF_ORDER: [usize; 9] = [4000, 700, 3, 130, 62, 0, 129, 4001, 64];

    fn touched_out_of_order() -> SparseBanks {
        let mut banks = SparseBanks::new(SPEC, 4096, 64, 0);
        for (i, &bank) in OUT_OF_ORDER.iter().enumerate() {
            banks.touch(bank).activations = i as u64 + 1;
        }
        banks
    }

    #[test]
    fn rank_select_survives_out_of_order_inserts() {
        let mut banks = touched_out_of_order();
        let mut want: Vec<usize> = OUT_OF_ORDER.to_vec();
        want.sort_unstable();
        let order: Vec<usize> = banks.records().map(|(bank, _)| bank).collect();
        assert_eq!(order, want);
        // Each record is still the one its bank's touch wrote.
        for (bank, record) in banks.records() {
            let i = OUT_OF_ORDER.iter().position(|&b| b == bank).unwrap();
            assert_eq!(record.activations, i as u64 + 1, "bank {bank}");
        }
        assert_eq!(banks.touched(), OUT_OF_ORDER.len());
        assert_eq!(banks.schemes().count(), OUT_OF_ORDER.len());
        assert_eq!(banks.schemes_mut().count(), OUT_OF_ORDER.len());
    }

    #[test]
    fn block_capacity_round_trips_heap_bytes() {
        // Out-of-order touches leave a directory capacity that an
        // ascending rebuild would not reach on its own; reserving the saved
        // capacity and re-touching in ascending order (checkpoint restore)
        // must reproduce the footprint exactly.
        let mut original = touched_out_of_order();
        for bank in (0..2048).step_by(5) {
            original.touch(bank);
        }
        let mut rebuilt = SparseBanks::new(SPEC, 4096, 64, 0);
        assert_eq!(rebuilt.container_bytes(), 0, "an empty store allocates");
        rebuilt.reserve_block_capacity(original.block_capacity());
        for (bank, _) in original.records() {
            rebuilt.touch(bank);
        }
        assert_eq!(rebuilt.block_capacity(), original.block_capacity());
        assert_eq!(rebuilt.container_bytes(), original.container_bytes());
        assert_eq!(rebuilt.touched(), original.touched());
    }

    #[test]
    fn records_move_one_by_one_as_touches_would() {
        // A store touched out of order across several blocks, consumed and
        // placed record by record 64 banks further on (a block boundary
        // apart), must hold the same records and grow exactly as an
        // ascending touch rebuild at that offset does. (SCA instances do
        // not depend on their bank index, so the shift is harmless here.)
        let source = touched_out_of_order();
        let want: Vec<(usize, u64)> = source
            .records()
            .map(|(bank, record)| (bank + 64, record.activations))
            .collect();
        let touched = source.touched();
        let mut moved = SparseBanks::new(SPEC, 4096 + 64, 64, 0);
        for (bank, record) in source.into_records() {
            moved.put(bank + 64, record);
        }
        let got: Vec<(usize, u64)> = moved
            .records()
            .map(|(bank, record)| (bank, record.activations))
            .collect();
        assert_eq!(got, want);
        assert_eq!(moved.touched(), touched);
        let mut rebuilt = SparseBanks::new(SPEC, 4096 + 64, 64, 0);
        for &(bank, _) in &want {
            rebuilt.touch(bank);
        }
        assert_eq!(moved.container_bytes(), rebuilt.container_bytes());
    }
}
