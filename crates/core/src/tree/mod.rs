//! The Counter-based Adaptive Tree (§IV) in the compact SRAM layout of
//! §IV-C: an array `I` of intermediate nodes (two tagged child pointers
//! each), an array `C` of counters, and — starting from a pre-split complete
//! tree of λ levels — direct indexing of the top `λ−1` address bits.
//!
//! The software goes one step further than the hardware: a derived leaf
//! table direct-indexes the top `L−1` address bits, so an activation finds
//! its counter with one load instead of the pointer walk. The table is a
//! software index, not modeled SRAM (DESIGN.md §3.6):
//! `sram_reads` still counts the nodes the §IV-C walk reads, the table is
//! counted in `heap_bytes`, and it is never serialized — `restore_state`
//! rebuilds it with a walk that also checks the restored pointers form a
//! tree. The walk itself (`locate`) runs only when a leaf splits.
//!
//! Runs of activations are replayed in two parts (DESIGN.md §3.7):
//! `record_quiet` counts the longest prefix in which no counter reaches
//! its threshold, one table load and one increment per row with the
//! statistics summed in registers, and [`CatTree::record`] takes only the
//! threshold-crossing row through Algorithm 1's split/refresh path.

mod layout;
pub mod reference;
mod shape;

pub use layout::{INode, NodeRef};
pub use shape::{LeafInfo, TreeShape};

use crate::scheme::{HardwareProfile, MitigationScheme, Refreshes, SchemeKind};
use crate::state::{StateError, StateReader};
use crate::{CatConfig, RowId, RowRange, SchemeStats, SplitThresholds};

/// Where a node reference is stored — needed to replace a leaf reference
/// with a freshly allocated intermediate node when the leaf splits.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum ParentSlot {
    /// Entry of the direct-indexed root table.
    Root(u32),
    /// Left child slot of intermediate node `i`.
    Left(u16),
    /// Right child slot of intermediate node `i`.
    Right(u16),
}

#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct Counter {
    pub value: u32,
    /// Split-threshold index `l_i` of Algorithm 1 (latched to `L−1` once
    /// every counter is active).
    pub tli: u8,
    /// Structural depth of the leaf in the tree.
    pub depth: u8,
    pub active: bool,
}

/// Result of recording one activation on the tree.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Activation {
    /// Range to refresh (group ± 1 victim row), if a counter reached `T`.
    pub refresh: Option<RowRange>,
    /// Index of the counter that absorbed the activation (after splits).
    pub counter: u16,
}

/// A Counter-based Adaptive Tree protecting one DRAM bank.
///
/// This type implements the bare CAT of §IV: the tree grows according to the
/// split thresholds and is never reset. The paper's deployable variants wrap
/// it: [`crate::Prcat`] rebuilds it at every auto-refresh epoch and
/// [`crate::Drcat`] adds weight-driven reconfiguration.
///
/// ```
/// use cat_core::{CatConfig, CatTree, MitigationScheme, RowId};
/// # fn main() -> Result<(), cat_core::ConfigError> {
/// let mut tree = CatTree::new(CatConfig::new(1024, 8, 6, 256)?);
/// // A heavily hammered row forces refreshes of its group ± 1 row.
/// let mut rows = 0;
/// for _ in 0..2048 {
///     rows += tree.on_activation(RowId(3)).total_rows();
/// }
/// assert!(rows > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CatTree {
    config: CatConfig,
    thresholds: SplitThresholds,
    pub(crate) roots: Vec<NodeRef>,
    pub(crate) inodes: Vec<INode>,
    pub(crate) counters: Vec<Counter>,
    /// Leaf table: entry `i` names the counter whose leaf covers rows
    /// `[i << leaf_shift, (i + 1) << leaf_shift)`. Derived from the tree,
    /// never serialized.
    leaf_of: Vec<u16>,
    /// `log2(rows) − (L − 1)`: rows per table entry, as a shift.
    leaf_shift: u32,
    free_counters: Vec<u16>,
    free_inodes: Vec<u16>,
    active_counters: usize,
    all_active: bool,
    stats: SchemeStats,
}

impl CatTree {
    /// Builds the initial pre-split tree: `2^{λ−1}` active counters at level
    /// `λ−1`, each covering `N / 2^{λ−1}` rows.
    pub fn new(config: CatConfig) -> Self {
        let m = config.counters();
        let root_count = 1usize << (config.lambda() - 1);
        let top = config.max_levels() - 1;
        let mut tree = CatTree {
            leaf_shift: config.rows().trailing_zeros() - top,
            thresholds: config.split_thresholds(),
            roots: Vec::with_capacity(root_count),
            inodes: Vec::with_capacity(m.saturating_sub(1)),
            counters: Vec::with_capacity(m),
            leaf_of: Vec::with_capacity(1 << top),
            free_counters: Vec::with_capacity(m - root_count),
            free_inodes: Vec::new(),
            active_counters: 0,
            all_active: false,
            stats: SchemeStats::default(),
            config,
        };
        tree.rebuild();
        tree
    }

    /// Puts every slab and the leaf table back to the pre-split shape,
    /// reusing their allocations. Statistics are left alone.
    fn rebuild(&mut self) {
        let lambda = self.config.lambda();
        let m = self.config.counters();
        let root_count = 1usize << (lambda - 1);
        let root = Counter {
            value: 0,
            tli: (lambda - 1) as u8,
            depth: (lambda - 1) as u8,
            active: true,
        };
        self.counters.clear();
        self.counters.resize(m, Counter::default());
        self.counters[..root_count].fill(root);
        self.roots.clear();
        self.roots
            .extend((0..root_count).map(|i| NodeRef::Leaf(i as u16)));
        self.inodes.clear();
        self.free_inodes.clear();
        // Free counters popped in ascending index order.
        self.free_counters.clear();
        self.free_counters
            .extend((root_count..m).rev().map(|i| i as u16));
        // Root g covers table entries [g << (L−λ), (g + 1) << (L−λ)).
        let top = self.config.max_levels() - 1;
        let per_root = self.config.max_levels() - lambda;
        self.leaf_of.clear();
        self.leaf_of
            .extend((0..1u32 << top).map(|i| (i >> per_root) as u16));
        self.active_counters = root_count;
        self.all_active = root_count == m;
        if self.all_active {
            self.latch_all_thresholds();
        }
    }

    /// The configuration this tree was built from.
    pub fn config(&self) -> &CatConfig {
        &self.config
    }

    /// The split thresholds in use.
    pub fn thresholds(&self) -> &SplitThresholds {
        &self.thresholds
    }

    /// Resident heap bytes of the tree's slabs (`I`, `C`, roots and free
    /// lists) plus the `2^{L−1}`-entry leaf table. The slabs are
    /// deliberately dense: they hold at most `M` (≤ 64 in every paper
    /// configuration) entries — the tree itself is the compression, so
    /// bit-block storage would only add overhead.
    pub fn heap_bytes(&self) -> usize {
        self.roots.capacity() * std::mem::size_of::<NodeRef>()
            + self.inodes.capacity() * std::mem::size_of::<INode>()
            + self.counters.capacity() * std::mem::size_of::<Counter>()
            + self.leaf_of.capacity() * std::mem::size_of::<u16>()
            + self.free_counters.capacity() * std::mem::size_of::<u16>()
            + self.free_inodes.capacity() * std::mem::size_of::<u16>()
    }

    /// Number of currently active counters.
    pub fn active_counters(&self) -> usize {
        self.active_counters
    }

    /// `true` once every counter has been activated (Algorithm 1 then
    /// latches every split-threshold index to `L−1`).
    pub fn fully_grown(&self) -> bool {
        self.all_active
    }

    /// Rows per direct-indexed subtree root.
    fn root_span(&self) -> u32 {
        self.config.rows() >> (self.config.lambda() - 1)
    }

    /// The leaf covering `row`, read from the leaf table: its counter and
    /// row range. A leaf at depth `d` spans `rows >> d` aligned rows.
    fn leaf(&self, row: u32) -> (u16, u32, u32) {
        let c = self.leaf_of[(row >> self.leaf_shift) as usize];
        let span = self.config.rows() >> self.counters[c as usize].depth;
        let lo = row & !(span - 1);
        (c, lo, lo + span - 1)
    }

    /// Walks the tree to the leaf covering `row`, as the §IV-C hardware
    /// does. Returns the counter index, its range, its parent slot and the
    /// number of intermediate nodes read. Only splits need the slot; every
    /// other lookup goes through the leaf table.
    pub(crate) fn locate(&self, row: u32) -> (u16, u32, u32, ParentSlot, u32) {
        debug_assert!(row < self.config.rows());
        let span = self.root_span();
        let g = row / span;
        let mut lo = g * span;
        let mut hi = lo + span - 1;
        let mut slot = ParentSlot::Root(g);
        let mut node = self.roots[g as usize];
        let mut visits = 0u32;
        loop {
            match node {
                NodeRef::Leaf(c) => return (c, lo, hi, slot, visits),
                NodeRef::Inode(i) => {
                    visits += 1;
                    let mid = lo + (hi - lo) / 2;
                    let inode = &self.inodes[i as usize];
                    if row <= mid {
                        hi = mid;
                        slot = ParentSlot::Left(i);
                        node = inode.left;
                    } else {
                        lo = mid + 1;
                        slot = ParentSlot::Right(i);
                        node = inode.right;
                    }
                }
            }
        }
    }

    pub(crate) fn set_slot(&mut self, slot: ParentSlot, node: NodeRef) {
        match slot {
            ParentSlot::Root(g) => self.roots[g as usize] = node,
            ParentSlot::Left(i) => self.inodes[i as usize].left = node,
            ParentSlot::Right(i) => self.inodes[i as usize].right = node,
        }
    }

    fn alloc_inode(&mut self, inode: INode) -> u16 {
        if let Some(idx) = self.free_inodes.pop() {
            self.inodes[idx as usize] = inode;
            idx
        } else {
            let idx = self.inodes.len() as u16;
            self.inodes.push(inode);
            idx
        }
    }

    fn latch_all_thresholds(&mut self) {
        let top = (self.config.max_levels() - 1) as u8;
        for c in self.counters.iter_mut().filter(|c| c.active) {
            c.tli = top;
        }
        self.all_active = true;
    }

    /// Splits leaf `c` (covering `[lo, hi]`, stored in `slot`): the left
    /// half stays with `c`, the right half goes to a newly activated clone
    /// (Algorithm 1 lines 15–22). Returns the new counter, or `None` when
    /// no counter is free or the leaf is already at level `L−1` — the leaf
    /// table's granularity, so no leaf is deeper.
    pub(crate) fn split_leaf(&mut self, c: u16, lo: u32, hi: u32, slot: ParentSlot) -> Option<u16> {
        let top = (self.config.max_levels() - 1) as u8;
        let parent = self.counters[c as usize];
        if parent.depth >= top {
            return None;
        }
        let nc = self.free_counters.pop()?;
        let child_tli = (parent.tli + 1).min(top);
        self.counters[nc as usize] = Counter {
            value: parent.value,
            tli: child_tli,
            depth: parent.depth + 1,
            active: true,
        };
        self.counters[c as usize].tli = child_tli;
        self.counters[c as usize].depth = parent.depth + 1;
        let inode = self.alloc_inode(INode {
            left: NodeRef::Leaf(c),
            right: NodeRef::Leaf(nc),
        });
        self.set_slot(slot, NodeRef::Inode(inode));
        // The right half's table entries now name the clone.
        let mid = lo + (hi - lo) / 2;
        let s = self.leaf_shift;
        self.leaf_of[((mid + 1) >> s) as usize..=(hi >> s) as usize].fill(nc);
        self.active_counters += 1;
        self.stats.splits += 1;
        self.stats.sram_writes += 2; // new intermediate node + cloned counter
        if self.active_counters == self.config.counters() {
            self.latch_all_thresholds();
        }
        Some(nc)
    }

    /// Books `n` counter read-modify-writes on leaves whose depths sum to
    /// `depth_sum`, the deepest at `deepest`. The §IV-C walk reads one
    /// intermediate node per level below the direct-indexed roots plus the
    /// counter, so each activation reads `depth − (λ−1) + 1` words.
    fn book(&mut self, n: u64, depth_sum: u64, deepest: u8) {
        self.stats.activations += n;
        self.stats.sram_writes += n;
        self.stats.sram_reads += depth_sum + n - n * u64::from(self.config.lambda() - 1);
        self.stats.max_depth_touched = self.stats.max_depth_touched.max(u64::from(deepest));
    }

    /// Records the longest prefix of `rows` in which no activation brings
    /// its counter to its threshold, and returns its length. Each such
    /// activation is only Algorithm 1's counter increment, so
    /// the statistics are summed in registers and booked once.
    ///
    /// Stops *before* the first row that would reach a split or refresh
    /// threshold, or that is out of range, leaving it untouched for
    /// [`CatTree::record`]: the table has `rows >> leaf_shift` entries, so
    /// its bounds check is exactly `row < rows`.
    pub(crate) fn record_quiet(&mut self, rows: &[u32]) -> usize {
        let shift = self.leaf_shift;
        let (leaf_of, counters, thresholds) = (&self.leaf_of, &mut self.counters, &self.thresholds);
        let (mut depth_sum, mut deepest) = (0u64, 0u8);
        let mut n = 0;
        for &row in rows {
            let Some(&c) = leaf_of.get((row >> shift) as usize) else {
                break;
            };
            let counter = &mut counters[c as usize];
            if counter.value + 1 >= thresholds.threshold_for_level(u32::from(counter.tli)) {
                break;
            }
            counter.value += 1;
            depth_sum += u64::from(counter.depth);
            deepest = deepest.max(counter.depth);
            n += 1;
        }
        self.book(n as u64, depth_sum, deepest);
        n
    }

    /// Records one activation; the core of Algorithm 1's counter module plus
    /// the reconfiguration counter module's split handling.
    pub fn record(&mut self, row: RowId) -> Activation {
        if self.record_quiet(std::slice::from_ref(&row.0)) == 1 {
            return Activation {
                refresh: None,
                counter: self.leaf_of[(row.0 >> self.leaf_shift) as usize],
            };
        }
        // The activation reaches a threshold (or is out of range).
        let rows = self.config.rows();
        assert!(
            row.0 < rows,
            "row {row} out of range (bank has {rows} rows)"
        );
        let (mut c, mut lo, mut hi) = self.leaf(row.0);
        let depth = self.counters[c as usize].depth;
        self.book(1, u64::from(depth), depth);
        self.counters[c as usize].value += 1;
        loop {
            let counter = self.counters[c as usize];
            let threshold = self.thresholds.threshold_for_level(u32::from(counter.tli));
            if counter.value < threshold {
                return Activation {
                    refresh: None,
                    counter: c,
                };
            }
            let top_level = counter.tli as u32 == self.config.max_levels() - 1;
            if top_level || threshold == self.thresholds.refresh_threshold() {
                // Refresh the group plus its two adjacent victim rows.
                self.counters[c as usize].value = 0;
                let range = RowRange::new(lo, hi).expand_victims(rows);
                self.stats.refresh_events += 1;
                self.stats.refreshed_rows += range.len();
                return Activation {
                    refresh: Some(range),
                    counter: c,
                };
            }
            // Split threshold reached below the maximum level: activate a
            // clone (RCM). If no counter is free the tree is fully grown and
            // thresholds were latched to T, so the loop terminates above.
            // Splits are rare, so only they walk the tree for the slot.
            let (_, _, _, slot, _) = self.locate(row.0);
            match self.split_leaf(c, lo, hi, slot) {
                Some(_) => {
                    // Descend into the half containing the activated row;
                    // the clone kept the parent's value, so a larger split
                    // threshold may already be met (cascade).
                    (c, lo, hi) = self.leaf(row.0);
                }
                None => {
                    // Cannot split further (leaf at level L−1): count up to T
                    // at this level instead.
                    self.counters[c as usize].tli = (self.config.max_levels() - 1) as u8;
                }
            }
        }
    }

    /// Depth-first search for an intermediate node whose two children are
    /// both leaves with zero weight — a pair of cold sibling counters that
    /// DRCAT may merge (§V-B step 1). The hot counter `exclude` is never
    /// eligible. Returns `(slot of the inode, inode index, left leaf,
    /// right leaf)`.
    pub(crate) fn find_cold_pair(
        &self,
        weights: &[u8],
        exclude: u16,
    ) -> Option<(ParentSlot, u16, u16, u16)> {
        let mut stack: Vec<(NodeRef, ParentSlot)> = self
            .roots
            .iter()
            .enumerate()
            .map(|(g, node)| (*node, ParentSlot::Root(g as u32)))
            .collect();
        while let Some((node, slot)) = stack.pop() {
            if let NodeRef::Inode(i) = node {
                let inode = self.inodes[i as usize];
                if let Some((l, r)) = inode.both_leaves() {
                    if l != exclude
                        && r != exclude
                        && weights[l as usize] == 0
                        && weights[r as usize] == 0
                    {
                        return Some((slot, i, l, r));
                    }
                } else {
                    stack.push((inode.left, ParentSlot::Left(i)));
                    stack.push((inode.right, ParentSlot::Right(i)));
                }
            }
        }
        None
    }

    /// Merges the two cold sibling leaves below intermediate node `inode`:
    /// the right leaf is promoted into the parent slot (as in Fig. 7, where
    /// C5 is promoted and C2 released) carrying the *maximum* of the two
    /// counter values — merging must never under-count any row in the
    /// combined group. Returns the released counter index.
    pub(crate) fn merge_pair(
        &mut self,
        slot: ParentSlot,
        inode: u16,
        left: u16,
        right: u16,
    ) -> u16 {
        debug_assert_eq!(
            self.inodes[inode as usize].both_leaves(),
            Some((left, right))
        );
        let lv = self.counters[left as usize].value;
        let rv = self.counters[right as usize].value;
        self.counters[right as usize].value = lv.max(rv);
        self.counters[right as usize].depth -= 1;
        self.counters[left as usize] = Counter::default();
        self.set_slot(slot, NodeRef::Leaf(right));
        self.leaf_of
            .iter_mut()
            .filter(|e| **e == left)
            .for_each(|e| *e = right);
        self.free_inodes.push(inode);
        self.free_counters.push(left);
        self.active_counters -= 1;
        self.stats.merges += 1;
        self.stats.sram_writes += 2;
        left
    }

    /// Finds the leaf holding counter `c`: its parent slot and row range.
    pub(crate) fn find_leaf(&self, c: u16) -> Option<(ParentSlot, u32, u32)> {
        let span = self.root_span();
        for (g, root) in self.roots.iter().enumerate() {
            let lo = g as u32 * span;
            let mut stack = vec![(*root, lo, lo + span - 1, ParentSlot::Root(g as u32))];
            while let Some((node, lo, hi, slot)) = stack.pop() {
                match node {
                    NodeRef::Leaf(idx) if idx == c => return Some((slot, lo, hi)),
                    NodeRef::Leaf(_) => {}
                    NodeRef::Inode(i) => {
                        let mid = lo + (hi - lo) / 2;
                        let inode = self.inodes[i as usize];
                        stack.push((inode.left, lo, mid, ParentSlot::Left(i)));
                        stack.push((inode.right, mid + 1, hi, ParentSlot::Right(i)));
                    }
                }
            }
        }
        None
    }

    /// Splits the (hot) leaf `c` using a previously released counter (§V-B
    /// step 2). Fails when the leaf is already at level `L−1` (see
    /// `split_leaf`) or no counter is free. Returns the new counter index.
    pub(crate) fn split_hot(&mut self, c: u16) -> Option<u16> {
        let (slot, lo, hi) = self.find_leaf(c)?;
        let was_tli = self.counters[c as usize].tli;
        let split = self.split_leaf(c, lo, hi, slot);
        if let Some(nc) = split {
            // Reconfiguration happens on the fully grown tree: thresholds
            // stay latched at L−1 rather than following the depth.
            if self.all_active {
                let top = (self.config.max_levels() - 1) as u8;
                self.counters[c as usize].tli = top;
                self.counters[nc as usize].tli = top;
            } else {
                self.counters[c as usize].tli = was_tli;
                self.counters[nc as usize].tli = was_tli;
            }
            Some(nc)
        } else {
            None
        }
    }

    /// Resets the tree to its initial pre-split state (used by PRCAT at
    /// every auto-refresh epoch) in place, without reallocating. Statistics
    /// are preserved.
    pub fn reset(&mut self) {
        self.rebuild();
    }

    /// Zeroes every active counter value but keeps the tree structure
    /// (DRCAT's epoch behaviour: rows were just auto-refreshed, so counts
    /// restart, but the learned shape is retained).
    pub fn zero_counters(&mut self) {
        for c in self.counters.iter_mut().filter(|c| c.active) {
            c.value = 0;
        }
    }

    /// Current value of counter `c` (for tests and diagnostics).
    pub fn counter_value(&self, c: u16) -> Option<u32> {
        let counter = self.counters.get(c as usize)?;
        counter.active.then_some(counter.value)
    }

    /// Snapshot of the tree shape (leaf ranges and depths), ordered by row.
    pub fn shape(&self) -> TreeShape {
        shape::collect(self)
    }

    pub(crate) fn stats_mut(&mut self) -> &mut SchemeStats {
        &mut self.stats
    }

    /// Appends the tree's complete mutable state for checkpointing: stats,
    /// the node arrays `I` and `C`, the root table, both free lists (whose
    /// pop/push *order* determines future allocations, so they round-trip
    /// verbatim), and the growth latch.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        self.stats.save_state(out);
        out.push(self.active_counters as u64);
        out.push(u64::from(self.all_active));
        out.push(self.roots.len() as u64);
        out.extend(self.roots.iter().map(|&n| pack_node(n)));
        out.push(self.inodes.len() as u64);
        for inode in &self.inodes {
            out.push(pack_node(inode.left));
            out.push(pack_node(inode.right));
        }
        out.push(self.counters.len() as u64);
        for c in &self.counters {
            out.push(
                u64::from(c.value)
                    | u64::from(c.tli) << 32
                    | u64::from(c.depth) << 40
                    | u64::from(c.active) << 48,
            );
        }
        out.push(self.free_counters.len() as u64);
        out.extend(self.free_counters.iter().map(|&i| u64::from(i)));
        out.push(self.free_inodes.len() as u64);
        out.extend(self.free_inodes.iter().map(|&i| u64::from(i)));
    }

    /// Restores state captured by [`CatTree::save_state`] onto a freshly
    /// built tree of the same configuration, and rebuilds the leaf table.
    ///
    /// Every structural invariant is revalidated: index bounds, the active
    /// count against the counter flags, free-list sizes against the active
    /// count, entry distinctness, and the shape itself — the walk that
    /// rebuilds the leaf table accepts only a tree whose leaves are exactly
    /// the active counters at their recorded depths. A corrupted stream
    /// cannot produce a silently inconsistent tree, nor one whose walk
    /// never ends.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on any malformed or inconsistent value.
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let m = self.counters.len();
        let root_count = self.roots.len();
        let top = (self.config.max_levels() - 1) as u8;
        self.stats.restore_state(r)?;
        let active_counters = r.next_word()? as usize;
        if !(root_count..=m).contains(&active_counters) {
            return Err(StateError::Invalid("tree active counter count"));
        }
        let all_active = r.next_bool()?;
        // The latch is sticky: it fires when the tree first becomes fully
        // grown and survives later merges, so only the forward implication
        // can be checked.
        if active_counters == m && !all_active {
            return Err(StateError::Invalid("tree growth latch"));
        }
        if r.next_word()? != root_count as u64 {
            return Err(StateError::Invalid("tree root count"));
        }
        let mut roots = Vec::with_capacity(root_count);
        // Inode count arrives after the roots; node references into the
        // inode array are validated against it in a second pass below.
        for _ in 0..root_count {
            roots.push(r.next_word()?);
        }
        let inode_len = r.next_word()? as usize;
        if inode_len > m.saturating_sub(1) {
            return Err(StateError::Invalid("tree inode count"));
        }
        let mut inodes = Vec::with_capacity(inode_len);
        for _ in 0..inode_len {
            let left = unpack_node(r.next_word()?, m, inode_len)?;
            let right = unpack_node(r.next_word()?, m, inode_len)?;
            inodes.push(INode { left, right });
        }
        let roots: Vec<NodeRef> = roots
            .into_iter()
            .map(|w| unpack_node(w, m, inode_len))
            .collect::<Result<_, _>>()?;
        if r.next_word()? != m as u64 {
            return Err(StateError::Invalid("tree counter count"));
        }
        let mut counters = Vec::with_capacity(m);
        let mut active_seen = 0usize;
        for _ in 0..m {
            let w = r.next_word()?;
            if w >> 49 != 0 {
                return Err(StateError::Invalid("tree counter stray bits"));
            }
            let counter = Counter {
                value: w as u32,
                tli: (w >> 32) as u8,
                depth: (w >> 40) as u8,
                active: (w >> 48) & 1 == 1,
            };
            if counter.tli > top || counter.depth > top {
                return Err(StateError::Invalid("tree counter level out of range"));
            }
            active_seen += usize::from(counter.active);
            counters.push(counter);
        }
        if active_seen != active_counters {
            return Err(StateError::Invalid("tree active flags vs count"));
        }
        let (leaf_of, reached) = index_leaves(&self.config, &roots, &inodes, &counters)?;
        let free_counters =
            read_free_list(r, m - active_counters, m, |i| !counters[i as usize].active)?;
        // The walk reached `active − roots` distinct intermediate nodes
        // (a full binary forest), so this cannot underflow.
        let live_inodes = active_counters - root_count;
        let free_inodes = read_free_list(r, inode_len - live_inodes, inode_len, |i| {
            !reached[i as usize]
        })?;
        // clear + extend (rather than replacing the Vecs) preserves the
        // capacities `new()` established, keeping `heap_bytes` bit-equal
        // with a never-checkpointed tree.
        self.roots.clear();
        self.roots.extend(roots);
        self.inodes.clear();
        self.inodes.extend(inodes);
        self.counters = counters;
        self.leaf_of = leaf_of;
        self.free_counters.clear();
        self.free_counters.extend(free_counters);
        self.free_inodes.clear();
        self.free_inodes.extend(free_inodes);
        self.active_counters = active_counters;
        self.all_active = all_active;
        Ok(())
    }

    fn profile(&self, kind: SchemeKind) -> HardwareProfile {
        HardwareProfile {
            kind,
            counters: self.config.counters(),
            counter_bits: self.config.counter_bits(),
            max_levels: self.config.max_levels(),
            prng_bits_per_activation: 0,
            refresh_threshold: self.config.refresh_threshold(),
        }
    }

    pub(crate) fn hardware_as(&self, kind: SchemeKind) -> HardwareProfile {
        self.profile(kind)
    }
}

/// Packs a node reference as `tag << 16 | index` (tag 1 = leaf).
fn pack_node(n: NodeRef) -> u64 {
    u64::from(n.is_leaf()) << 16 | u64::from(n.index())
}

/// Unpacks and bounds-checks a node reference against the counter and
/// intermediate-node array sizes.
fn unpack_node(w: u64, counters: usize, inodes: usize) -> Result<NodeRef, StateError> {
    if w >> 17 != 0 {
        return Err(StateError::Invalid("tree node reference stray bits"));
    }
    let idx = (w & 0xffff) as u16;
    if w >> 16 == 1 {
        if (idx as usize) < counters {
            Ok(NodeRef::Leaf(idx))
        } else {
            Err(StateError::Invalid("tree leaf index out of range"))
        }
    } else if (idx as usize) < inodes {
        Ok(NodeRef::Inode(idx))
    } else {
        Err(StateError::Invalid("tree inode index out of range"))
    }
}

/// Walks the tree from the root table and returns its leaf table plus which
/// intermediate nodes the walk reached. The walk is also the shape check
/// for restored state: every reached intermediate node must be reached
/// once and sit above level `L−1`; every leaf must be an active counter,
/// reached once, whose stored depth is its walk depth; and every active
/// counter must be reached. Node indices are already bounds-checked.
fn index_leaves(
    config: &CatConfig,
    roots: &[NodeRef],
    inodes: &[INode],
    counters: &[Counter],
) -> Result<(Vec<u16>, Vec<bool>), StateError> {
    let top = config.max_levels() - 1;
    let shift = config.rows().trailing_zeros() - top;
    let root_depth = config.lambda() - 1;
    let span = config.rows() >> root_depth;
    let mut leaf_of = vec![0u16; 1 << top];
    let mut inode_seen = vec![false; inodes.len()];
    let mut counter_seen = vec![false; counters.len()];
    let mut leaves = 0usize;
    let mut stack: Vec<(NodeRef, u32, u32)> = roots
        .iter()
        .enumerate()
        .map(|(g, &node)| (node, g as u32 * span, root_depth))
        .collect();
    while let Some((node, lo, depth)) = stack.pop() {
        match node {
            NodeRef::Inode(i) => {
                if depth >= top {
                    return Err(StateError::Invalid("tree deeper than L levels"));
                }
                if std::mem::replace(&mut inode_seen[i as usize], true) {
                    return Err(StateError::Invalid("tree node reached twice"));
                }
                let inode = inodes[i as usize];
                stack.push((inode.left, lo, depth + 1));
                stack.push((inode.right, lo + (config.rows() >> (depth + 1)), depth + 1));
            }
            NodeRef::Leaf(c) => {
                let counter = counters[c as usize];
                if !counter.active {
                    return Err(StateError::Invalid("tree leaf is an inactive counter"));
                }
                if u32::from(counter.depth) != depth {
                    return Err(StateError::Invalid("tree counter depth vs shape"));
                }
                if std::mem::replace(&mut counter_seen[c as usize], true) {
                    return Err(StateError::Invalid("tree counter reached twice"));
                }
                leaves += 1;
                let first = (lo >> shift) as usize;
                let entries = (config.rows() >> depth >> shift) as usize;
                leaf_of[first..first + entries].fill(c);
            }
        }
    }
    if leaves != counters.iter().filter(|c| c.active).count() {
        return Err(StateError::Invalid("tree active counter unreached"));
    }
    Ok((leaf_of, inode_seen))
}

/// Reads a free list of exactly `expect` entries, each `< bound`, all
/// distinct, each passing `eligible` (e.g. "that counter is inactive").
fn read_free_list(
    r: &mut StateReader<'_>,
    expect: usize,
    bound: usize,
    eligible: impl Fn(u16) -> bool,
) -> Result<Vec<u16>, StateError> {
    if r.next_word()? != expect as u64 {
        return Err(StateError::Invalid("tree free-list length"));
    }
    let mut seen = vec![false; bound];
    let mut list = Vec::with_capacity(expect);
    for _ in 0..expect {
        let idx = r.next_u16()?;
        let Some(slot) = seen.get_mut(idx as usize) else {
            return Err(StateError::Invalid("tree free-list index out of range"));
        };
        if *slot || !eligible(idx) {
            return Err(StateError::Invalid("tree free-list entry inconsistent"));
        }
        *slot = true;
        list.push(idx);
    }
    Ok(list)
}

impl MitigationScheme for CatTree {
    fn on_activation(&mut self, row: RowId) -> Refreshes {
        match self.record(row).refresh {
            Some(range) => Refreshes::one(range),
            None => Refreshes::none(),
        }
    }

    fn on_epoch_end(&mut self) {
        // The bare CAT keeps counting across epochs (conservative but safe:
        // counts only over-estimate activations since the last refresh).
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn hardware(&self) -> HardwareProfile {
        // Hardware-wise the bare CAT is PRCAT without the epoch reset.
        self.profile(SchemeKind::Prcat)
    }

    fn rows(&self) -> u32 {
        self.config.rows()
    }

    fn name(&self) -> String {
        format!("CAT_{}", self.config.counters())
    }
}

/// Drives the access sequence that sculpts Figure 5(a)'s tree shape on the
/// N = 32, M = 8, L = 6, T = 64, λ = 1, doubling-thresholds configuration:
/// leaf depths (ascending rows) 3,5,5,4,3,4,4,1 over row fractions
/// 4,1,1,2,4,2,2,16 (out of 32). Test helper shared with the DRCAT tests.
#[cfg(test)]
pub(crate) fn build_figure5<S: FnMut(RowId)>(mut access: S) {
    for _ in 0..32 {
        access(RowId(4)); // splits [0,32)→…→[4,5)/[5,6) chain
    }
    for _ in 0..12 {
        access(RowId(12)); // splits [8,16)→[8,12)+[12,16)→[12,14)+[14,16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Drcat, Prcat, ThresholdPolicy};
    use cat_prng::rngs::StdRng;
    use cat_prng::{splitmix64, Rng, SeedableRng};

    fn small_cfg() -> CatConfig {
        CatConfig::new(1024, 8, 6, 256).unwrap()
    }

    /// The configuration used to reproduce Figure 5's tree: N = 32, M = 8,
    /// L = 6, T = 64, built from the root (λ = 1) with doubling thresholds
    /// (2, 4, 8, 16, 32).
    fn figure5_cfg() -> CatConfig {
        CatConfig::new(32, 8, 6, 64)
            .unwrap()
            .with_policy(ThresholdPolicy::Doubling)
            .with_lambda(1)
            .unwrap()
    }

    #[test]
    fn initial_shape_is_pre_split_partition() {
        let tree = CatTree::new(small_cfg());
        let shape = tree.shape();
        assert_eq!(shape.leaves().len(), 4); // λ = 3 ⇒ 2^{λ−1} = 4 leaves
        assert!(shape.is_partition(1024));
        assert_eq!(shape.depth_profile(), vec![2, 2, 2, 2]);
        assert_eq!(tree.active_counters(), 4);
        assert!(!tree.fully_grown());
    }

    #[test]
    fn figure5_shape_reproduced() {
        let mut tree = CatTree::new(figure5_cfg());
        build_figure5(|row| {
            tree.record(row);
        });
        let shape = tree.shape();
        assert!(shape.is_partition(32));
        assert_eq!(shape.depth_profile(), vec![3, 5, 5, 4, 3, 4, 4, 1]);
        let spans: Vec<u64> = shape.leaves().iter().map(|l| l.range.len()).collect();
        assert_eq!(spans, vec![4, 1, 1, 2, 4, 2, 2, 16]);
        assert!(tree.fully_grown());
        // All split-threshold indices latch to L−1 = 5 once fully grown.
        assert!(shape.leaves().iter().all(|l| l.tli == 5));
        assert_eq!(tree.stats().splits, 7);
    }

    #[test]
    fn uniform_accesses_grow_a_balanced_tree() {
        // Fig. 4(b): uniform row accesses distribute the counters uniformly
        // (the CAT "mimics SCA" at level log2 M). Rotate across the four
        // pre-split regions so the access rate is uniform in time.
        let mut tree = CatTree::new(small_cfg());
        let mut i = 0u32;
        while !tree.fully_grown() {
            let row = (i % 4) * 256 + (i * 61) % 256;
            tree.record(RowId(row));
            i += 1;
        }
        let shape = tree.shape();
        assert_eq!(shape.depth_profile(), vec![3; 8]);
        assert!(shape.is_partition(1024));
    }

    #[test]
    fn biased_accesses_grow_an_unbalanced_tree() {
        // Fig. 4(a): a hammered row drags counters to the deepest level
        // around itself while cold regions keep coarse counters.
        let mut tree = CatTree::new(small_cfg());
        for _ in 0..600 {
            tree.record(RowId(700));
        }
        let shape = tree.shape();
        assert!(shape.is_partition(1024));
        let hot = shape
            .leaves()
            .iter()
            .find(|l| l.range.contains(700))
            .unwrap();
        assert_eq!(u32::from(hot.depth), tree.config().max_levels() - 1);
        // Some other region must still be at the pre-split level.
        assert!(shape.leaves().iter().any(|l| l.depth == 2));
    }

    #[test]
    fn refresh_covers_group_plus_victims() {
        let cfg = small_cfg();
        let mut tree = CatTree::new(cfg);
        let mut refresh = None;
        for _ in 0..2048 {
            if let Some(r) = tree.record(RowId(512)).refresh {
                refresh = Some(r);
                break;
            }
        }
        let r = refresh.expect("hot row must trigger a refresh");
        // The group containing row 512 at max depth L−1 = 5 spans
        // 1024/2^5 = 32 rows, plus one victim on each side.
        assert_eq!(r.len(), 34);
        assert!(r.contains(512));
        assert_eq!(tree.stats().refresh_events, 1);
        assert_eq!(tree.stats().refreshed_rows, 34);
    }

    #[test]
    fn refresh_range_clamps_at_bank_edges() {
        let mut tree = CatTree::new(small_cfg());
        let mut seen = None;
        for _ in 0..2048 {
            if let Some(r) = tree.record(RowId(0)).refresh {
                seen = Some(r);
                break;
            }
        }
        let r = seen.unwrap();
        assert_eq!(r.lo(), 0, "no victim below row 0");
        assert_eq!(r.len(), 33);
    }

    #[test]
    fn uniform_policy_cascades_terminate() {
        let cfg = CatConfig::new(1024, 8, 6, 256)
            .unwrap()
            .with_policy(ThresholdPolicy::Uniform);
        let mut tree = CatTree::new(cfg);
        for i in 0..50_000u32 {
            tree.record(RowId((i * 613) % 1024));
        }
        assert!(tree.shape().is_partition(1024));
    }

    #[test]
    fn reset_restores_initial_shape_but_keeps_stats() {
        let mut tree = CatTree::new(small_cfg());
        for _ in 0..600 {
            tree.record(RowId(10));
        }
        let activations = tree.stats().activations;
        assert!(tree.shape().max_depth() > 2);
        let table = tree.leaf_of.as_ptr();
        tree.reset();
        assert_eq!(tree.shape().depth_profile(), vec![2, 2, 2, 2]);
        assert_eq!(tree.stats().activations, activations);
        assert_eq!(tree.active_counters(), 4);
        // In place, and indistinguishable from a fresh tree.
        assert_eq!(tree.leaf_of.as_ptr(), table);
        let mut fresh = CatTree::new(small_cfg());
        fresh.stats = tree.stats;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        tree.save_state(&mut a);
        fresh.save_state(&mut b);
        assert_eq!(a, b);
        assert_eq!(tree.leaf_of, fresh.leaf_of);
        assert_eq!(tree.heap_bytes(), fresh.heap_bytes());
    }

    #[test]
    fn zero_counters_keeps_structure() {
        let mut tree = CatTree::new(small_cfg());
        for _ in 0..600 {
            tree.record(RowId(10));
        }
        let before = tree.shape();
        tree.zero_counters();
        let after = tree.shape();
        assert_eq!(before.depth_profile(), after.depth_profile());
        assert!(after.leaves().iter().all(|l| l.value == 0));
    }

    #[test]
    fn merge_then_split_preserves_partition() {
        let mut tree = CatTree::new(figure5_cfg());
        tests_build_full(&mut tree);
        let weights = vec![0u8; 8];
        let (slot, inode, l, r) = tree
            .find_cold_pair(&weights, u16::MAX)
            .expect("a sibling leaf pair must exist in a full tree");
        let freed = tree.merge_pair(slot, inode, l, r);
        assert!(tree.shape().is_partition(32));
        assert_eq!(tree.active_counters(), 7);
        // The freed counter is reused by the next hot split.
        let hot = tree.shape().leaves()[0].counter;
        let nc = tree.split_hot(hot).expect("split must succeed after merge");
        assert_eq!(nc, freed);
        assert!(tree.shape().is_partition(32));
        assert_eq!(tree.active_counters(), 8);
        assert_eq!(tree.stats().merges, 1);
    }

    #[test]
    fn split_hot_respects_depth_limit() {
        let mut tree = CatTree::new(figure5_cfg());
        tests_build_full(&mut tree);
        // Find the deepest leaf (level 5 = L−1): cannot be split further.
        let deep = tree
            .shape()
            .leaves()
            .iter()
            .find(|l| l.depth == 5)
            .unwrap()
            .counter;
        assert_eq!(tree.split_hot(deep), None);
    }

    #[test]
    fn sram_traffic_is_bounded_by_tree_height() {
        let mut tree = CatTree::new(small_cfg());
        for i in 0..10_000u32 {
            tree.record(RowId((i * 997) % 1024));
        }
        let s = tree.stats();
        // ≤ (L − λ + 1) reads plus the counter access per activation.
        let max_reads_per_access = f64::from(tree.config().max_levels());
        assert!(s.sram_accesses_per_activation() <= max_reads_per_access + 1.0);
        assert!(s.sram_accesses_per_activation() >= 2.0);
    }

    #[test]
    fn activation_out_of_range_panics() {
        let mut tree = CatTree::new(small_cfg());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tree.record(RowId(1024));
        }));
        assert!(result.is_err());
    }

    fn tests_build_full(tree: &mut CatTree) {
        build_figure5(|row| {
            tree.record(row);
        });
        assert!(tree.fully_grown());
    }

    #[test]
    fn state_round_trip_is_bit_exact() {
        // Sculpt a tree with splits, merges, and a reconfiguration-style
        // split so the free lists carry non-trivial order, then round-trip.
        let mut tree = CatTree::new(figure5_cfg());
        tests_build_full(&mut tree);
        let weights = vec![0u8; 8];
        let (slot, inode, l, rr) = tree.find_cold_pair(&weights, u16::MAX).unwrap();
        tree.merge_pair(slot, inode, l, rr);
        let mut words = Vec::new();
        tree.save_state(&mut words);
        let mut fresh = CatTree::new(figure5_cfg());
        let mut r = crate::state::StateReader::new(&words);
        fresh.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.shape().leaves(), tree.shape().leaves());
        assert_eq!(fresh.stats(), tree.stats());
        assert_eq!(fresh.active_counters(), tree.active_counters());
        assert_eq!(fresh.heap_bytes(), tree.heap_bytes());
        // The free lists round-trip in order: subsequent growth allocates
        // the same counters in both trees.
        for i in 0..500u32 {
            assert_eq!(
                tree.record(RowId(i * 13 % 32)),
                fresh.record(RowId(i * 13 % 32))
            );
        }
        assert_eq!(fresh.shape().leaves(), tree.shape().leaves());
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        let mut tree = CatTree::new(small_cfg());
        for _ in 0..600 {
            tree.record(RowId(10));
        }
        let mut words = Vec::new();
        tree.save_state(&mut words);
        // Truncation at every prefix length must fail, never panic.
        for len in 0..words.len() {
            let mut fresh = CatTree::new(small_cfg());
            let mut r = crate::state::StateReader::new(&words[..len]);
            let outcome = fresh
                .restore_state(&mut r)
                .err()
                .map(|_| ())
                .or_else(|| r.finish().err().map(|_| ()));
            assert!(outcome.is_some(), "truncation to {len} words must error");
        }
        // Corrupting the active-counter count (word 12, right after the
        // stats block) breaks either the growth latch or the flag count
        // consistency check.
        for delta in [1u64, 7] {
            let mut bad = words.clone();
            bad[12] = bad[12].wrapping_add(delta);
            let mut fresh = CatTree::new(small_cfg());
            let mut r = crate::state::StateReader::new(&bad);
            assert!(fresh.restore_state(&mut r).is_err());
        }
    }

    /// Word offsets of a saved tree's root table, intermediate nodes and
    /// counters (see [`CatTree::save_state`] for the order).
    fn state_layout(words: &[u64]) -> (usize, usize, usize) {
        let mut stats = Vec::new();
        SchemeStats::default().save_state(&mut stats);
        // Active count, growth latch and root count follow the stats.
        let roots = stats.len() + 3;
        let inodes = roots + words[roots - 1] as usize + 1;
        let counters = inodes + 2 * words[inodes - 1] as usize + 1;
        (roots, inodes, counters)
    }

    #[test]
    fn restore_rejects_a_graph_that_is_not_a_tree() {
        // Figure 5's tree after one merge: 7 active counters and 1 free.
        let mut tree = CatTree::new(figure5_cfg());
        tests_build_full(&mut tree);
        let (slot, inode, l, r) = tree.find_cold_pair(&[0; 8], u16::MAX).unwrap();
        let freed = tree.merge_pair(slot, inode, l, r);
        let mut words = Vec::new();
        tree.save_state(&mut words);
        let (_, inodes_at, counters_at) = state_layout(&words);
        // λ = 1: one root, an intermediate node whose left child is an
        // intermediate node and whose right child is the [16, 32) leaf.
        let NodeRef::Inode(root) = tree.roots[0] else {
            panic!("figure 5's root must be split");
        };
        let INode {
            left: NodeRef::Inode(left),
            right: NodeRef::Leaf(right),
        } = tree.inodes[root as usize]
        else {
            panic!("figure 5's root must hold an inode and a leaf");
        };
        let left_word = inodes_at + 2 * root as usize;
        let right_word = left_word + 1;
        let forge = |at: usize, word: u64| {
            let mut forged = words.clone();
            forged[at] = word;
            forged
        };
        let cases = [
            (
                "self-cycle",
                forge(left_word, pack_node(NodeRef::Inode(root))),
                "tree node reached twice",
            ),
            (
                "child shared by two slots",
                forge(right_word, pack_node(NodeRef::Inode(left))),
                "tree node reached twice",
            ),
            (
                "leaf pointing at an inactive counter",
                forge(right_word, pack_node(NodeRef::Leaf(freed))),
                "tree leaf is an inactive counter",
            ),
            (
                "depth off by one",
                forge(
                    counters_at + right as usize,
                    words[counters_at + right as usize] + (1 << 40),
                ),
                "tree counter depth vs shape",
            ),
        ];
        for (what, forged, expect) in cases {
            let mut fresh = CatTree::new(figure5_cfg());
            let err = fresh
                .restore_state(&mut StateReader::new(&forged))
                .expect_err(what);
            assert_eq!(err, StateError::Invalid(expect), "{what}");
        }
        // The unforged image restores, table included.
        let mut fresh = CatTree::new(figure5_cfg());
        fresh.restore_state(&mut StateReader::new(&words)).unwrap();
        assert_eq!(fresh.leaf_of, tree.leaf_of);
    }

    /// Asserts that the leaf table agrees with the §IV-C pointer walk on
    /// every row — same counter, same range, and `depth − (λ−1)` equal to
    /// the walk's intermediate-node reads — and that no leaf is deeper than
    /// `L−1`, the table's granularity.
    fn assert_table_matches_walk(tree: &CatTree, at: impl Fn() -> String) {
        let cfg = tree.config();
        for row in 0..cfg.rows() {
            let (c, lo, hi) = tree.leaf(row);
            let depth = u32::from(tree.counters[c as usize].depth);
            assert!(depth < cfg.max_levels(), "{}: C{c} at depth {depth}", at());
            let (wc, wlo, whi, _, visits) = tree.locate(row);
            assert_eq!(
                (c, lo, hi, depth - (cfg.lambda() - 1)),
                (wc, wlo, whi, visits),
                "{}: row {row}",
                at()
            );
        }
    }

    #[test]
    fn leaf_table_matches_the_pointer_walk() {
        // Seeded like `tests/differential.rs`: case i draws its accesses
        // from `splitmix64(BASE_SEED ^ i)`.
        const BASE_SEED: u64 = 0x1EAF_7AB1_E5EE_D000;
        let policies = [
            ThresholdPolicy::PaperCurve,
            ThresholdPolicy::Doubling,
            ThresholdPolicy::Uniform,
        ];
        let mut case = 0u64;
        let mut reconfigurations = 0;
        for policy in policies {
            for lambda in 1u32..=3 {
                for (rows, counters, extra_levels) in [(64u32, 8usize, 3u32), (256, 16, 4)] {
                    let cfg = CatConfig::new(rows, counters, lambda + extra_levels, 32)
                        .unwrap()
                        .with_policy(policy)
                        .with_lambda(lambda)
                        .unwrap();
                    let seed = splitmix64(BASE_SEED ^ case);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut drcat = Drcat::new(cfg.clone());
                    let mut prcat = Prcat::new(cfg.clone());
                    let mut hot = 0;
                    for i in 0..1500u32 {
                        // A hot spot that moves every epoch: DRCAT migrates
                        // counters after it, PRCAT rebuilds at the reset.
                        if i % 250 == 0 {
                            hot = rng.gen_range(0..rows);
                            drcat.on_epoch_end();
                            prcat.on_epoch_end();
                        }
                        let row = if rng.gen_bool(0.6) {
                            (hot + rng.gen_range(0..4u32)) % rows
                        } else {
                            rng.gen_range(0..rows)
                        };
                        drcat.on_activation(RowId(row));
                        prcat.on_activation(RowId(row));
                        let at = |scheme| format!("{scheme} case {case} seed {seed:#x} access {i}");
                        assert_table_matches_walk(drcat.tree(), || at("DRCAT"));
                        assert_table_matches_walk(prcat.tree(), || at("PRCAT"));
                    }
                    reconfigurations += drcat.stats().reconfigurations;
                    case += 1;
                }
            }
        }
        assert!(reconfigurations > 0, "the sweep must exercise DRCAT merges");
    }
}
