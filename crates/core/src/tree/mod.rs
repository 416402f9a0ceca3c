//! The Counter-based Adaptive Tree (§IV), stored as its leaf table: entry
//! `i` names the counter whose leaf covers the `i`-th aligned block of
//! `rows >> (L−1)` rows, and each counter holds its leaf's depth — a leaf
//! at depth `d` spans `rows >> d` aligned rows. Table and depths are the
//! whole shape: an activation finds its counter with one load, and splits,
//! merges, snapshots and restore all work on the table.
//!
//! The hardware of §IV-C stores the same shape as an array `I` of
//! intermediate nodes with tagged child pointers below `2^{λ−1}`
//! direct-indexed roots. That array is modeled only as cost
//! (DESIGN.md §3.6): `sram_reads` counts the `depth − (λ−1)` nodes its walk
//! would read, splits and merges book its writes, and its storage is part
//! of the [`HardwareProfile`] the energy model prices.
//!
//! Runs of activations are replayed in two parts (DESIGN.md §3.7):
//! `record_quiet` counts the longest prefix in which no counter reaches
//! its threshold, one table load and one increment per row with the
//! statistics summed in registers, and [`CatTree::record`] takes only the
//! threshold-crossing row through Algorithm 1's split/refresh path.

pub mod reference;
mod shape;

pub use shape::{LeafInfo, TreeShape};

use crate::scheme::{HardwareProfile, MitigationScheme, Refreshes, SchemeKind};
use crate::state::{StateError, StateReader};
use crate::{CatConfig, RowId, RowRange, SchemeStats, SplitThresholds};

#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct Counter {
    pub value: u32,
    /// Split-threshold index `l_i` of Algorithm 1 (latched to `L−1` once
    /// every counter is active).
    pub tli: u8,
    /// Depth of the counter's leaf in the tree (root = 0).
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
    pub(crate) counters: Vec<Counter>,
    /// Leaf table: entry `i` names the counter whose leaf covers rows
    /// `[i << leaf_shift, (i + 1) << leaf_shift)`. With the counter depths
    /// it is the tree's shape.
    leaf_of: Vec<u16>,
    /// `log2(rows) − (L − 1)`: rows per table entry, as a shift.
    leaf_shift: u32,
    free_counters: Vec<u16>,
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
            counters: Vec::with_capacity(m),
            leaf_of: Vec::with_capacity(1 << top),
            free_counters: Vec::with_capacity(m - root_count),
            active_counters: 0,
            all_active: false,
            stats: SchemeStats::default(),
            config,
        };
        tree.rebuild();
        tree
    }

    /// Puts the counters, the free list and the leaf table back to the
    /// pre-split shape, reusing their allocations. Statistics are left
    /// alone.
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

    /// Resident heap bytes of the tree: the counter array `C`, the free
    /// list and the `2^{L−1}`-entry leaf table. The arrays are
    /// deliberately dense: they hold at most `M` (≤ 64 in every paper
    /// configuration) entries — the tree itself is the compression, so
    /// bit-block storage would only add overhead.
    pub fn heap_bytes(&self) -> usize {
        self.counters.capacity() * std::mem::size_of::<Counter>()
            + self.leaf_of.capacity() * std::mem::size_of::<u16>()
            + self.free_counters.capacity() * std::mem::size_of::<u16>()
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

    /// The leaf covering `row`, read from the leaf table: its counter and
    /// row range. A leaf at depth `d` spans `rows >> d` aligned rows.
    fn leaf(&self, row: u32) -> (u16, u32, u32) {
        let c = self.leaf_of[(row >> self.leaf_shift) as usize];
        let span = self.config.rows() >> self.counters[c as usize].depth;
        let lo = row & !(span - 1);
        (c, lo, lo + span - 1)
    }

    /// Every leaf in ascending row order, as [`CatTree::leaf`] returns it.
    fn leaves(&self) -> impl Iterator<Item = (u16, u32, u32)> + '_ {
        let rows = self.config.rows();
        std::iter::successors(Some(self.leaf(0)), move |&(_, _, hi)| {
            (hi + 1 < rows).then(|| self.leaf(hi + 1))
        })
    }

    fn latch_all_thresholds(&mut self) {
        let top = (self.config.max_levels() - 1) as u8;
        for c in self.counters.iter_mut().filter(|c| c.active) {
            c.tli = top;
        }
        self.all_active = true;
    }

    /// Splits leaf `c` (covering `[lo, hi]`): the left half stays with `c`,
    /// the right half goes to a newly activated clone (Algorithm 1 lines
    /// 15–22). Returns the new counter, or `None` when no counter is free
    /// or the leaf is already at level `L−1` — the leaf table's
    /// granularity, so no leaf is deeper.
    pub(crate) fn split_leaf(&mut self, c: u16, lo: u32, hi: u32) -> Option<u16> {
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
            match self.split_leaf(c, lo, hi) {
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

    /// Finds a pair of sibling leaves that are both cold (zero weight) —
    /// the two children of one intermediate node that DRCAT may merge
    /// (§V-B step 1). The hot counter `exclude` is never eligible. Leaves
    /// are visited from the top row down, the order of a right-first
    /// depth-first search of the §IV-C node array; a leaf below the roots
    /// whose span is odd-aligned is a right child, and its sibling is the
    /// left neighbour when that has the same depth. Returns `(left, right)`.
    pub(crate) fn find_cold_pair(&self, weights: &[u8], exclude: u16) -> Option<(u16, u16)> {
        let root_depth = (self.config.lambda() - 1) as u8;
        let cold = |c: u16| c != exclude && weights[c as usize] == 0;
        let mut end = self.config.rows();
        while end > 0 {
            let (r, lo, hi) = self.leaf(end - 1);
            let depth = self.counters[r as usize].depth;
            if depth > root_depth && lo & (hi - lo + 1) != 0 {
                let l = self.leaf_of[((lo - 1) >> self.leaf_shift) as usize];
                if self.counters[l as usize].depth == depth && cold(l) && cold(r) {
                    return Some((l, r));
                }
            }
            end = lo;
        }
        None
    }

    /// Merges the cold sibling leaves `left` and `right`: the right leaf is
    /// promoted into the parent (as in Fig. 7, where C5 is promoted and C2
    /// released) carrying the *maximum* of the two counter values — merging
    /// must never under-count any row in the combined group. Returns the
    /// released counter index.
    pub(crate) fn merge_pair(&mut self, left: u16, right: u16) -> u16 {
        let (lo, hi) = self.find_leaf(left).expect("a merged leaf is in the table");
        debug_assert_eq!(self.leaf(hi + 1).0, right);
        let lv = self.counters[left as usize].value;
        let rv = self.counters[right as usize].value;
        self.counters[right as usize].value = lv.max(rv);
        self.counters[right as usize].depth -= 1;
        self.counters[left as usize] = Counter::default();
        let s = self.leaf_shift;
        self.leaf_of[(lo >> s) as usize..=(hi >> s) as usize].fill(right);
        self.free_counters.push(left);
        self.active_counters -= 1;
        self.stats.merges += 1;
        self.stats.sram_writes += 2;
        left
    }

    /// Finds the row range of the leaf held by counter `c`: the leaf of
    /// the first table entry that names it.
    pub(crate) fn find_leaf(&self, c: u16) -> Option<(u32, u32)> {
        let i = self.leaf_of.iter().position(|&e| e == c)?;
        let (_, lo, hi) = self.leaf((i as u32) << self.leaf_shift);
        Some((lo, hi))
    }

    /// Splits the (hot) leaf `c` using a previously released counter (§V-B
    /// step 2). Fails when the leaf is already at level `L−1` (see
    /// `split_leaf`) or no counter is free. Returns the new counter index.
    pub(crate) fn split_hot(&mut self, c: u16) -> Option<u16> {
        let (lo, hi) = self.find_leaf(c)?;
        let was_tli = self.counters[c as usize].tli;
        let nc = self.split_leaf(c, lo, hi)?;
        // Reconfiguration happens on the fully grown tree: thresholds stay
        // latched at L−1 rather than following the depth.
        let tli = if self.all_active {
            (self.config.max_levels() - 1) as u8
        } else {
            was_tli
        };
        self.counters[c as usize].tli = tli;
        self.counters[nc as usize].tli = tli;
        Some(nc)
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
    /// the active count and growth latch, the counter array `C`, the
    /// leaves in ascending row order (one counter index each — with the
    /// counter depths, the whole shape), and the free list, whose pop/push
    /// *order* determines future allocations, so it round-trips verbatim.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        self.stats.save_state(out);
        out.push(self.active_counters as u64);
        out.push(u64::from(self.all_active));
        out.push(self.counters.len() as u64);
        for c in &self.counters {
            out.push(
                u64::from(c.value)
                    | u64::from(c.tli) << 32
                    | u64::from(c.depth) << 40
                    | u64::from(c.active) << 48,
            );
        }
        out.push(self.active_counters as u64);
        out.extend(self.leaves().map(|(c, _, _)| u64::from(c)));
        out.push(self.free_counters.len() as u64);
        out.extend(self.free_counters.iter().map(|&i| u64::from(i)));
    }

    /// Restores state captured by [`CatTree::save_state`] onto a freshly
    /// built tree of the same configuration, and refills the leaf table.
    ///
    /// Every structural invariant is revalidated: index bounds, the active
    /// count against the counter flags, and the shape itself — the leaves,
    /// laid end to end at their depths, must tile `[0, rows)` exactly, each
    /// aligned to its span at a depth in `[λ−1, L−1]`, and every active
    /// counter must be exactly one of them. The free list must hold every
    /// other counter once. A corrupted stream cannot produce a silently
    /// inconsistent tree.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on any malformed or inconsistent value.
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let m = self.counters.len();
        let root_depth = (self.config.lambda() - 1) as u8;
        let top = (self.config.max_levels() - 1) as u8;
        self.stats.restore_state(r)?;
        let active_counters = r.next_word()? as usize;
        if !(1 << root_depth..=m).contains(&active_counters) {
            return Err(StateError::Invalid("tree active counter count"));
        }
        let all_active = r.next_bool()?;
        // The latch is sticky: it fires when the tree first becomes fully
        // grown and survives later merges, so only the forward implication
        // can be checked.
        if active_counters == m && !all_active {
            return Err(StateError::Invalid("tree growth latch"));
        }
        if r.next_word()? != m as u64 {
            return Err(StateError::Invalid("tree counter count"));
        }
        let mut counters = Vec::with_capacity(m);
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
            counters.push(counter);
        }
        if counters.iter().filter(|c| c.active).count() != active_counters {
            return Err(StateError::Invalid("tree active flags vs count"));
        }
        if r.next_word()? != active_counters as u64 {
            return Err(StateError::Invalid("tree leaf count vs active count"));
        }
        let rows = self.config.rows();
        let s = self.leaf_shift;
        let mut leaf_of = vec![0u16; 1 << top];
        let mut listed = vec![false; m];
        let mut lo = 0u32;
        for _ in 0..active_counters {
            let c = r.next_u16()?;
            let Some(counter) = counters.get(c as usize) else {
                return Err(StateError::Invalid("tree leaf index out of range"));
            };
            if !counter.active {
                return Err(StateError::Invalid("tree leaf is an inactive counter"));
            }
            if std::mem::replace(&mut listed[c as usize], true) {
                return Err(StateError::Invalid("tree counter listed twice"));
            }
            if !(root_depth..=top).contains(&counter.depth) {
                return Err(StateError::Invalid("tree leaf depth out of range"));
            }
            let span = rows >> counter.depth;
            if lo & (span - 1) != 0 {
                return Err(StateError::Invalid("tree leaf misaligned"));
            }
            if span > rows - lo {
                return Err(StateError::Invalid("tree leaves overlap past the last row"));
            }
            leaf_of[(lo >> s) as usize..((lo + span) >> s) as usize].fill(c);
            lo += span;
        }
        if lo != rows {
            return Err(StateError::Invalid("tree leaves leave rows uncovered"));
        }
        let free_counters = read_free_list(r, m - active_counters, &listed)?;
        // `leaf_of` matches the capacity `new()` gives the table, and clear
        // + extend keeps the free list's, so `heap_bytes` stays bit-equal
        // with a never-checkpointed tree.
        self.counters = counters;
        self.leaf_of = leaf_of;
        self.free_counters.clear();
        self.free_counters.extend(free_counters);
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

/// Reads the free-counter list: exactly `expect` distinct counter indices,
/// none of them `listed` as a leaf.
fn read_free_list(
    r: &mut StateReader<'_>,
    expect: usize,
    listed: &[bool],
) -> Result<Vec<u16>, StateError> {
    if r.next_word()? != expect as u64 {
        return Err(StateError::Invalid("tree free-list length"));
    }
    let mut seen = listed.to_vec();
    let mut list = Vec::with_capacity(expect);
    for _ in 0..expect {
        let idx = r.next_u16()?;
        let Some(slot) = seen.get_mut(idx as usize) else {
            return Err(StateError::Invalid("tree free-list index out of range"));
        };
        if std::mem::replace(slot, true) {
            return Err(StateError::Invalid("tree free-list entry inconsistent"));
        }
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
        let (l, r) = tree
            .find_cold_pair(&weights, u16::MAX)
            .expect("a sibling leaf pair must exist in a full tree");
        let freed = tree.merge_pair(l, r);
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
        // split so the free list carries non-trivial order, then round-trip.
        let mut tree = CatTree::new(figure5_cfg());
        tests_build_full(&mut tree);
        let weights = vec![0u8; 8];
        let (l, r) = tree.find_cold_pair(&weights, u16::MAX).unwrap();
        tree.merge_pair(l, r);
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
        // The free list round-trips in order: subsequent growth allocates
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
        // Corrupting the active-counter count (right after the stats
        // block) breaks either the growth latch or the flag count
        // consistency check.
        let (counters_at, _) = state_layout(&words);
        let active_at = counters_at - 3;
        for delta in [1u64, 7] {
            let mut bad = words.clone();
            bad[active_at] = bad[active_at].wrapping_add(delta);
            let mut fresh = CatTree::new(small_cfg());
            let mut r = crate::state::StateReader::new(&bad);
            assert!(fresh.restore_state(&mut r).is_err());
        }
    }

    /// Word offsets of a saved tree's counters and of its first leaf (see
    /// [`CatTree::save_state`] for the order).
    fn state_layout(words: &[u64]) -> (usize, usize) {
        let mut stats = Vec::new();
        SchemeStats::default().save_state(&mut stats);
        // Active count, growth latch and counter count follow the stats;
        // the leaf count follows the counters.
        let counters = stats.len() + 3;
        let leaves = counters + words[counters - 1] as usize + 1;
        (counters, leaves)
    }

    /// Restores `words` onto a fresh tree of `cfg` and returns the typed
    /// error it must give.
    fn restore_err(cfg: &CatConfig, words: &[u64], what: &str) -> StateError {
        let mut fresh = CatTree::new(cfg.clone());
        fresh
            .restore_state(&mut StateReader::new(words))
            .expect_err(what)
    }

    #[test]
    fn restore_rejects_forged_leaf_lists() {
        // Figure 5's tree after one merge: 7 leaves at depths
        // 3,5,5,4,3,3,1 over [0,4) [4,5) [5,6) [6,8) [8,12) [12,16)
        // [16,32), and 1 free counter.
        let cfg = figure5_cfg();
        let mut tree = CatTree::new(cfg.clone());
        tests_build_full(&mut tree);
        let (l, r) = tree.find_cold_pair(&[0; 8], u16::MAX).unwrap();
        let freed = tree.merge_pair(l, r);
        assert_eq!(tree.shape().depth_profile(), vec![3, 5, 5, 4, 3, 3, 1]);
        let mut words = Vec::new();
        tree.save_state(&mut words);
        let (counters_at, leaves_at) = state_layout(&words);
        let leaf = |i: usize| words[leaves_at + i];
        let depth_at = |i: usize| counters_at + leaf(i) as usize;
        let forge = |edits: &[(usize, u64)]| {
            let mut forged = words.clone();
            for &(at, word) in edits {
                forged[at] = word;
            }
            forged
        };
        let deeper = |i: usize, by: i64| {
            let at = depth_at(i);
            (at, words[at].wrapping_add_signed(by << 40))
        };
        // The [16, 32) leaf widened to the whole bank and listed first, so
        // every later leaf lies on rows it already covers.
        let mut overlap: Vec<(usize, u64)> = (0..6).map(|i| (leaves_at + i + 1, leaf(i))).collect();
        overlap.extend([(leaves_at, leaf(6)), deeper(6, -1)]);
        let cases = [
            (
                "gap: [16, 32) narrowed to [16, 24)",
                forge(&[deeper(6, 1)]),
                "tree leaves leave rows uncovered",
            ),
            (
                "overlap",
                forge(&overlap),
                "tree leaves overlap past the last row",
            ),
            (
                "misaligned: [0, 4) listed after [4, 5)",
                forge(&[(leaves_at, leaf(1)), (leaves_at + 1, leaf(0))]),
                "tree leaf misaligned",
            ),
            (
                "depth below L−1",
                forge(&[deeper(1, 1)]),
                "tree counter level out of range",
            ),
            (
                "inactive counter",
                forge(&[(leaves_at + 2, u64::from(freed))]),
                "tree leaf is an inactive counter",
            ),
            (
                "counter out of range",
                forge(&[(leaves_at + 2, 8)]),
                "tree leaf index out of range",
            ),
            (
                "duplicate counter",
                forge(&[(leaves_at + 2, leaf(1))]),
                "tree counter listed twice",
            ),
            (
                "more leaves than active counters",
                forge(&[(leaves_at - 1, 8)]),
                "tree leaf count vs active count",
            ),
            (
                "fewer leaves than active counters",
                forge(&[(leaves_at - 1, 6)]),
                "tree leaf count vs active count",
            ),
        ];
        for (what, forged, expect) in cases {
            assert_eq!(
                restore_err(&cfg, &forged, what),
                StateError::Invalid(expect),
                "{what}"
            );
        }
        // The unforged image restores, table included.
        let mut fresh = CatTree::new(cfg);
        fresh.restore_state(&mut StateReader::new(&words)).unwrap();
        assert_eq!(fresh.leaf_of, tree.leaf_of);

        // Depth above λ−1: a pre-split root (λ = 3, depth 2) widened to
        // depth 1 would be above the direct-indexed roots.
        let cfg = small_cfg();
        let tree = CatTree::new(cfg.clone());
        let mut words = Vec::new();
        tree.save_state(&mut words);
        let (counters_at, leaves_at) = state_layout(&words);
        let first = counters_at + words[leaves_at] as usize;
        words[first] -= 1 << 40;
        assert_eq!(
            restore_err(&cfg, &words, "depth above λ−1"),
            StateError::Invalid("tree leaf depth out of range")
        );
    }

    /// FNV-1a over the little-endian bytes of `word`.
    fn fnv1a(hash: u64, word: u64) -> u64 {
        word.to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// Folds every leaf of `tree` (counter, range, depth, value, tli) into
    /// `hash`, after checking that `leaf(row)` names that leaf for each of
    /// its rows and that no leaf is deeper than `L−1`.
    fn fold_tree(hash: u64, tree: &CatTree, at: impl Fn() -> String) -> u64 {
        let top = tree.config().max_levels() - 1;
        let mut hash = hash;
        for l in tree.shape().leaves() {
            assert!(
                u32::from(l.depth) <= top,
                "{}: C{} too deep",
                at(),
                l.counter
            );
            for row in l.range.lo()..=l.range.hi() {
                assert_eq!(
                    tree.leaf(row),
                    (l.counter, l.range.lo(), l.range.hi()),
                    "{}: row {row}",
                    at()
                );
            }
            for word in [
                u64::from(l.counter),
                u64::from(l.range.lo()),
                u64::from(l.range.hi()),
                u64::from(l.depth),
                u64::from(l.value),
                u64::from(l.tli),
            ] {
                hash = fnv1a(hash, word);
            }
        }
        hash
    }

    /// Pins the tree's whole trajectory: a seeded DRCAT + PRCAT sweep over
    /// small configurations, plus `drcat:64:11:32` on 4 096 rows, each chasing
    /// a hot spot that moves every epoch. After every access every leaf is
    /// folded into one FNV-1a digest, and the final statistics follow. The
    /// digest names counters, so it also pins which cold pair each DRCAT
    /// reconfiguration merges and which free counter each split takes.
    #[test]
    fn tree_trace_digest_is_pinned() {
        // Seeded like `tests/differential.rs`: case i draws its accesses
        // from `splitmix64(BASE_SEED ^ i)`.
        const BASE_SEED: u64 = 0x1EAF_7AB1_E5EE_D000;
        let mut configs = Vec::new();
        for policy in [
            ThresholdPolicy::PaperCurve,
            ThresholdPolicy::Doubling,
            ThresholdPolicy::Uniform,
        ] {
            for lambda in 1u32..=3 {
                for (rows, counters, extra_levels) in [(64u32, 8usize, 3u32), (256, 16, 4)] {
                    let cfg = CatConfig::new(rows, counters, lambda + extra_levels, 32)
                        .unwrap()
                        .with_policy(policy)
                        .with_lambda(lambda)
                        .unwrap();
                    configs.push((cfg, 1500u32, 250u32));
                }
            }
        }
        configs.push((CatConfig::new(4096, 64, 11, 32).unwrap(), 10_000, 400));
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut reconfigurations = 0;
        for (case, (cfg, accesses, epoch)) in configs.into_iter().enumerate() {
            let rows = cfg.rows();
            let seed = splitmix64(BASE_SEED ^ case as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut drcat = Drcat::new(cfg.clone());
            let mut prcat = Prcat::new(cfg);
            let mut hot = 0;
            for i in 0..accesses {
                // A hot spot that moves every epoch: DRCAT migrates
                // counters after it, PRCAT rebuilds at the reset.
                if i % epoch == 0 {
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
                hash = fold_tree(hash, drcat.tree(), || at("DRCAT"));
                hash = fold_tree(hash, prcat.tree(), || at("PRCAT"));
            }
            let mut stats = Vec::new();
            drcat.stats().save_state(&mut stats);
            prcat.stats().save_state(&mut stats);
            hash = stats.into_iter().fold(hash, fnv1a);
            reconfigurations += drcat.stats().reconfigurations;
        }
        assert!(
            reconfigurations >= 100,
            "the sweep must exercise DRCAT merges ({reconfigurations})"
        );
        assert_eq!(
            hash, 0x9bc4_e8fc_1851_ceee,
            "tree trace digest {hash:#018x}"
        );
    }
}
