//! Structural snapshots of a CAT — used by Fig. 4 style visualisations,
//! invariant checks and the differential tests against the reference
//! implementation.

use super::CatTree;
use crate::RowRange;

/// One leaf of the tree: which counter, how deep, which rows.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LeafInfo {
    /// Counter index in the `C` array.
    pub counter: u16,
    /// Tree level of the leaf (root = 0).
    pub depth: u8,
    /// Current counter value.
    pub value: u32,
    /// Split-threshold index `l_i`.
    pub tli: u8,
    /// Rows covered by the counter.
    pub range: RowRange,
}

/// The shape of a CAT: every leaf in ascending row order.
///
/// ```
/// use cat_core::{CatConfig, CatTree};
/// # fn main() -> Result<(), cat_core::ConfigError> {
/// let tree = CatTree::new(CatConfig::new(1024, 8, 6, 256)?);
/// let shape = tree.shape();
/// // λ = 3 pre-split ⇒ 4 uniform leaves of 256 rows.
/// assert_eq!(shape.leaves().len(), 4);
/// assert!(shape.is_partition(1024));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeShape {
    leaves: Vec<LeafInfo>,
}

impl TreeShape {
    /// The leaves in ascending row order.
    pub fn leaves(&self) -> &[LeafInfo] {
        &self.leaves
    }

    /// Checks that the leaves exactly partition `[0, rows)` — the central
    /// structural invariant of the CAT.
    pub fn is_partition(&self, rows: u32) -> bool {
        let mut expected = 0u64;
        for leaf in &self.leaves {
            if u64::from(leaf.range.lo()) != expected {
                return false;
            }
            expected = u64::from(leaf.range.hi()) + 1;
        }
        expected == u64::from(rows)
    }

    /// Maximum leaf depth in the tree.
    pub fn max_depth(&self) -> u8 {
        self.leaves.iter().map(|l| l.depth).max().unwrap_or(0)
    }

    /// Leaf depths in ascending row order (compact shape signature).
    pub fn depth_profile(&self) -> Vec<u8> {
        self.leaves.iter().map(|l| l.depth).collect()
    }

    /// Renders the leaf partition as a Graphviz `dot` digraph (Fig. 4/5
    /// style): interior nodes are synthesised from the binary-subdivision
    /// structure, leaves are labelled with their counter and row range.
    ///
    /// ```
    /// use cat_core::{CatConfig, CatTree};
    /// # fn main() -> Result<(), cat_core::ConfigError> {
    /// let tree = CatTree::new(CatConfig::new(1024, 8, 6, 256)?);
    /// let dot = tree.shape().to_dot("pre_split");
    /// assert!(dot.starts_with("strict digraph pre_split"));
    /// assert!(dot.contains("C0"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        // `strict` de-duplicates the ancestor edges shared by sibling leaves.
        let mut out = format!("strict digraph {name} {{\n  node [shape=box];\n");
        // Interior nodes are implied by shared range prefixes: connect each
        // leaf to its ancestors by halving the covering range.
        let total: u64 = self.leaves.iter().map(|l| l.range.len()).sum();
        for leaf in &self.leaves {
            let _ = writeln!(
                out,
                "  \"C{}\" [label=\"C{} [{}..{}] v={}\", style=filled, fillcolor=lightblue];",
                leaf.counter,
                leaf.counter,
                leaf.range.lo(),
                leaf.range.hi(),
                leaf.value
            );
            // Walk from the root range down to the leaf.
            let (mut lo, mut hi) = (0u64, total - 1);
            let mut parent = String::from("root");
            let mut depth = 0u8;
            while depth < leaf.depth {
                let mid = lo + (hi - lo) / 2;
                let child = if u64::from(leaf.range.lo()) <= mid {
                    hi = mid;
                    format!("I{lo}_{hi}")
                } else {
                    lo = mid + 1;
                    format!("I{lo}_{hi}")
                };
                let _ = writeln!(out, "  \"{parent}\" -> \"{child}\";");
                parent = child;
                depth += 1;
            }
            let _ = writeln!(out, "  \"{parent}\" -> \"C{}\";", leaf.counter);
        }
        out.push_str("}\n");
        out
    }

    /// Renders an indented textual sketch of the tree (Fig. 4 style):
    /// one line per leaf, indented by depth, annotated with its row range.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for leaf in &self.leaves {
            let _ = writeln!(
                out,
                "{:indent$}C{:<3} level {} rows {}..={} ({} rows) value {}",
                "",
                leaf.counter,
                leaf.depth,
                leaf.range.lo(),
                leaf.range.hi(),
                leaf.range.len(),
                leaf.value,
                indent = 2 * usize::from(leaf.depth),
            );
        }
        out
    }
}

pub(super) fn collect(tree: &CatTree) -> TreeShape {
    let leaves = tree
        .leaves()
        .map(|(c, lo, hi)| {
            let counter = tree.counters[c as usize];
            debug_assert!(counter.active, "leaf C{c} must be active");
            LeafInfo {
                counter: c,
                depth: counter.depth,
                value: counter.value,
                tli: counter.tli,
                range: RowRange::new(lo, hi),
            }
        })
        .collect();
    TreeShape { leaves }
}
