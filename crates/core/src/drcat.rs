//! DRCAT — Dynamically Reconfigured CAT (§V-B).

use crate::scheme::{HardwareProfile, MitigationScheme, Refreshes, SchemeKind};
use crate::tree::CatTree;
use crate::{CatConfig, RowId, SchemeStats};

/// Saturation limit of the 2-bit weight registers.
const WEIGHT_MAX: u8 = 3;
/// Weight assigned to freshly split counters ("to ensure they remain split
/// for a reasonable period of time", §V-B step 3).
const WEIGHT_AFTER_SPLIT: u8 = 1;

/// Dynamically Reconfigured CAT: a [`CatTree`] augmented with one 2-bit
/// weight register per counter (the `W` array of Fig. 5(d)).
///
/// Every time a counter reaches the refresh threshold its weight is
/// incremented (saturating at 3) and all other weights are decremented
/// (saturating at 0). When a weight saturates, DRCAT finds an intermediate
/// node whose two children are zero-weight leaves, merges them (releasing a
/// counter), and uses the released counter to split the hot leaf — thereby
/// migrating counters from regions that went cold to regions that became
/// hot, without ever discarding the learned tree shape.
///
/// At auto-refresh epoch boundaries the counter *values* are zeroed (the
/// rows were just refreshed) but the tree structure and the weights are
/// retained — unlike [`crate::Prcat`], which rebuilds from scratch.
///
/// ```
/// use cat_core::{CatConfig, Drcat, MitigationScheme, RowId};
/// # fn main() -> Result<(), cat_core::ConfigError> {
/// let mut d = Drcat::new(CatConfig::new(65_536, 64, 11, 32_768)?);
/// for _ in 0..100_000 {
///     d.on_activation(RowId(4_242));
/// }
/// assert!(d.stats().refresh_events > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Drcat {
    tree: CatTree,
    weights: Vec<u8>,
}

impl Drcat {
    /// Creates a DRCAT instance for the given configuration.
    pub fn new(config: CatConfig) -> Self {
        let m = config.counters();
        Drcat {
            tree: CatTree::new(config),
            weights: vec![0; m],
        }
    }

    /// Read access to the underlying tree.
    pub fn tree(&self) -> &CatTree {
        &self.tree
    }

    /// The tree, for run-level replay of quiet activations.
    pub(crate) fn tree_mut(&mut self) -> &mut CatTree {
        &mut self.tree
    }

    /// Current weight register values, indexed by counter.
    pub fn weights(&self) -> &[u8] {
        &self.weights
    }

    /// Resident heap bytes of the scheme's state (tree slabs + weights).
    pub fn heap_bytes(&self) -> usize {
        self.tree.heap_bytes() + self.weights.capacity()
    }

    /// Appends the scheme's mutable state (tree + weight registers) for
    /// checkpointing.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        self.tree.save_state(out);
        out.push(self.weights.len() as u64);
        out.extend(self.weights.iter().map(|&w| u64::from(w)));
    }

    /// Restores state captured by [`Drcat::save_state`] onto a freshly
    /// built instance of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::StateError`] when the tree state is malformed or a
    /// weight exceeds the 2-bit register range.
    pub fn restore_state(
        &mut self,
        r: &mut crate::state::StateReader<'_>,
    ) -> Result<(), crate::StateError> {
        use crate::StateError;
        self.tree.restore_state(r)?;
        if r.next_word()? != self.weights.len() as u64 {
            return Err(StateError::Invalid("DRCAT weight count"));
        }
        for w in &mut self.weights {
            let v = r.next_u8()?;
            if v > WEIGHT_MAX {
                return Err(StateError::Invalid("DRCAT weight out of range"));
            }
            *w = v;
        }
        Ok(())
    }

    /// Overrides the weight registers — test/diagnostic hook used to
    /// reproduce the paper's Fig. 7 walk-through from a known state.
    #[doc(hidden)]
    pub fn force_weights(&mut self, weights: &[u8]) {
        assert_eq!(weights.len(), self.weights.len());
        self.weights.copy_from_slice(weights);
    }

    /// §V-B weight update on a refresh event of counter `hot`, followed by
    /// reconfiguration when the hot weight saturates.
    fn on_refresh_event(&mut self, hot: u16) {
        let h = hot as usize;
        self.weights[h] = (self.weights[h] + 1).min(WEIGHT_MAX);
        for (i, w) in self.weights.iter_mut().enumerate() {
            if i != h {
                *w = w.saturating_sub(1);
            }
        }
        if self.weights[h] == WEIGHT_MAX {
            self.try_reconfigure(hot);
        }
    }

    /// Steps (1)–(3) of §V-B: merge a cold sibling pair, split the hot leaf
    /// with the released counter, and set both new weights to 1.
    fn try_reconfigure(&mut self, hot: u16) {
        // The hot leaf must be splittable at all before we commit to
        // releasing a counter: `split_leaf` refuses a leaf at level L−1,
        // and any shallower leaf spans at least two rows.
        let max_depth = self.tree.config().max_levels() - 1;
        if u32::from(self.tree.counters[hot as usize].depth) >= max_depth {
            return;
        }
        let Some((l, r)) = self.tree.find_cold_pair(&self.weights, hot) else {
            return;
        };
        let released = self.tree.merge_pair(l, r);
        self.weights[released as usize] = 0;
        let new = self
            .tree
            .split_hot(hot)
            .expect("split must succeed right after releasing a counter");
        self.weights[hot as usize] = WEIGHT_AFTER_SPLIT;
        self.weights[new as usize] = WEIGHT_AFTER_SPLIT;
        self.tree.stats_mut().reconfigurations += 1;
    }
}

impl MitigationScheme for Drcat {
    fn on_activation(&mut self, row: RowId) -> Refreshes {
        let activation = self.tree.record(row);
        match activation.refresh {
            Some(range) => {
                self.on_refresh_event(activation.counter);
                Refreshes::one(range)
            }
            None => Refreshes::none(),
        }
    }

    fn on_epoch_end(&mut self) {
        // Rows were auto-refreshed: counts restart, shape and weights persist.
        self.tree.zero_counters();
    }

    fn stats(&self) -> &SchemeStats {
        self.tree.stats()
    }

    fn hardware(&self) -> HardwareProfile {
        self.tree.hardware_as(SchemeKind::Drcat)
    }

    fn rows(&self) -> u32 {
        self.tree.config().rows()
    }

    fn name(&self) -> String {
        format!("DRCAT_{}", self.tree.config().counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThresholdPolicy;

    fn small_cfg() -> CatConfig {
        CatConfig::new(1024, 8, 6, 256).unwrap()
    }

    /// N = 32, M = 8, L = 6, T = 64, λ = 1 — the Figure 5/7 configuration.
    fn figure_cfg() -> CatConfig {
        CatConfig::new(32, 8, 6, 64)
            .unwrap()
            .with_policy(ThresholdPolicy::Doubling)
            .with_lambda(1)
            .unwrap()
    }

    /// Reproduces the §V-B / Figure 7 reconfiguration walk-through.
    ///
    /// We first sculpt Figure 5(a)'s tree (leaf depths 3,5,5,4,3,4,4,1 over
    /// rows [0,4) [4,5) [5,6) [6,8) [8,12) [12,14) [14,16) [16,32)), load
    /// the figure's weight state, and drive the counter over rows [12,14)
    /// (the figure's C6) to its refresh threshold. DRCAT must then merge the
    /// two zero-weight sibling leaves [4,5)/[5,6) (the figure's C2 and C5,
    /// with the right sibling promoted) and split the hot leaf in two.
    #[test]
    fn figure7_reconfiguration() {
        let mut d = Drcat::new(figure_cfg());
        crate::tree::build_figure5(|row| {
            d.on_activation(row);
        });
        assert_eq!(
            d.tree().shape().depth_profile(),
            vec![3, 5, 5, 4, 3, 4, 4, 1],
            "precondition: Figure 5(a) shape"
        );
        // Figure 5(d) weights [C0..C7] = [0,1,1,2,1,1,2,2] in the paper's
        // labels map to our allocation order as follows (see tree tests):
        // paper C1→0, C0→1, C3→2, C2→3, C4→4, C5→5, C6→6, C7→7.
        d.force_weights(&[1, 0, 2, 1, 1, 1, 2, 2]);

        // Drive the leaf over [12,14) (paper's C6, our counter 6, value 16
        // after the build) to the refresh threshold of 64.
        let mut refreshed = None;
        for _ in 0..48 {
            let r = d.on_activation(RowId(12));
            if !r.is_empty() {
                refreshed = Some(r);
            }
        }
        let refreshed = refreshed.expect("hot counter must hit T = 64");
        assert_eq!(refreshed.total_rows(), 4, "refresh [11,14]");

        // Weight update: hot 2→3 (trigger), everyone else decremented, then
        // the reconfiguration resets the hot pair to 1 and the released
        // counter joins the new pair with weight 1: paper Fig. 7(d) =
        // [0,0,1,1,0,0,1,1] in paper labels, identical under our mapping.
        assert_eq!(d.weights(), &[0, 0, 1, 1, 0, 0, 1, 1]);

        // Fig. 7(a) shape: cold pair [4,5)/[5,6) merged into [4,6) at depth
        // 4; hot leaf [12,14) split into [12,13)/[13,14) at depth 5.
        let shape = d.tree().shape();
        assert!(shape.is_partition(32));
        assert_eq!(shape.depth_profile(), vec![3, 4, 4, 3, 5, 5, 4, 1]);
        let merged = &shape.leaves()[1];
        assert_eq!((merged.range.lo(), merged.range.hi()), (4, 5));
        assert_eq!(merged.counter, 5, "right sibling (paper C5) is promoted");
        let split_left = &shape.leaves()[4];
        let split_right = &shape.leaves()[5];
        assert_eq!(split_left.counter, 6, "hot counter keeps the left half");
        assert_eq!(split_right.counter, 3, "released counter (paper C2) reused");
        assert_eq!(
            split_left.value, 0,
            "hot pair restarts counting after refresh"
        );
        assert_eq!(d.stats().merges, 1);
        assert_eq!(d.stats().reconfigurations, 1);
    }

    #[test]
    fn weights_saturate_and_decay() {
        let mut d = Drcat::new(small_cfg());
        // Hammer a single row so its counter refreshes repeatedly.
        for _ in 0..256 * 8 {
            d.on_activation(RowId(900));
        }
        assert!(d.stats().refresh_events >= 2);
        let max_w = *d.weights().iter().max().unwrap();
        assert!((1..=3).contains(&max_w));
    }

    #[test]
    fn reconfiguration_moves_counters_to_new_hot_spot() {
        let mut d = Drcat::new(small_cfg());
        // Phase 1: two hot regions (rows 100 and 600) until the tree is
        // fully grown around them.
        for i in 0..6000u32 {
            d.on_activation(RowId(if i.is_multiple_of(2) { 100 } else { 600 }));
        }
        assert!(d.tree().fully_grown());
        // Phase 2: the hot spot migrates to row 900.
        for _ in 0..256 * 40 {
            d.on_activation(RowId(900));
        }
        let shape = d.tree().shape();
        let hot = shape
            .leaves()
            .iter()
            .find(|l| l.range.contains(900))
            .unwrap();
        assert_eq!(
            u32::from(hot.depth),
            d.tree().config().max_levels() - 1,
            "counters must migrate to the new hot spot: {}",
            shape.render()
        );
        assert!(d.stats().reconfigurations >= 1);
    }

    #[test]
    fn epoch_end_zeroes_values_keeps_shape_and_weights() {
        let mut d = Drcat::new(small_cfg());
        for _ in 0..3000 {
            d.on_activation(RowId(100));
        }
        let shape_before = d.tree().shape().depth_profile();
        let weights_before = d.weights().to_vec();
        d.on_epoch_end();
        assert_eq!(d.tree().shape().depth_profile(), shape_before);
        assert_eq!(d.weights(), &weights_before[..]);
        assert!(d.tree().shape().leaves().iter().all(|l| l.value == 0));
    }

    #[test]
    fn no_reconfiguration_without_cold_pair() {
        let mut d = Drcat::new(small_cfg());
        d.force_weights(&[1; 8]);
        for _ in 0..256 * 10 {
            d.on_activation(RowId(100));
        }
        // Weights of non-hot counters decay to zero over refresh events, so
        // eventually reconfiguration can fire — but never before a
        // zero-weight sibling pair exists.
        assert!(d.tree().shape().is_partition(1024));
    }

    #[test]
    fn deep_hot_leaf_does_not_reconfigure() {
        // Once the hot leaf is at the maximum level, saturated weights must
        // not trigger merges (nothing to gain).
        let mut d = Drcat::new(small_cfg());
        for _ in 0..3000 {
            d.on_activation(RowId(100));
        }
        let merges_before = d.stats().merges;
        for _ in 0..256 * 20 {
            d.on_activation(RowId(100));
        }
        // The hot leaf is already at L−1: its own saturation cannot merge
        // cold pairs on its behalf.
        assert_eq!(d.stats().merges, merges_before);
        assert_eq!(d.name(), "DRCAT_8");
    }
}
