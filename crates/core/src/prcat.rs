//! PRCAT — Periodically Reset CAT (§V-A).

use crate::scheme::{HardwareProfile, MitigationScheme, Refreshes, SchemeKind};
use crate::{CatConfig, CatTree, RowId, SchemeStats};

/// Periodically Reset CAT: the adaptive tree of [`CatTree`] rebuilt from its
/// pre-split state at every auto-refresh epoch (64 ms for DDRx).
///
/// Rebuilding keeps counting exact for devices with burst refresh (§V-A) at
/// the cost of re-learning the access pattern every epoch: early in an epoch
/// the counters are coarse, so a hot row drags whole coarse groups into the
/// refresh, which is exactly the inefficiency [`crate::Drcat`] removes.
///
/// ```
/// use cat_core::{CatConfig, MitigationScheme, Prcat, RowId};
/// # fn main() -> Result<(), cat_core::ConfigError> {
/// let mut p = Prcat::new(CatConfig::new(65_536, 64, 11, 32_768)?);
/// p.on_activation(RowId(7));
/// p.on_epoch_end(); // tree rebuilt, counter values forgotten
/// assert_eq!(p.tree().active_counters(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Prcat {
    tree: CatTree,
}

impl Prcat {
    /// Creates a PRCAT instance for the given configuration.
    pub fn new(config: CatConfig) -> Self {
        Prcat {
            tree: CatTree::new(config),
        }
    }

    /// Read access to the underlying tree (shape inspection, diagnostics).
    pub fn tree(&self) -> &CatTree {
        &self.tree
    }

    /// The tree, for run-level replay of quiet activations.
    pub(crate) fn tree_mut(&mut self) -> &mut CatTree {
        &mut self.tree
    }

    /// Resident heap bytes of the scheme's state (the tree slabs).
    pub fn heap_bytes(&self) -> usize {
        self.tree.heap_bytes()
    }

    /// Appends the scheme's mutable state (the tree) for checkpointing.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        self.tree.save_state(out);
    }

    /// Restores state captured by [`Prcat::save_state`] onto a freshly
    /// built instance of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::StateError`] when the tree state is malformed.
    pub fn restore_state(
        &mut self,
        r: &mut crate::state::StateReader<'_>,
    ) -> Result<(), crate::StateError> {
        self.tree.restore_state(r)
    }
}

impl MitigationScheme for Prcat {
    fn on_activation(&mut self, row: RowId) -> Refreshes {
        match self.tree.record(row).refresh {
            Some(range) => Refreshes::one(range),
            None => Refreshes::none(),
        }
    }

    fn on_epoch_end(&mut self) {
        self.tree.reset();
    }

    fn stats(&self) -> &SchemeStats {
        self.tree.stats()
    }

    fn hardware(&self) -> HardwareProfile {
        self.tree.hardware_as(SchemeKind::Prcat)
    }

    fn rows(&self) -> u32 {
        self.tree.config().rows()
    }

    fn name(&self) -> String {
        format!("PRCAT_{}", self.tree.config().counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CatConfig {
        CatConfig::new(1024, 8, 6, 256).unwrap()
    }

    #[test]
    fn epoch_reset_rebuilds_the_tree() {
        let mut p = Prcat::new(cfg());
        for _ in 0..200 {
            p.on_activation(RowId(3));
        }
        assert!(p.tree().shape().max_depth() > 2);
        p.on_epoch_end();
        assert_eq!(p.tree().shape().depth_profile(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn stats_survive_epochs() {
        let mut p = Prcat::new(cfg());
        for _ in 0..100 {
            p.on_activation(RowId(3));
        }
        p.on_epoch_end();
        for _ in 0..100 {
            p.on_activation(RowId(3));
        }
        assert_eq!(p.stats().activations, 200);
    }

    #[test]
    fn re_learning_costs_coarse_refreshes() {
        // With the epoch reset, a persistently hot row is re-discovered from
        // coarse groups each epoch, refreshing more rows overall than a
        // scheme that retains its shape (see Drcat tests for the contrast).
        let mut p = Prcat::new(cfg());
        let mut rows_epoch0 = 0u64;
        for _ in 0..1024 {
            rows_epoch0 += p.on_activation(RowId(70)).total_rows();
        }
        assert!(rows_epoch0 > 0);
        let profile = p.hardware();
        assert_eq!(profile.kind, crate::SchemeKind::Prcat);
        assert_eq!(profile.counters, 8);
        assert_eq!(p.name(), "PRCAT_8");
    }
}
