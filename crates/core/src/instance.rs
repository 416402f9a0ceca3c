//! [`SchemeInstance`] — the six concrete mitigation schemes behind one enum,
//! dispatched statically.
//!
//! The per-activation virtual call through `Box<dyn MitigationScheme>` costs
//! an indirect branch plus a heap pointer chase on the hottest path in the
//! repo (every simulated row activation). `SchemeInstance` replaces it with
//! an enum match the compiler can inline. The set of schemes is closed: a
//! new mitigation (e.g. a successor scheme) lands as a new variant, so
//! every variant has a state-capture contract and an exact footprint.

use crate::scheme::{HardwareProfile, MitigationScheme, Refreshes};
use crate::state::{StateError, StateReader};
use crate::{CatTree, CounterCache, Drcat, Pra, Prcat, RowId, Sca, SchemeStats, SpaceSaving};

/// One concrete mitigation scheme, statically dispatched.
///
/// Constructed from a [`crate::SchemeSpec`] via
/// [`build_instance`](crate::SchemeSpec::build_instance); also implements
/// [`MitigationScheme`] itself so it can stand wherever a trait object is
/// expected (the reference oracle, the historical boxed bench row).
///
/// ```
/// use cat_core::{MitigationScheme, RowId, SchemeSpec};
/// let spec = SchemeSpec::Sca { counters: 64, threshold: 4096 };
/// let mut instance = spec.build_instance(65_536, 0).unwrap();
/// instance.on_activation(RowId(7));
/// assert_eq!(instance.stats().activations, 1);
/// assert_eq!(instance.name(), "SCA_64");
/// ```
pub enum SchemeInstance {
    /// Probabilistic row activation.
    Pra(Pra),
    /// Static counter assignment.
    Sca(Sca),
    /// Periodically reset CAT.
    Prcat(Prcat),
    /// Dynamically reconfigured CAT.
    Drcat(Drcat),
    /// Per-row counters in DRAM with an on-chip counter cache.
    CounterCache(CounterCache),
    /// Space-Saving frequent-item tracker.
    SpaceSaving(SpaceSaving),
}

// Stable state-image kind tags (never renumber: checkpoints persist).
const KIND_PRA: u64 = 1;
const KIND_SCA: u64 = 2;
const KIND_PRCAT: u64 = 3;
const KIND_DRCAT: u64 = 4;
const KIND_COUNTER_CACHE: u64 = 5;
const KIND_SPACE_SAVING: u64 = 6;

/// Delegates one method call to whichever variant is live.
macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            SchemeInstance::Pra($inner) => $body,
            SchemeInstance::Sca($inner) => $body,
            SchemeInstance::Prcat($inner) => $body,
            SchemeInstance::Drcat($inner) => $body,
            SchemeInstance::CounterCache($inner) => $body,
            SchemeInstance::SpaceSaving($inner) => $body,
        }
    };
}

impl SchemeInstance {
    /// Records the activation of `row`; see
    /// [`MitigationScheme::on_activation`].
    #[inline]
    pub fn on_activation(&mut self, row: RowId) -> Refreshes {
        dispatch!(self, s => s.on_activation(row))
    }

    /// Signals an auto-refresh epoch boundary; see
    /// [`MitigationScheme::on_epoch_end`].
    #[inline]
    pub fn on_epoch_end(&mut self) {
        dispatch!(self, s => s.on_epoch_end())
    }

    /// Event counts accumulated so far.
    #[inline]
    pub fn stats(&self) -> &SchemeStats {
        dispatch!(self, s => s.stats())
    }

    /// Hardware footprint description for the energy/area model.
    pub fn hardware(&self) -> HardwareProfile {
        dispatch!(self, s => s.hardware())
    }

    /// Number of rows in the protected bank.
    pub fn rows(&self) -> u32 {
        dispatch!(self, s => s.rows())
    }

    /// Human-readable name, e.g. `"DRCAT_64"`.
    pub fn name(&self) -> String {
        dispatch!(self, s => s.name())
    }

    /// Drives a whole run of activations through the scheme. `sink` is
    /// called once per activation, in order, with exactly the
    /// [`Refreshes`] that [`SchemeInstance::on_activation`] would return;
    /// the resulting state and statistics are those of the same
    /// per-activation calls.
    ///
    /// The variant match is hoisted out of the loop — this is the batched
    /// hot path of `cat-engine`'s bank replay. PRCAT and DRCAT replay
    /// run-level (DESIGN.md §3.7): activations that reach no threshold are
    /// counted in a tight loop, and only a threshold-crossing row takes
    /// Algorithm 1's event path through `on_activation`.
    #[inline]
    pub fn run(&mut self, rows: &[u32], sink: impl FnMut(Refreshes)) {
        match self {
            SchemeInstance::Prcat(s) => run_cat(s, Prcat::tree_mut, rows, sink),
            SchemeInstance::Drcat(s) => run_cat(s, Drcat::tree_mut, rows, sink),
            SchemeInstance::Pra(s) => run_each(s, rows, sink),
            SchemeInstance::Sca(s) => run_each(s, rows, sink),
            SchemeInstance::CounterCache(s) => run_each(s, rows, sink),
            SchemeInstance::SpaceSaving(s) => run_each(s, rows, sink),
        }
    }

    /// Resident bytes of this scheme's live state: the enum itself plus
    /// each variant's heap allocations (tree slabs, counter arrays, the
    /// counter cache's per-row backing store, …).
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + dispatch!(self, s => s.heap_bytes())
    }

    /// Appends this scheme's complete mutable state (a stable kind tag
    /// followed by variant-specific words) for checkpointing.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Unsupported`] for PRA backends without PRNG
    /// state capture.
    pub fn save_state(&self, out: &mut Vec<u64>) -> Result<(), StateError> {
        match self {
            SchemeInstance::Pra(s) => {
                out.push(KIND_PRA);
                s.save_state(out)?;
            }
            SchemeInstance::Sca(s) => {
                out.push(KIND_SCA);
                s.save_state(out);
            }
            SchemeInstance::Prcat(s) => {
                out.push(KIND_PRCAT);
                s.save_state(out);
            }
            SchemeInstance::Drcat(s) => {
                out.push(KIND_DRCAT);
                s.save_state(out);
            }
            SchemeInstance::CounterCache(s) => {
                out.push(KIND_COUNTER_CACHE);
                s.save_state(out);
            }
            SchemeInstance::SpaceSaving(s) => {
                out.push(KIND_SPACE_SAVING);
                s.save_state(out);
            }
        }
        Ok(())
    }

    /// Restores state captured by [`SchemeInstance::save_state`] onto a
    /// freshly built instance of the same spec. The leading kind tag must
    /// match the live variant — restoring a DRCAT image into an SCA engine
    /// is a typed error, not a reinterpretation.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on kind mismatch or malformed variant state.
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let kind = r.next_word()?;
        match (kind, self) {
            (KIND_PRA, SchemeInstance::Pra(s)) => s.restore_state(r),
            (KIND_SCA, SchemeInstance::Sca(s)) => s.restore_state(r),
            (KIND_PRCAT, SchemeInstance::Prcat(s)) => s.restore_state(r),
            (KIND_DRCAT, SchemeInstance::Drcat(s)) => s.restore_state(r),
            (KIND_COUNTER_CACHE, SchemeInstance::CounterCache(s)) => s.restore_state(r),
            (KIND_SPACE_SAVING, SchemeInstance::SpaceSaving(s)) => s.restore_state(r),
            _ => Err(StateError::Invalid("scheme kind tag mismatch")),
        }
    }
}

/// Per-activation replay: one `on_activation` per row.
#[inline]
fn run_each<S: MitigationScheme>(s: &mut S, rows: &[u32], mut sink: impl FnMut(Refreshes)) {
    for &row in rows {
        sink(s.on_activation(RowId(row)));
    }
}

/// Run-level replay of a CAT scheme: the tree counts the quiet prefix, then
/// the scheme's own `on_activation` handles the row that stopped it — a
/// split or refresh (with DRCAT's weight update), or the out-of-range panic.
#[inline]
fn run_cat<S: MitigationScheme>(
    s: &mut S,
    tree: fn(&mut S) -> &mut CatTree,
    mut rows: &[u32],
    mut sink: impl FnMut(Refreshes),
) {
    while !rows.is_empty() {
        let quiet = tree(s).record_quiet(rows);
        for _ in 0..quiet {
            sink(Refreshes::none());
        }
        let Some((&row, rest)) = rows[quiet..].split_first() else {
            return;
        };
        sink(s.on_activation(RowId(row)));
        rows = rest;
    }
}

impl MitigationScheme for SchemeInstance {
    fn on_activation(&mut self, row: RowId) -> Refreshes {
        SchemeInstance::on_activation(self, row)
    }

    fn on_epoch_end(&mut self) {
        SchemeInstance::on_epoch_end(self)
    }

    fn stats(&self) -> &SchemeStats {
        SchemeInstance::stats(self)
    }

    fn hardware(&self) -> HardwareProfile {
        SchemeInstance::hardware(self)
    }

    fn rows(&self) -> u32 {
        SchemeInstance::rows(self)
    }

    fn name(&self) -> String {
        SchemeInstance::name(self)
    }
}

impl std::fmt::Debug for SchemeInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchemeInstance")
            .field("name", &self.name())
            .field("rows", &self.rows())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemeSpec;

    #[test]
    fn instance_matches_boxed_build() {
        let spec = SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: 512,
        };
        let mut instance = spec.build_instance(4096, 0).unwrap();
        let mut boxed: Box<dyn MitigationScheme + Send> =
            Box::new(spec.build_instance(4096, 0).unwrap());
        for i in 0..20_000u32 {
            let row = RowId(if i % 3 == 0 { 77 } else { i % 4096 });
            assert_eq!(instance.on_activation(row), boxed.on_activation(row));
        }
        instance.on_epoch_end();
        boxed.on_epoch_end();
        assert_eq!(instance.stats(), boxed.stats());
        assert_eq!(instance.name(), boxed.name());
        assert_eq!(instance.hardware(), boxed.hardware());
        assert!(
            instance.stats().refresh_events > 0,
            "hammered row must fire"
        );
    }

    #[test]
    fn instance_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SchemeInstance>();
    }
}
