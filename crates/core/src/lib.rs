//! # cat-core — Counter-based Adaptive Trees for wordline-crosstalk mitigation
//!
//! This crate implements the mitigation schemes studied in *"Mitigating
//! Wordline Crosstalk using Adaptive Trees of Counters"* (Seyedzadeh, Jones,
//! Melhem — ISCA 2018):
//!
//! * [`CatTree`] — the paper's contribution: a dynamically grown,
//!   potentially unbalanced binary tree of activation counters. Its shape
//!   is a row→counter leaf table plus each counter's depth; the §IV-C
//!   pointer array `I` is modeled only as cost, beside the counter array
//!   `C` and, for DRCAT, the weights `W`.
//! * [`Prcat`] — Periodically Reset CAT (§V-A): the tree is rebuilt at every
//!   64 ms auto-refresh epoch.
//! * [`Drcat`] — Dynamically Reconfigured CAT (§V-B): 2-bit weight registers
//!   track hot counters; cold sibling leaves are merged so their counter can
//!   split a hot region.
//! * [`Sca`] — Static Counter Assignment: `M` counters uniformly cover the
//!   bank (§III-B).
//! * [`Pra`] — Probabilistic Row Activation: refresh the two neighbours of
//!   an activated row with probability `p` (§III-A), with pluggable PRNGs
//!   (ideal or [`rng::Lfsr16`]).
//! * [`CounterCache`] — the per-row-counter + on-chip counter-cache baseline
//!   of Kim et al. (CAL 2015), reference \[26\] in the paper.
//!
//! All schemes implement the [`MitigationScheme`] trait: the memory
//! controller calls [`MitigationScheme::on_activation`] for every row
//! activation of a bank and receives the set of row ranges that must be
//! refreshed to protect potential victims.
//!
//! ## Quick example
//!
//! ```
//! use cat_core::{CatConfig, Drcat, MitigationScheme, RowId};
//!
//! # fn main() -> Result<(), cat_core::ConfigError> {
//! // A 64K-row bank protected by 64 counters, trees up to 11 levels,
//! // refresh threshold T = 32K (the paper's default configuration).
//! let cfg = CatConfig::new(65_536, 64, 11, 32_768)?;
//! let mut scheme = Drcat::new(cfg);
//!
//! // Hammer one aggressor row; eventually its victims get refreshed.
//! let aggressor = RowId(1_000);
//! let mut refreshed = 0u64;
//! for _ in 0..40_000 {
//!     for range in scheme.on_activation(aggressor) {
//!         refreshed += range.len();
//!     }
//! }
//! assert!(refreshed > 0, "victims of a hammered row must be refreshed");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod config;
mod counter_cache;
mod drcat;
mod instance;
pub mod oracle;
mod pra;
mod prcat;
pub mod rng;
mod sca;
mod scheme;
mod space_saving;
mod spec;
pub mod state;
mod stats;
pub mod thresholds;
pub mod tree;

pub use addr::{RowId, RowRange};
pub use config::{CatConfig, ConfigError};
pub use counter_cache::{CounterCache, CounterCacheConfig};
pub use drcat::Drcat;
pub use instance::SchemeInstance;
pub use pra::Pra;
pub use prcat::Prcat;
pub use sca::Sca;
pub use scheme::{HardwareProfile, MitigationScheme, Refreshes, SchemeKind};
pub use space_saving::SpaceSaving;
pub use spec::{ParseSpecError, SchemeSpec, PRA_DEFAULT_SEED};
pub use state::{StateError, StateReader};
pub use stats::{SchemeStats, StatsField};
pub use thresholds::{SplitThresholds, ThresholdPolicy};
pub use tree::CatTree;
