//! # catree — Counter-based Adaptive Trees for DRAM crosstalk mitigation
//!
//! A from-scratch Rust reproduction of *"Mitigating Wordline Crosstalk
//! using Adaptive Trees of Counters"* (Seyedzadeh, Jones, Melhem — ISCA
//! 2018): the CAT/PRCAT/DRCAT mitigation schemes, the baselines they are
//! evaluated against (PRA, SCA, per-row counter caches), and the full
//! evaluation substrate — a USIMM-style DDR3 memory-system simulator,
//! synthetic MSC-like workloads and kernel attacks, the Table-II hardware
//! energy/area model with CMRPO accounting, and the Eq.-1 reliability
//! analytics.
//!
//! This crate is a facade: it re-exports the workspace members so an
//! application can depend on `catree` alone.
//!
//! ```
//! use catree::{AccessStream, SchemeSpec, Simulator, SystemConfig};
//!
//! // Protect the paper's dual-core system with DRCAT_64 and measure one
//! // (abbreviated) workload slice.
//! let cfg = SystemConfig::dual_core_two_channel();
//! let spec = catree::workloads::by_name("black").unwrap();
//! let traces: Vec<Box<dyn Iterator<Item = catree::MemAccess> + Send>> = (0..cfg.cores)
//!     .map(|core| {
//!         Box::new(AccessStream::new(&spec, &cfg, core, 1, 7).take(20_000))
//!             as Box<dyn Iterator<Item = catree::MemAccess> + Send>
//!     })
//!     .collect();
//! let mut sim = Simulator::new(
//!     cfg,
//!     SchemeSpec::Drcat { counters: 64, levels: 11, threshold: 32_768 },
//! );
//! let report = sim.run(traces);
//! assert_eq!(report.activations(), 40_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Seeded pseudo-random number generation: the workspace's zero-dependency
/// replacement for the `rand` crate (the build must work offline), exposing
/// `Rng`/`SeedableRng` traits and the `rngs::{SmallRng, StdRng}` generators.
pub use cat_prng as prng;

pub use cat_core::{
    oracle, rng, thresholds, tree, CatConfig, CatTree, ConfigError, CounterCache,
    CounterCacheConfig, Drcat, HardwareProfile, MitigationScheme, ParseSpecError, Pra, Prcat,
    Refreshes, RowId, RowRange, Sca, SchemeInstance, SchemeKind, SchemeSpec, SchemeStats,
    SpaceSaving, SplitThresholds, ThresholdPolicy,
};
pub use cat_energy::{cmrpo_from_stats, CmrpoBreakdown};
pub use cat_engine::{
    AddressMapping, BankEngine, BatchOutcome, EngineFootprint, EngineReport, GeometryError,
    GeometrySlice, Location, MemGeometry, MemorySystem, Partition, PartitionError, SliceError,
};
pub use cat_sim::{
    functional, tracefile, MappingPolicy, MemAccess, SimReport, Simulator, SystemConfig,
    SystemConfigError, TimingParams,
};
pub use cat_workloads::{
    AccessStream, AttackMode, Cluster, KernelAttack, Mix, RowHistogram, Suite, WorkloadSpec,
    ZipfMix,
};

/// Sharded, statically-dispatched multi-bank engine driving the mitigation
/// schemes, plus the `MemorySystem` decode front-end and the socket/queue
/// ingestion layer (`engine::ingest` — the deterministic multi-producer
/// merge behind the `catd` server — and `engine::wire`, its binary wire
/// format; see `cat-engine` for the determinism contract).
pub use cat_engine as engine;

/// Hardware energy/area model (paper Table II) and CMRPO accounting.
pub mod energy {
    pub use cat_energy::{cmrpo, prng, refresh, sram, table2};
}

/// PRA survivability analytics (Eq. 1) and LFSR Monte-Carlo studies.
pub mod reliability {
    pub use cat_reliability::{
        analytic, chipkill_log10, ideal_window_failures, lfsr_attack, log10_unsurvivability,
        montecarlo, unsurvivability, LfsrAttackOutcome, CHIPKILL,
    };
}

/// Workload catalog and generators.
pub mod workloads {
    pub use cat_workloads::catalog::{all, by_name, sweep_subset};
    pub use cat_workloads::{AccessStream, AttackMode, KernelAttack, RowHistogram, WorkloadSpec};
}
