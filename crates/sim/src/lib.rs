//! # cat-sim — a USIMM-style memory-system simulator
//!
//! The paper evaluates its mitigation schemes by replaying Memory Scheduling
//! Championship workloads through USIMM \[47\] configured as in its Table I.
//! This crate rebuilds the relevant subset of that infrastructure in Rust:
//!
//! * [`SystemConfig`] — Table-I system configurations (dual-core/2-channel
//!   default, quad-core and 4-channel variants) with DDR3-1600 timing,
//!   validated (power-of-two geometry, ordered write-queue watermarks)
//!   before any simulation runs.
//! * [`AddressMapping`] — the `rw:rk:bk:ch:col:offset` address mapping and
//!   its 4-channel variant (§VIII-B); the type itself lives in
//!   `cat-engine` (as does the [`cat_engine::MemorySystem`] front-end) and
//!   converts from `&SystemConfig`.
//! * [`Simulator`] — a cycle-based timing model: per-core ROB-limited
//!   front ends, FR-FCFS scheduling with closed-page policy, write-queue
//!   drain, per-rank auto-refresh, and **mitigation refreshes that block the
//!   bank** for `rows × tRC` — the mechanism behind the paper's execution
//!   time overhead (ETO) metric.
//! * [`functional`] — a fast timing-free mode that drives only the
//!   mitigation schemes (used for the large CMRPO parameter sweeps).
//!
//! Both modes drive the per-bank schemes through a
//! [`cat_engine::MemorySystem`] — it owns the epoch clock (access counts
//! in [`functional`], the refresh cycle in [`Simulator`] via `end_epoch`)
//! and routes into per-channel `cat_engine::BankEngine`s, each a slice
//! of bank records holding statically-dispatched
//! [`cat_core::SchemeInstance`] values built from a
//! [`cat_core::SchemeSpec`].
//!
//! ```
//! use cat_core::SchemeSpec;
//! use cat_sim::{SystemConfig, Simulator};
//!
//! // A tiny synthetic trace: every core hammers one hot line.
//! let cfg = SystemConfig::dual_core_two_channel();
//! let trace = |core: usize| {
//!     (0..2_000u64).map(move |i| cat_sim::MemAccess {
//!         gap: 30,
//!         write: i % 8 == 0,
//!         addr: (core as u64) << 33 | (i % 64) << 14,
//!     })
//! };
//! let mut sim = Simulator::new(cfg, SchemeSpec::Sca { counters: 64, threshold: 4096 });
//! let report = sim.run(vec![
//!     Box::new(trace(0)),
//!     Box::new(trace(1)),
//! ]);
//! assert!(report.cycles > 0);
//! assert_eq!(report.reads + report.writes, 4_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod config;
mod controller;
mod cpu;
pub mod functional;
mod report;
mod sim;
mod trace;
pub mod tracefile;

pub use address::{AddressMapping, GeometryError, Location, MemGeometry};
pub use config::{MappingPolicy, SystemConfig, SystemConfigError, TimingParams};
pub use report::SimReport;
pub use sim::Simulator;
pub use trace::{MemAccess, TraceSource};
