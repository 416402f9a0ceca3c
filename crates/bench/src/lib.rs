//! Shared harness utilities for the figure-regeneration benches.
//!
//! Each `benches/figNN_*.rs` target is a `harness = false` binary that
//! prints the same rows/series as the corresponding table or figure of the
//! paper. `EXPERIMENTS.md` records paper-reported vs. measured values.
//!
//! Methodology split (documented in `EXPERIMENTS.md`):
//! * **CMRPO** figures run the *functional* simulator at the workloads'
//!   nominal per-interval access rates (the paper's Q0 assumption) over
//!   several 64 ms epochs.
//! * **ETO** figures run the cycle-based timing simulator on a half-epoch
//!   trace slice per configuration against a no-mitigation baseline.
//!
//! Set `REPRO_QUICK=1` to divide trace lengths by 4 for fast iteration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cat_core::{HardwareProfile, SchemeSpec};
use cat_energy::{cmrpo_from_stats, CmrpoBreakdown};
use cat_engine::MemorySystem;
use cat_sim::functional::run_functional;
use cat_sim::{MemAccess, SimReport, Simulator, SystemConfig};
use cat_workloads::{AccessStream, WorkloadSpec};

/// Trace-length divisor from `REPRO_QUICK` (1 = full fidelity).
pub fn quick_factor() -> u64 {
    match std::env::var("REPRO_QUICK") {
        Ok(v) if v == "0" || v.is_empty() => 1,
        Ok(_) => 4,
        Err(_) => 1,
    }
}

/// A single-core-equivalent stream carrying the whole system's accesses
/// (used by the functional CMRPO runs).
pub fn system_stream(
    spec: &WorkloadSpec,
    cfg: &SystemConfig,
    epochs: u64,
    seed: u64,
) -> AccessStream {
    let mut one = cfg.clone();
    one.cores = 1;
    AccessStream::new(spec, &one, 0, epochs, seed)
}

/// Builds the hardware profile a [`SchemeSpec`] would occupy per bank.
///
/// Computed directly from the spec — no scheme instance (or counter tree)
/// is constructed and thrown away.
///
/// # Panics
///
/// Panics for [`SchemeSpec::None`], which has no hardware.
pub fn profile_of(spec: SchemeSpec, rows: u32) -> HardwareProfile {
    spec.profile(rows)
        .expect("profile requested for a real scheme")
}

/// Functional CMRPO of `scheme` on `workload` over `epochs` 64 ms epochs.
///
/// Execution time is taken as the nominal `epochs × 64 ms` (ETO ≤ 1.5 %
/// for every scheme, so the approximation is far below run-to-run noise).
pub fn functional_cmrpo(
    cfg: &SystemConfig,
    scheme: SchemeSpec,
    workload: &WorkloadSpec,
    epochs: u64,
    seed: u64,
) -> CmrpoBreakdown {
    let epochs = (epochs / quick_factor()).max(1);
    let stream = system_stream(workload, cfg, epochs, seed);
    let per_epoch = workload.accesses_per_epoch;
    let report = run_functional(cfg, scheme, stream, per_epoch);
    let exec_seconds = epochs as f64 * cfg.epoch_ms as f64 / 1e3;
    cmrpo_from_stats(
        &profile_of(scheme, cfg.rows_per_bank),
        &report.scheme_stats,
        cfg.total_banks(),
        cfg.rows_per_bank,
        exec_seconds,
    )
}

/// A pre-decoded activation trace: `(global bank, row)` per access.
///
/// Generating and decoding a workload stream costs ~10× more than driving
/// a mitigation scheme with it, so the CMRPO sweeps decode each workload
/// once and replay it across every scheme configuration.
pub struct DecodedTrace {
    /// `(global bank, row)` pairs in access order (full-width bank ids —
    /// the decode path never narrows them).
    pub entries: Vec<(u32, u32)>,
    /// Accesses per 64 ms epoch.
    pub per_epoch: u64,
}

/// Decodes `epochs` epochs of a workload into bank/row pairs through the
/// engine layer's decode front-end.
pub fn decode_trace(
    spec: &WorkloadSpec,
    cfg: &SystemConfig,
    epochs: u64,
    seed: u64,
) -> DecodedTrace {
    let epochs = (epochs / quick_factor()).max(1);
    let mapping = cat_sim::AddressMapping::new(cfg);
    let entries = system_stream(spec, cfg, epochs, seed)
        .map(|a| mapping.decode_bank_row(a.addr))
        .collect();
    DecodedTrace {
        entries,
        per_epoch: spec.accesses_per_epoch,
    }
}

/// CMRPO of `scheme` replaying a pre-decoded trace (same semantics as
/// [`functional_cmrpo`]) through a [`MemorySystem`].
///
/// The whole trace goes down in one `process` call: the engine's cut-aware
/// batch path fires every epoch boundary inside that single batch, so even
/// sweeps whose `per_epoch` is far below the trace length visit each bank
/// once per replay.
pub fn replay_cmrpo(
    cfg: &SystemConfig,
    scheme: SchemeSpec,
    trace: &DecodedTrace,
) -> CmrpoBreakdown {
    let mut system = MemorySystem::new(cfg, scheme).with_epoch_length(trace.per_epoch);
    system.process(&trace.entries);
    let exec_seconds =
        trace.entries.len() as f64 / trace.per_epoch as f64 * cfg.epoch_ms as f64 / 1e3;
    cmrpo_from_stats(
        &profile_of(scheme, cfg.rows_per_bank),
        &system.stats(),
        cfg.total_banks(),
        cfg.rows_per_bank,
        exec_seconds,
    )
}

/// Per-core trace boxes for the timing simulator, `1/slice` of an epoch.
pub fn timed_traces(
    spec: &WorkloadSpec,
    cfg: &SystemConfig,
    slice: u64,
    seed: u64,
) -> Vec<Box<dyn Iterator<Item = MemAccess> + Send>> {
    let budget =
        (spec.accesses_per_epoch / cfg.cores as u64 / slice / quick_factor()).max(10_000) as usize;
    (0..cfg.cores)
        .map(|core| {
            Box::new(AccessStream::new(spec, cfg, core, 64, seed).take(budget))
                as Box<dyn Iterator<Item = MemAccess> + Send>
        })
        .collect()
}

/// Runs the timing simulator for `scheme` on `spec`.
pub fn timed_run(
    cfg: &SystemConfig,
    scheme: SchemeSpec,
    spec: &WorkloadSpec,
    slice: u64,
    seed: u64,
) -> SimReport {
    let mut sim = Simulator::new(cfg.clone(), scheme);
    sim.run(timed_traces(spec, cfg, slice, seed))
}

/// `geomean`-free arithmetic mean (the paper reports arithmetic means).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Prints a figure banner.
pub fn banner(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cat_workloads::catalog;

    #[test]
    fn functional_cmrpo_produces_sane_components() {
        let cfg = SystemConfig::dual_core_two_channel();
        let w = catalog::by_name("swapt").unwrap();
        let c = functional_cmrpo(
            &cfg,
            SchemeSpec::Sca {
                counters: 64,
                threshold: 32_768,
            },
            &w,
            1,
            1,
        );
        assert!(c.total() > 0.0 && c.total() < 1.0, "{c}");
        assert!(c.static_ > 0.0 && c.dynamic > 0.0);
    }

    #[test]
    fn helpers_behave() {
        assert_eq!(pct(0.0425), "4.25%");
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!(quick_factor() >= 1);
    }

    #[test]
    fn system_stream_carries_full_rate() {
        let cfg = SystemConfig::dual_core_two_channel();
        let w = catalog::by_name("swapt").unwrap();
        let n = system_stream(&w, &cfg, 1, 2).count() as u64;
        assert_eq!(n, w.accesses_per_epoch);
    }
}
