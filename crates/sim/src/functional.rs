//! Timing-free functional mode: drive only the mitigation schemes with the
//! activation stream. Used for the wide CMRPO parameter sweeps (Figs. 2,
//! 10, 12) where refresh-row counts — not cycle-accurate delays — are
//! needed, at two orders of magnitude more speed than the timed model.
//!
//! The decode-and-drive loop itself lives in [`cat_engine::MemorySystem`]
//! (address decode, per-channel engines, global epoch accounting, and the
//! streaming `push` front-end whose staging buffer batches the stream —
//! this module is now a thin adapter from [`MemAccess`] iterators).

use cat_core::{SchemeSpec, SchemeStats};
use cat_engine::MemorySystem;

use crate::config::SystemConfig;
use crate::trace::MemAccess;

/// Result of a functional run.
#[derive(Clone, Debug, Default)]
pub struct FunctionalReport {
    /// Accesses processed.
    pub accesses: u64,
    /// Row activations per bank.
    pub activations_per_bank: Vec<u64>,
    /// Aggregated scheme statistics.
    pub scheme_stats: SchemeStats,
    /// Per-bank scheme statistics.
    pub per_bank_stats: Vec<SchemeStats>,
    /// Epochs processed.
    pub epochs: u64,
}

/// Replays an access stream through the multi-bank engine, invoking epoch
/// resets every `accesses_per_epoch` accesses (the stream is assumed to be
/// rate-uniform within an epoch — see `DESIGN.md`).
///
/// ```
/// use cat_core::SchemeSpec;
/// use cat_sim::functional::run_functional;
/// use cat_sim::{MemAccess, SystemConfig};
///
/// let cfg = SystemConfig::dual_core_two_channel();
/// let stream = (0..100_000u64).map(|i| MemAccess {
///     gap: 0,
///     write: false,
///     addr: (i % 7) << 20,
/// });
/// let spec = SchemeSpec::Sca { counters: 64, threshold: 16_384 };
/// let report = run_functional(&cfg, spec, stream, 50_000);
/// assert_eq!(report.accesses, 100_000);
/// assert_eq!(report.epochs, 2);
/// ```
pub fn run_functional(
    config: &SystemConfig,
    spec: SchemeSpec,
    stream: impl Iterator<Item = MemAccess>,
    accesses_per_epoch: u64,
) -> FunctionalReport {
    assert!(accesses_per_epoch > 0, "epoch must contain accesses");
    let mut system = MemorySystem::new(config, spec).with_epoch_length(accesses_per_epoch);
    system.push_iter(stream.map(|access| access.addr));
    system.flush();

    let report = system.report();
    FunctionalReport {
        accesses: report.accesses,
        activations_per_bank: report.activations_per_bank,
        scheme_stats: report.scheme_stats,
        per_bank_stats: report.per_bank_stats,
        epochs: report.epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AddressMapping;

    fn hot_stream(cfg: &SystemConfig, n: u64) -> impl Iterator<Item = MemAccess> {
        let map = AddressMapping::new(cfg);
        (0..n).map(move |i| MemAccess {
            gap: 0,
            write: false,
            addr: map.encode_line(
                0,
                0,
                2,
                if i % 2 == 0 {
                    7_777
                } else {
                    (i % 65_536) as u32
                },
                0,
            ),
        })
    }

    #[test]
    fn counts_land_in_the_right_bank() {
        let cfg = SystemConfig::dual_core_two_channel();
        let r = run_functional(&cfg, SchemeSpec::None, hot_stream(&cfg, 10_000), 1_000_000);
        assert_eq!(r.accesses, 10_000);
        // channel 0, rank 0, bank 2 → global bank 2.
        assert_eq!(r.activations_per_bank[2], 10_000);
        assert_eq!(r.activations_per_bank.iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn schemes_fire_in_functional_mode() {
        let cfg = SystemConfig::dual_core_two_channel();
        let spec = SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: 2_048,
        };
        let r = run_functional(&cfg, spec, hot_stream(&cfg, 50_000), 1_000_000);
        assert!(r.scheme_stats.refresh_events > 0);
        assert!(r.scheme_stats.refreshed_rows > 0);
    }

    #[test]
    fn epoch_boundaries_by_access_count() {
        let cfg = SystemConfig::dual_core_two_channel();
        let r = run_functional(&cfg, SchemeSpec::None, hot_stream(&cfg, 10_000), 2_500);
        assert_eq!(r.epochs, 4);
    }

    #[test]
    fn epochs_fire_inside_and_across_batches() {
        // Epoch length smaller than one staged flush and not a divisor of
        // it: boundaries must land mid-batch and carry across flushes.
        let cfg = SystemConfig::dual_core_two_channel();
        let n = MemorySystem::DEFAULT_STREAM_CAPACITY as u64 * 3 + 500;
        let r = run_functional(&cfg, SchemeSpec::None, hot_stream(&cfg, n), 3_000);
        assert_eq!(r.epochs, n / 3_000);
        assert_eq!(r.accesses, n);
    }

    #[test]
    #[should_panic(expected = "epoch must contain accesses")]
    fn zero_epoch_length_rejected() {
        let cfg = SystemConfig::dual_core_two_channel();
        let _ = run_functional(&cfg, SchemeSpec::None, std::iter::empty(), 0);
    }

    #[test]
    fn bank_ids_beyond_u16_land_in_the_right_banks() {
        // Regression test for the old `global_bank as u16` truncation: a
        // synthetic geometry with 131_072 banks (2× the u16 range). Before
        // the u32 widening, bank 65_536 + b silently aliased onto bank b.
        let cfg = SystemConfig {
            channels: 8,
            ranks_per_channel: 4,
            banks_per_rank: 4096,
            rows_per_bank: 16,
            lines_per_row: 2,
            ..SystemConfig::dual_core_two_channel()
        };
        assert_eq!(cfg.total_banks(), 131_072);
        let map = AddressMapping::new(&cfg);
        let targets = [65_536u32, 70_001, 131_071];
        let alias_of = |g: u32| g & 0xFFFF; // where the u16 cast used to land
        let addr_of = |global: u32| {
            let bank = global % cfg.banks_per_rank;
            let rank = (global / cfg.banks_per_rank) % cfg.ranks_per_channel;
            let channel = global / (cfg.ranks_per_channel * cfg.banks_per_rank);
            map.encode_line(channel, rank, bank, u32::from(global as u8 % 16), 0)
        };
        let stream = (0..9_000u64).map(|i| MemAccess {
            gap: 0,
            write: false,
            addr: addr_of(targets[(i % 3) as usize]),
        });
        let r = run_functional(&cfg, SchemeSpec::None, stream, 1_000_000);
        assert_eq!(r.activations_per_bank.len(), 131_072);
        for &t in &targets {
            assert_eq!(r.activations_per_bank[t as usize], 3_000, "bank {t}");
            assert_eq!(
                r.activations_per_bank[alias_of(t) as usize],
                0,
                "u16 alias of bank {t} must stay cold"
            );
        }
        assert_eq!(r.activations_per_bank.iter().sum::<u64>(), 9_000);
    }

    #[test]
    fn million_bank_geometry_stays_sparse() {
        // 8× the regression above: 4 channels × 4 ranks × 65_536 banks =
        // 1_048_576 banks. Bank storage is lazily materialized, so the
        // system constructs in O(channels) and only the 64 banks the
        // stream touches ever hold a scheme instance — the other ~1M stay
        // cold and cost nothing.
        let cfg = SystemConfig {
            channels: 4,
            ranks_per_channel: 4,
            banks_per_rank: 65_536,
            rows_per_bank: 16,
            lines_per_row: 2,
            ..SystemConfig::dual_core_two_channel()
        };
        assert_eq!(cfg.total_banks(), 1 << 20);
        let spec = SchemeSpec::Sca {
            counters: 8,
            threshold: 64,
        };
        let mut system = MemorySystem::new(&cfg, spec).with_epoch_length(1_000_000);
        let map = AddressMapping::new(&cfg);
        let addr_of = |global: u32| {
            let bank = global % cfg.banks_per_rank;
            let rank = (global / cfg.banks_per_rank) % cfg.ranks_per_channel;
            let channel = global / (cfg.ranks_per_channel * cfg.banks_per_rank);
            map.encode_line(channel, rank, bank, 7, 0)
        };
        let hot: Vec<u32> = (0..64u32).map(|k| k * 16_384 + 5).collect();
        for i in 0..20_000u64 {
            system.push(addr_of(hot[(i % 64) as usize]));
        }
        system.flush();
        let fp = system.footprint();
        assert_eq!(fp.banks, 1 << 20);
        assert_eq!(
            fp.materialized_banks, 64,
            "cold banks must never materialize"
        );
        assert!(fp.scheme_bytes > 0, "footprint must see the hot banks");
        assert!(
            system.stats().refresh_events > 0,
            "hammered rows must fire through the sparse storage"
        );
        assert_eq!(system.accesses(), 20_000);
    }
}
