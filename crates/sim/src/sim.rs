//! The cycle-based system simulator tying cores, channels and mitigation
//! schemes together.

use cat_core::{SchemeInstance, SchemeSpec};
use cat_engine::MemorySystem;

use crate::config::SystemConfig;
use crate::controller::{Channel, Request};
use crate::cpu::{Core, IssueResult};
use crate::report::SimReport;
use crate::trace::MemAccess;

/// A multi-core, multi-channel DRAM system with one mitigation-scheme
/// instance per bank, driven through [`cat_engine::MemorySystem`] (decode
/// front-end + per-channel engines). The timed model is inherently
/// single-access — each `ACT` is issued at its cycle via
/// `activate_in_channel`, and epoch boundaries come from the cycle clock —
/// so it deliberately bypasses the engine's batched/streaming paths.
///
/// See the crate-level example for usage; [`Simulator::run`] consumes one
/// trace per core and returns a [`SimReport`].
pub struct Simulator {
    config: SystemConfig,
    system: MemorySystem,
    /// Hard cap on simulated cycles (runaway guard).
    max_cycles: u64,
}

impl Simulator {
    /// Creates a simulator for `config`, instantiating `spec` per bank.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SystemConfig::validate`] (aliasing
    /// geometry or misordered write-queue watermarks) or `spec` is invalid
    /// for the bank geometry.
    pub fn new(config: SystemConfig, spec: SchemeSpec) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid system configuration: {e}");
        }
        // Epoch boundaries are cycle-driven here, so the system's
        // access-count epoch accounting stays disabled.
        let system = MemorySystem::new(&config, spec);
        Simulator {
            system,
            max_cycles: 40 * config.cycles_per_epoch(),
            config,
        }
    }

    /// Overrides the runaway-guard cycle cap.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs the traces (one per core) to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if the number of traces does not match the configured core
    /// count, or if the run exceeds the cycle cap (deadlock guard).
    pub fn run(&mut self, traces: Vec<Box<dyn Iterator<Item = MemAccess> + Send>>) -> SimReport {
        assert_eq!(
            traces.len(),
            self.config.cores,
            "need one trace per core ({} configured)",
            self.config.cores
        );
        let cfg = &self.config;
        let mut cores: Vec<Core> = traces
            .into_iter()
            .map(|t| Core::new(t, cfg.rob_size))
            .collect();
        let mut channels: Vec<Channel> = (0..cfg.channels).map(|_| Channel::new(cfg)).collect();
        let mut completed: Vec<bool> = Vec::with_capacity(1 << 16);

        let commit_budget = (cfg.retire_width as u64 * cfg.cpu_per_mem_cycle) as u32;
        let fetch_budget = (cfg.fetch_width as u64 * cfg.cpu_per_mem_cycle) as u32;
        let epoch_cycles = cfg.cycles_per_epoch();

        let mut cycle: u64 = 0;
        let mut epochs: u64 = 0;
        loop {
            cycle += 1;
            assert!(
                cycle <= self.max_cycles,
                "simulation exceeded {} cycles — livelock or trace far larger than the epoch budget",
                self.max_cycles
            );

            // Auto-refresh epoch boundary: every row has been refreshed.
            if cycle.is_multiple_of(epoch_cycles) {
                epochs += 1;
                self.system.end_epoch();
            }

            // Memory controllers.
            for (ci, ch) in channels.iter_mut().enumerate() {
                ch.harvest_completions(cycle, &mut completed);
                let system = &mut self.system;
                let mut on_activation = |bank_in_ch: usize, row: u32| -> u64 {
                    system.activate_in_channel(ci, bank_in_ch, row).total_rows()
                };
                ch.tick(cycle, &mut on_activation);
            }

            // Cores: commit then fetch (single-cycle ordering is immaterial
            // at this granularity).
            let mut all_done = true;
            for core in cores.iter_mut() {
                core.commit(commit_budget, &completed);
                let mapping = self.system.mapping();
                let channels = &mut channels;
                let completed_len = &mut completed;
                let mut issue = |access: &MemAccess| -> IssueResult {
                    let loc = mapping.decode(access.addr);
                    let ch = &mut channels[loc.channel as usize];
                    if access.write {
                        if ch.write_queue_full() {
                            return IssueResult::Stall;
                        }
                        ch.write_q.push_back(Request {
                            req: u32::MAX,
                            loc,
                            write: true,
                        });
                        IssueResult::Write
                    } else {
                        let req = completed_len.len() as u32;
                        completed_len.push(false);
                        ch.read_q.push_back(Request {
                            req,
                            loc,
                            write: false,
                        });
                        IssueResult::Read(req)
                    }
                };
                core.fetch(fetch_budget, &mut issue);
                all_done &= core.finished();
            }

            if all_done && channels.iter().all(|c| c.idle()) {
                break;
            }
        }

        // Collect statistics.
        let mut report = SimReport {
            cycles: cycle,
            seconds: cycle as f64 * cfg.seconds_per_cycle(),
            epochs,
            instructions: cores.iter().map(|c| c.retired).sum(),
            ..SimReport::default()
        };
        for ch in &channels {
            report.reads += ch.reads_issued;
            report.writes += ch.writes_issued;
            for b in &ch.banks {
                report.activations_per_bank.push(b.activations);
                report.mitigation_busy_cycles += b.refresh_busy_cycles;
            }
        }
        report.per_bank_stats = self.system.per_bank_stats();
        report.scheme_stats = self.system.stats();
        report
    }

    /// Access to the per-bank schemes after a run (diagnostics).
    pub fn schemes(&self) -> impl Iterator<Item = &SchemeInstance> {
        self.system.schemes()
    }

    /// Access to the underlying memory system (diagnostics).
    pub fn system(&self) -> &MemorySystem {
        &self.system
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AddressMapping;
    use crate::config::MappingPolicy;

    /// A trace hammering `count` accesses at one row of bank 0, channel 0.
    fn hammer_trace(cfg: &SystemConfig, row: u32, count: u64, gap: u32) -> Vec<MemAccess> {
        let map = AddressMapping::new(cfg);
        (0..count)
            .map(|i| MemAccess {
                gap,
                write: i % 10 == 9,
                addr: map.encode_line(0, 0, 0, row, (i % 256) as u32),
            })
            .collect()
    }

    fn spread_trace(cfg: &SystemConfig, count: u64, gap: u32, salt: u32) -> Vec<MemAccess> {
        let map = AddressMapping::new(cfg);
        (0..count)
            .map(|i| {
                let j = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt);
                MemAccess {
                    gap,
                    write: i % 5 == 4,
                    addr: map.encode_line(
                        (j >> 1) % cfg.channels,
                        0,
                        (j >> 3) % cfg.banks_per_rank,
                        (j >> 7) % cfg.rows_per_bank,
                        j % cfg.lines_per_row,
                    ),
                }
            })
            .collect()
    }

    #[test]
    fn completes_and_counts_accesses() {
        let cfg = SystemConfig::dual_core_two_channel();
        let t0 = spread_trace(&cfg, 5_000, 20, 1);
        let t1 = spread_trace(&cfg, 5_000, 20, 2);
        let mut sim = Simulator::new(cfg, SchemeSpec::None);
        let r = sim.run(vec![Box::new(t0.into_iter()), Box::new(t1.into_iter())]);
        assert_eq!(r.reads + r.writes, 10_000);
        assert!(r.cycles > 0);
        assert!(r.instructions > 10_000 * 20);
    }

    #[test]
    fn mitigation_refreshes_slow_down_execution() {
        let cfg = SystemConfig::dual_core_two_channel();
        // A heavy hammer on one bank: SCA_16 refreshes 4096-row groups.
        let mk = |cfg: &SystemConfig| {
            vec![
                Box::new(hammer_trace(cfg, 1000, 40_000, 10).into_iter())
                    as Box<dyn Iterator<Item = MemAccess> + Send>,
                Box::new(hammer_trace(cfg, 1000, 40_000, 10).into_iter()),
            ]
        };
        let mut base = Simulator::new(cfg.clone(), SchemeSpec::None);
        let rb = base.run(mk(&cfg));
        let mut sim = Simulator::new(
            cfg.clone(),
            SchemeSpec::Sca {
                counters: 16,
                threshold: 8_192,
            },
        );
        let rs = sim.run(mk(&cfg));
        assert!(rs.scheme_stats.refresh_events > 0);
        assert!(rs.mitigation_busy_cycles > 0);
        assert!(
            rs.cycles > rb.cycles,
            "bank-blocking refreshes must cost time: {} vs {}",
            rs.cycles,
            rb.cycles
        );
        let eto = rs.eto(rb.cycles);
        assert!(eto > 0.0 && eto < 0.5, "ETO should be small: {eto}");
    }

    #[test]
    fn four_channel_mapping_uses_more_banks() {
        let cfg = SystemConfig::quad_core_four_channel();
        let traces: Vec<Box<dyn Iterator<Item = MemAccess> + Send>> = (0..4)
            .map(|c| {
                Box::new(spread_trace(&cfg, 2_000, 30, c).into_iter())
                    as Box<dyn Iterator<Item = MemAccess> + Send>
            })
            .collect();
        let mut sim = Simulator::new(cfg, SchemeSpec::None);
        let r = sim.run(traces);
        assert_eq!(r.activations_per_bank.len(), 64);
        let used = r.activations_per_bank.iter().filter(|&&a| a > 0).count();
        assert!(used > 16, "spread trace must hit many banks: {used}");
        assert_eq!(sim.config().mapping, MappingPolicy::FourChannel);
    }

    #[test]
    fn epoch_boundaries_reach_schemes() {
        // Shrink the epoch so a short run crosses several boundaries.
        let mut cfg = SystemConfig::dual_core_two_channel();
        cfg.epoch_ms = 1;
        let t0 = spread_trace(&cfg, 150_000, 60, 1);
        let t1 = spread_trace(&cfg, 150_000, 60, 2);
        let mut sim = Simulator::new(
            cfg,
            SchemeSpec::Prcat {
                counters: 64,
                levels: 11,
                threshold: 32_768,
            },
        );
        let r = sim.run(vec![Box::new(t0.into_iter()), Box::new(t1.into_iter())]);
        assert!(r.epochs >= 1, "run must span at least one epoch");
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_must_match_cores() {
        let cfg = SystemConfig::dual_core_two_channel();
        let mut sim = Simulator::new(cfg, SchemeSpec::None);
        let _ = sim.run(vec![Box::new(std::iter::empty())]);
    }

    #[test]
    #[should_panic(expected = "invalid system configuration")]
    fn construction_rejects_invalid_config() {
        let mut cfg = SystemConfig::dual_core_two_channel();
        cfg.wq_high_watermark = cfg.write_queue_capacity + 1;
        let _ = Simulator::new(cfg, SchemeSpec::None);
    }
}
