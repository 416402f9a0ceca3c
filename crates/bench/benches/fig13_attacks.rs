//! Figure 13: ETO of the benign workload under kernel attacks — three
//! attack intensities (Heavy/Medium/Light per §VIII-D) × three refresh
//! thresholds, for SCA, PRCAT and DRCAT at the paper's per-threshold sizes.
//!
//! Three of the twelve kernels are averaged per cell (runtime bound on a
//! single-core host; EXPERIMENTS.md documents the substitution). The
//! benign carrier is the memory-intensive `com1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cat_bench::{banner, mean, quick_factor};
use cat_core::SchemeSpec;
use cat_sim::{MemAccess, Simulator, SystemConfig};
use cat_workloads::{catalog, AttackMode, KernelAttack};

fn attack_traces(
    kernel: &KernelAttack,
    benign: &cat_workloads::WorkloadSpec,
    cfg: &SystemConfig,
    mode: AttackMode,
    seed: u64,
) -> Vec<Box<dyn Iterator<Item = MemAccess> + Send>> {
    let budget = (benign.accesses_per_epoch / cfg.cores as u64 / 3 / quick_factor()) as usize;
    (0..cfg.cores)
        .map(|core| {
            Box::new(
                kernel
                    .stream(benign, cfg, mode, core, 64, seed)
                    .take(budget),
            ) as Box<dyn Iterator<Item = MemAccess> + Send>
        })
        .collect()
}

fn main() {
    let cfg = SystemConfig::dual_core_two_channel();
    let benign = catalog::by_name("com1").unwrap();
    let kernels: Vec<KernelAttack> = (0..3).map(|id| KernelAttack::new(id, &cfg)).collect();

    banner("Figure 13: ETO under kernel attacks (benign carrier: com1)");
    println!(
        "{:>7} {:>8} {:>12} {:>12} {:>12}",
        "T", "mode", "SCA", "PRCAT", "DRCAT"
    );
    for (t, sca_m, cat_m) in [
        (32_768u32, 128usize, 64usize),
        (16_384, 128, 64),
        (8_192, 256, 128),
    ] {
        for mode in [AttackMode::Heavy, AttackMode::Medium, AttackMode::Light] {
            let specs = [
                SchemeSpec::Sca {
                    counters: sca_m,
                    threshold: t,
                },
                SchemeSpec::Prcat {
                    counters: cat_m,
                    levels: 11,
                    threshold: t,
                },
                SchemeSpec::Drcat {
                    counters: cat_m,
                    levels: 11,
                    threshold: t,
                },
            ];
            // One baseline per kernel, shared by every scheme.
            let baselines: Vec<u64> = kernels
                .iter()
                .map(|k| {
                    let mut base = Simulator::new(cfg.clone(), SchemeSpec::None);
                    base.run(attack_traces(k, &benign, &cfg, mode, 77)).cycles
                })
                .collect();
            let mut cells = Vec::new();
            for spec in specs {
                let mut etos = Vec::new();
                for (k, &base_cycles) in kernels.iter().zip(&baselines) {
                    let mut sim = Simulator::new(cfg.clone(), spec);
                    let r = sim.run(attack_traces(k, &benign, &cfg, mode, 77));
                    etos.push(r.eto(base_cycles));
                }
                cells.push(mean(&etos));
            }
            println!(
                "{:>7} {:>8} {:>11.3}% {:>11.3}% {:>11.3}%",
                t,
                mode.to_string(),
                cells[0] * 100.0,
                cells[1] * 100.0,
                cells[2] * 100.0
            );
        }
    }
    println!(
        "\npaper reference: PRCAT < 0.9%, DRCAT < 0.6% everywhere; SCA grows to\n\
         ~4.5% under heavy attack at T = 16K, and T = 8K sits below T = 16K\n\
         because the counter budget doubles."
    );
}
