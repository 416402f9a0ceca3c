//! Figure 10: CMRPO sensitivity of DRCAT to the number of counters
//! (32‥512) and the maximum tree depth (log2 M + 1 ‥ 14), against SCA at
//! each size, for T = 32K and T = 16K — plus a threshold-policy ablation
//! (PaperCurve vs Doubling vs Uniform) beyond the paper.
//!
//! Runs the workload sweep subset (6 of 18 workloads, one per skew regime;
//! see EXPERIMENTS.md) over 2 epochs in functional mode, with each
//! workload's trace decoded once and replayed across all configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cat_bench::{banner, decode_trace, mean, replay_cmrpo, DecodedTrace};
use cat_core::{SchemeSpec, ThresholdPolicy};
use cat_sim::SystemConfig;
use cat_workloads::catalog;

fn mean_cmrpo(cfg: &SystemConfig, spec: SchemeSpec, traces: &[DecodedTrace]) -> f64 {
    let vals: Vec<f64> = traces
        .iter()
        .map(|t| replay_cmrpo(cfg, spec, t).total())
        .collect();
    mean(&vals)
}

fn main() {
    let cfg = SystemConfig::dual_core_two_channel();
    let traces: Vec<DecodedTrace> = catalog::sweep_subset()
        .iter()
        .map(|w| decode_trace(w, &cfg, 2, 1010))
        .collect();

    for t in [32_768u32, 16_384] {
        banner(&format!(
            "Figure 10 (T = {}K): mean CMRPO vs counters M and max depth L",
            t / 1024
        ));
        println!("{:>5} {:>10}  DRCAT_L…", "M", "SCA");
        for m in [32usize, 64, 128, 256, 512] {
            let sca = mean_cmrpo(
                &cfg,
                SchemeSpec::Sca {
                    counters: m,
                    threshold: t,
                },
                &traces,
            );
            print!("{:>5} {:>9.2}% ", m, sca * 100.0);
            let lmin = (m as u32).trailing_zeros() + 1;
            for l in lmin..=14 {
                let d = mean_cmrpo(
                    &cfg,
                    SchemeSpec::Drcat {
                        counters: m,
                        levels: l,
                        threshold: t,
                    },
                    &traces,
                );
                print!(" L{l}:{:>5.2}%", d * 100.0);
            }
            println!();
        }
    }

    banner("Ablation: split-threshold policy (DRCAT_64, L = 11, T = 32K, bank 0)");
    use cat_core::{CatConfig, Drcat, MitigationScheme, RowId};
    for policy in [
        ThresholdPolicy::PaperCurve,
        ThresholdPolicy::Doubling,
        ThresholdPolicy::Uniform,
    ] {
        let mut rows_refreshed = 0u64;
        let mut activations = 0u64;
        for trace in &traces {
            let cfg_cat = CatConfig::new(cfg.rows_per_bank, 64, 11, 32_768)
                .unwrap()
                .with_policy(policy);
            let mut scheme = Drcat::new(cfg_cat);
            for &(bank, row) in &trace.entries {
                if bank == 0 {
                    scheme.on_activation(RowId(row));
                    activations += 1;
                }
            }
            rows_refreshed += scheme.stats().refreshed_rows;
        }
        println!(
            "{:<12} {:>10} victim rows over {:>9} bank-0 activations",
            policy.to_string(),
            rows_refreshed,
            activations
        );
    }

    println!(
        "\npaper reference: minima at DRCAT_64 (T=32K and 16K) with L = 11;\n\
         for M ≥ 256 the static power dominates and depth stops mattering\n\
         (and DRCAT can exceed SCA); SCA's optimum sits at M = 128 and its\n\
         CMRPO grows steeply at T = 16K."
    );
}
