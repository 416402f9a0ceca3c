//! Figure 11: effect of the mapping policy and core count on CMRPO —
//! dual-core/2-channel, quad-core/2-channel and quad-core/4-channel
//! systems at iso-area scheme sizes (SCA 128→256, CAT 64→128 for quad),
//! for T = 32K and T = 16K.
//!
//! Quad-core traffic is modeled by doubling each workload's access rate
//! (the paper attributes the quad-core increase to reduced cache locality);
//! banks have 128K rows per Table I's quad variant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cat_bench::{banner, decode_trace, mean, replay_cmrpo, DecodedTrace};
use cat_core::SchemeSpec;
use cat_sim::SystemConfig;
use cat_workloads::catalog;

fn scaled(w: &cat_workloads::WorkloadSpec, factor: f64) -> cat_workloads::WorkloadSpec {
    let mut w = w.clone();
    w.accesses_per_epoch = (w.accesses_per_epoch as f64 * factor) as u64;
    w
}

fn mean_cmrpo(cfg: &SystemConfig, spec: SchemeSpec, traces: &[DecodedTrace]) -> f64 {
    let vals: Vec<f64> = traces
        .iter()
        .map(|t| replay_cmrpo(cfg, spec, t).total())
        .collect();
    mean(&vals)
}

fn main() {
    let systems = [
        (
            "dual-core/2ch",
            SystemConfig::dual_core_two_channel(),
            1.0,
            128usize,
            64usize,
        ),
        (
            "quad-core/2ch",
            SystemConfig::quad_core_two_channel(),
            2.0,
            256,
            128,
        ),
        (
            "quad-core/4ch",
            SystemConfig::quad_core_four_channel(),
            2.0,
            256,
            128,
        ),
    ];
    // Decode each workload once per system (mapping and rate differ).
    let traces: Vec<Vec<DecodedTrace>> = systems
        .iter()
        .map(|(_, cfg, rate, _, _)| {
            catalog::sweep_subset()
                .iter()
                .map(|w| decode_trace(&scaled(w, *rate), cfg, 2, 1111))
                .collect()
        })
        .collect();

    for t in [32_768u32, 16_384] {
        banner(&format!(
            "Figure 11 (T = {}K): CMRPO vs cores / channels",
            t / 1024
        ));
        let p = if t >= 32_768 { 0.002 } else { 0.003 };
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>10}",
            "system", "PRA", "SCA", "PRCAT", "DRCAT"
        );
        for ((name, cfg, _, sca_m, cat_m), tr) in systems.iter().zip(&traces) {
            let pra = mean_cmrpo(cfg, SchemeSpec::pra(p), tr);
            let sca = mean_cmrpo(
                cfg,
                SchemeSpec::Sca {
                    counters: *sca_m,
                    threshold: t,
                },
                tr,
            );
            let prcat = mean_cmrpo(
                cfg,
                SchemeSpec::Prcat {
                    counters: *cat_m,
                    levels: 11,
                    threshold: t,
                },
                tr,
            );
            let drcat = mean_cmrpo(
                cfg,
                SchemeSpec::Drcat {
                    counters: *cat_m,
                    levels: 11,
                    threshold: t,
                },
                tr,
            );
            println!(
                "{:<16} {:>9.2}% {:>9.2}% {:>9.2}% {:>9.2}%  (SCA_{sca_m}, CAT_{cat_m})",
                name,
                pra * 100.0,
                sca * 100.0,
                prcat * 100.0,
                drcat * 100.0
            );
        }
    }
    println!(
        "\npaper reference (T = 16K): quad-core/2ch → SCA 21%, PRA 18%, DRCAT 7%;\n\
         the 4-channel policy lowers every scheme (64 banks share the traffic)."
    );
}
