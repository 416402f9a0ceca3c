//! Figure 12: CMRPO across refresh thresholds T = 64K/32K/16K/8K on the
//! dual-core / 2-channel system, with the paper's per-threshold scheme
//! sizes (PRA p per Fig. 1's survivability requirement; CAT counters
//! double at T = 8K), plus the §VIII-C ETO spot-check at T = 8K.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cat_bench::{banner, decode_trace, mean, replay_cmrpo, timed_run, DecodedTrace};
use cat_core::SchemeSpec;
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
        .map(|w| decode_trace(w, &cfg, 2, 1212))
        .collect();
    banner("Figure 12: CMRPO for refresh thresholds 64K / 32K / 16K / 8K");
    // (T, PRA p, SCA M, CAT M)
    let rows = [
        (65_536u32, 0.001, 128usize, 32usize),
        (32_768, 0.002, 128, 64),
        (16_384, 0.003, 128, 64),
        (8_192, 0.005, 256, 128),
    ];
    println!(
        "{:>7} {:>12} {:>10} {:>12} {:>12}",
        "T", "PRA", "SCA", "PRCAT", "DRCAT"
    );
    for (t, p, sca_m, cat_m) in rows {
        let pra = mean_cmrpo(&cfg, SchemeSpec::pra(p), &traces);
        let sca = mean_cmrpo(
            &cfg,
            SchemeSpec::Sca {
                counters: sca_m,
                threshold: t,
            },
            &traces,
        );
        let prcat = mean_cmrpo(
            &cfg,
            SchemeSpec::Prcat {
                counters: cat_m,
                levels: 11,
                threshold: t,
            },
            &traces,
        );
        let drcat = mean_cmrpo(
            &cfg,
            SchemeSpec::Drcat {
                counters: cat_m,
                levels: 11,
                threshold: t,
            },
            &traces,
        );
        println!(
            "{:>7} {:>10.2}%* {:>9.2}% {:>11.2}% {:>11.2}%   (*p={p}, SCA_{sca_m}, CAT_{cat_m})",
            t,
            pra * 100.0,
            sca * 100.0,
            prcat * 100.0,
            drcat * 100.0
        );
    }
    println!(
        "\npaper reference: DRCAT < 5% for T = 64K‥16K (PRA ≈ 12%); at T = 8K\n\
         doubled counters keep DRCAT/PRCAT under 10%."
    );

    banner("§VIII-C ETO spot check at T = 8K (three-workload mean)");
    let t = 8_192u32;
    let subset = ["face", "com2", "libq"];
    let specs = [
        SchemeSpec::pra(0.005),
        SchemeSpec::Sca {
            counters: 256,
            threshold: t,
        },
        SchemeSpec::Prcat {
            counters: 128,
            levels: 11,
            threshold: t,
        },
        SchemeSpec::Drcat {
            counters: 128,
            levels: 11,
            threshold: t,
        },
    ];
    for spec in specs {
        let mut etos = Vec::new();
        for name in subset {
            let w = catalog::by_name(name).unwrap();
            let base = timed_run(&cfg, SchemeSpec::None, &w, 4, 55);
            let r = timed_run(&cfg, spec, &w, 4, 55);
            etos.push(r.eto(base.cycles));
        }
        println!("{:<10} ETO {:>7.3}%", spec.label(), mean(&etos) * 100.0);
    }
    println!("paper: PRA 0.58%, SCA 1.44%, PRCAT 0.8%, DRCAT 0.48%");
}
