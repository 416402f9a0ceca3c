//! Figure 8: CMRPO per workload (18 workloads + mean) for PRA, SCA_64,
//! SCA_128, PRCAT_64 and DRCAT_64 at T = 32K (PRA p = 0.002) and T = 16K
//! (p = 0.003), on the dual-core / 2-channel system of Table I.
//!
//! CMRPO is computed from functional runs over 4 epochs at nominal rates
//! (see the cat-bench crate docs for the methodology split). Each
//! workload's trace is decoded once and replayed across all ten scheme
//! configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cat_bench::{banner, decode_trace, mean, replay_cmrpo};
use cat_core::SchemeSpec;
use cat_sim::SystemConfig;
use cat_workloads::catalog;

fn schemes(t: u32) -> Vec<SchemeSpec> {
    let p = if t >= 32_768 { 0.002 } else { 0.003 };
    vec![
        SchemeSpec::pra(p),
        SchemeSpec::Sca {
            counters: 64,
            threshold: t,
        },
        SchemeSpec::Sca {
            counters: 128,
            threshold: t,
        },
        SchemeSpec::Prcat {
            counters: 64,
            levels: 11,
            threshold: t,
        },
        SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: t,
        },
    ]
}

fn main() {
    let cfg = SystemConfig::dual_core_two_channel();
    println!(
        "Table I system: {} cores, {} banks × {} rows, mapping {}",
        cfg.cores,
        cfg.total_banks(),
        cfg.rows_per_bank,
        cfg.mapping
    );

    let thresholds = [32_768u32, 16_384];
    let workloads = catalog::all();
    // results[t][scheme][workload]
    let mut results = vec![vec![Vec::new(); 5]; thresholds.len()];
    for w in &workloads {
        let trace = decode_trace(w, &cfg, 4, 8080);
        for (ti, &t) in thresholds.iter().enumerate() {
            for (si, &s) in schemes(t).iter().enumerate() {
                results[ti][si].push(replay_cmrpo(&cfg, s, &trace).total());
            }
        }
    }

    for (ti, &t) in thresholds.iter().enumerate() {
        banner(&format!("Figure 8 (T = {}K): CMRPO per workload", t / 1024));
        print!("{:<8}", "workload");
        for s in schemes(t) {
            print!(" {:>10}", s.label());
        }
        println!();
        for (wi, w) in workloads.iter().enumerate() {
            print!("{:<8}", w.name);
            for series in &results[ti] {
                print!(" {:>9.2}%", series[wi] * 100.0);
            }
            println!();
        }
        print!("{:<8}", "Mean");
        for series in &results[ti] {
            print!(" {:>9.2}%", mean(series) * 100.0);
        }
        println!();
    }
    println!(
        "\npaper reference (means): T=32K → PRA/SCA64 ≈ 11%, PRCAT64/DRCAT64 ≈ 4%;\n\
         T=16K → PRA ≈ 12%, SCA64 ≈ 22%, SCA128 ≈ 13%, DRCAT64 ≈ 4.5%."
    );
}
