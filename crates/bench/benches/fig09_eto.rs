//! Figure 9: execution time overhead (ETO) from victim-row refreshes, per
//! workload, same scheme matrix as Fig. 8. Each cell is a timing-simulator
//! run (half-epoch trace slice) against a no-mitigation baseline of the
//! same trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cat_bench::{banner, mean, timed_run};
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
    let slice = 3; // a third of an epoch per run
    let mut grand: Vec<(String, f64)> = Vec::new();
    for t in [32_768u32, 16_384] {
        banner(&format!("Figure 9 (T = {}K): ETO per workload", t / 1024));
        let schemes = schemes(t);
        print!("{:<8}", "workload");
        for s in &schemes {
            print!(" {:>10}", s.label());
        }
        println!();
        let mut totals = vec![Vec::new(); schemes.len()];
        for w in catalog::all() {
            let baseline = timed_run(&cfg, SchemeSpec::None, &w, slice, 99);
            print!("{:<8}", w.name);
            for (i, &s) in schemes.iter().enumerate() {
                let r = timed_run(&cfg, s, &w, slice, 99);
                let eto = r.eto(baseline.cycles);
                totals[i].push(eto);
                print!(" {:>9.3}%", eto * 100.0);
            }
            println!();
        }
        print!("{:<8}", "Mean");
        for (i, series) in totals.iter().enumerate() {
            let m = mean(series);
            grand.push((format!("{}@T{}K", schemes[i].label(), t / 1024), m));
            print!(" {:>9.3}%", m * 100.0);
        }
        println!();
    }
    banner("paper reference (means)");
    println!(
        "T=32K: PRA 0.26%, SCA64 1.32%, SCA128 0.43%, PRCAT64 0.23%, DRCAT64 0.16%\n\
         T=16K: PRA 0.39%, SCA64 3.42%, SCA128 1.38%, PRCAT64 0.49%, DRCAT64 0.35%"
    );
    println!("\nmeasured means:");
    for (label, m) in grand {
        println!("  {label:<16} {:>7.3}%", m * 100.0);
    }
}
