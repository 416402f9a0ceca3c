//! Figure 2: the SCA energy breakdown per bank per 64 ms interval as the
//! number of counters sweeps 16‥65536, plus the "optimistic" 2 KB / 8 KB
//! counter-cache lines of \[26\].
//!
//! Counter energy (static + dynamic) comes from the Table II model
//! extended by log-log interpolation; victim-refresh energy is measured by
//! the functional simulator averaged over the workload subset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cat_bench::{banner, mean, quick_factor, system_stream};
use cat_core::SchemeSpec;
use cat_energy::sram::{counter_cache_energy_nj, fig2_sweep};
use cat_sim::functional::run_functional;
use cat_sim::SystemConfig;
use cat_workloads::catalog;

fn main() {
    let cfg = SystemConfig::dual_core_two_channel();
    let t = 32_768;
    let ms: Vec<usize> = (4..=16).map(|k| 1usize << k).collect(); // 16..65536
    let workloads = catalog::sweep_subset();
    let slice = 4 * quick_factor(); // quarter-epoch per workload

    banner("Figure 2: SCA energy overhead vs number of counters (per bank, per 64 ms)");
    println!(
        "measuring refresh rows over {} workloads …",
        workloads.len()
    );

    // Average refresh rows and accesses per bank per interval.
    let mut refresh_rows = vec![0f64; ms.len()];
    let mut accesses_per_bank = 0f64;
    for w in &workloads {
        let budget = (w.accesses_per_epoch / slice) as usize;
        accesses_per_bank +=
            budget as f64 / f64::from(cfg.total_banks()) * slice as f64 / workloads.len() as f64;
        for (i, &m) in ms.iter().enumerate() {
            let stream = system_stream(w, &cfg, 1, 11).take(budget);
            let r = run_functional(
                &cfg,
                SchemeSpec::Sca {
                    counters: m,
                    threshold: t,
                },
                stream,
                u64::MAX,
            );
            // Scale the slice back to a full interval, normalise per bank.
            refresh_rows[i] += r.scheme_stats.refreshed_rows as f64 * slice as f64
                / f64::from(cfg.total_banks())
                / workloads.len() as f64;
        }
    }

    let rows_u64: Vec<u64> = refresh_rows.iter().map(|&r| r as u64).collect();
    let sweep = fig2_sweep(&ms, &rows_u64, accesses_per_bank as u64, t);
    println!(
        "\n{:>8} {:>16} {:>16} {:>16}",
        "M", "counters (nJ)", "refresh (nJ)", "total (nJ)"
    );
    let mut best = (0usize, f64::INFINITY);
    for p in &sweep {
        println!(
            "{:>8} {:>16.3e} {:>16.3e} {:>16.3e}",
            p.counters,
            p.counter_nj,
            p.refresh_nj,
            p.total_nj()
        );
        if p.total_nj() < best.1 {
            best = (p.counters, p.total_nj());
        }
    }
    println!("\nminimum total energy at M = {} (paper: M = 128)", best.0);

    let acc = accesses_per_bank as u64;
    println!(
        "counter-cache lines (optimistic, no misses): 2KB = {:.3e} nJ, 8KB = {:.3e} nJ",
        counter_cache_energy_nj(1024, acc, t),
        counter_cache_energy_nj(4096, acc, t)
    );
    println!("(the paper places these lines at the SCA4096–SCA16384 totals)");

    let nearest = |target: f64| {
        sweep
            .iter()
            .min_by(|a, b| {
                (a.total_nj() - target)
                    .abs()
                    .partial_cmp(&(b.total_nj() - target).abs())
                    .unwrap()
            })
            .unwrap()
            .counters
    };
    println!(
        "our 2KB line lands nearest SCA_{}, 8KB nearest SCA_{}",
        nearest(counter_cache_energy_nj(1024, acc, t)),
        nearest(counter_cache_energy_nj(4096, acc, t))
    );
    let _ = mean(&refresh_rows);
}
