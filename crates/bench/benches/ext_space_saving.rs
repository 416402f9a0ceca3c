//! Extension study (beyond the paper, DESIGN.md §6): CAT vs a
//! Space-Saving frequent-item tracker at equal counter budgets.
//!
//! Sketch-based trackers (the design family of later work such as
//! Graphene) follow individual hot rows exactly, but their guarantee
//! degrades to refresh-per-access once the per-epoch traffic exceeds
//! `k · T`. CAT instead coarsens gracefully: groups get bigger, refreshes
//! get wider, but never per-access. This bench locates the crossover.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cat_bench::{banner, decode_trace, replay_cmrpo};
use cat_core::SchemeSpec;
use cat_sim::SystemConfig;
use cat_workloads::catalog;

fn main() {
    let cfg = SystemConfig::dual_core_two_channel();
    banner("Extension: DRCAT vs Space-Saving at equal counter budgets (T = 16K)");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "workload", "DRCAT_64", "SS_64", "DRCAT_256", "SS_256"
    );
    let t = 16_384;
    for w in catalog::sweep_subset() {
        let trace = decode_trace(&w, &cfg, 2, 4242);
        let cells: Vec<f64> = [
            SchemeSpec::Drcat {
                counters: 64,
                levels: 11,
                threshold: t,
            },
            SchemeSpec::SpaceSaving {
                counters: 64,
                threshold: t,
            },
            SchemeSpec::Drcat {
                counters: 256,
                levels: 11,
                threshold: t,
            },
            SchemeSpec::SpaceSaving {
                counters: 256,
                threshold: t,
            },
        ]
        .iter()
        .map(|&s| replay_cmrpo(&cfg, s, &trace).total())
        .collect();
        println!(
            "{:<10} {:>11.2}% {:>11.2}% {:>11.2}% {:>11.2}%",
            w.name,
            cells[0] * 100.0,
            cells[1] * 100.0,
            cells[2] * 100.0,
            cells[3] * 100.0
        );
    }
    println!(
        "\nreading: where per-bank traffic ≤ k·T the sketch is competitive (it\n\
         refreshes only true aggressors' two victims); beyond that its takeover\n\
         rule floods refreshes while CAT merely coarsens its groups."
    );
}
