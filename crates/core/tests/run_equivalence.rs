//! Run-level replay must be indistinguishable from per-activation dispatch:
//! `SchemeInstance::run` over a slice yields the same state, statistics and
//! sink sequence as calling `on_activation` row by row (DESIGN.md §3.7).
//!
//! Seeded like `differential.rs`: case `i` draws its accesses from
//! `splitmix64(BASE_SEED ^ i)`, and every failure names its case and seed.

use cat_core::{
    CatConfig, Drcat, Prcat, Refreshes, RowId, SchemeInstance, SchemeSpec, SchemeStats,
    ThresholdPolicy,
};
use cat_prng::rngs::StdRng;
use cat_prng::{splitmix64, Rng, SeedableRng};

/// All cases derive their seed as `splitmix64(BASE_SEED ^ index)`.
const BASE_SEED: u64 = 0x2E9_1A7E_EAC7_5EED;

/// Activations replayed per case.
const ACCESSES: usize = 4000;

/// Activations between epoch boundaries (PRCAT resets, DRCAT zeroes).
const EPOCH: usize = 700;

/// One scheme to replay, rebuilt fresh for each side of the comparison.
struct Case {
    name: String,
    rows: u32,
    build: Box<dyn Fn() -> SchemeInstance>,
}

/// Every buildable `SchemeSpec` variant on a small bank with a threshold
/// low enough to fire, plus PRCAT/DRCAT over every threshold policy,
/// λ ∈ {1, 2, 3} and two small trees, so cascading splits, refreshes,
/// DRCAT reconfigurations and PRCAT resets all occur.
fn cases() -> Vec<Case> {
    assert!(
        SchemeSpec::None.build_instance(1024, 0).is_none(),
        "`None` builds no scheme, so it has no run to compare"
    );
    let specs = [
        SchemeSpec::pra(0.01),
        SchemeSpec::Sca {
            counters: 16,
            threshold: 64,
        },
        SchemeSpec::Prcat {
            counters: 16,
            levels: 8,
            threshold: 64,
        },
        SchemeSpec::Drcat {
            counters: 16,
            levels: 8,
            threshold: 64,
        },
        SchemeSpec::CounterCache {
            entries: 16,
            ways: 4,
            threshold: 64,
        },
        SchemeSpec::SpaceSaving {
            counters: 16,
            threshold: 64,
        },
    ];
    let mut out: Vec<Case> = specs
        .into_iter()
        .map(|spec| Case {
            name: format!("{spec:?}"),
            rows: 1024,
            build: Box::new(move || spec.build_instance(1024, 3).expect("a scheme")),
        })
        .collect();
    let policies = [
        ThresholdPolicy::PaperCurve,
        ThresholdPolicy::Doubling,
        ThresholdPolicy::Uniform,
    ];
    for policy in policies {
        for lambda in 1u32..=3 {
            for (rows, counters, extra_levels, t) in
                [(64u32, 8usize, 3u32, 32u32), (256, 16, 4, 48)]
            {
                let cfg = CatConfig::new(rows, counters, lambda + extra_levels, t)
                    .unwrap()
                    .with_policy(policy)
                    .with_lambda(lambda)
                    .unwrap();
                let name = format!("{policy:?} λ={lambda} N={rows} M={counters} T={t}");
                let prcat = cfg.clone();
                out.push(Case {
                    name: format!("PRCAT {name}"),
                    rows,
                    build: Box::new(move || SchemeInstance::Prcat(Prcat::new(prcat.clone()))),
                });
                out.push(Case {
                    name: format!("DRCAT {name}"),
                    rows,
                    build: Box::new(move || SchemeInstance::Drcat(Drcat::new(cfg.clone()))),
                });
            }
        }
    }
    out
}

/// A hammered spot that moves every epoch, over background noise.
fn accesses(rows: u32, rng: &mut StdRng) -> Vec<u32> {
    let mut hot = 0;
    (0..ACCESSES)
        .map(|i| {
            if i % EPOCH == 0 {
                hot = rng.gen_range(0..rows);
            }
            if rng.gen_bool(0.7) {
                (hot + rng.gen_range(0..3u32)) % rows
            } else {
                rng.gen_range(0..rows)
            }
        })
        .collect()
}

fn state_words(scheme: &SchemeInstance) -> Vec<u64> {
    let mut words = Vec::new();
    scheme.save_state(&mut words).expect("state capture");
    words
}

#[test]
fn run_equals_per_activation_dispatch() {
    let mut totals = SchemeStats::default();
    let mut prcat_refreshes_after_reset = 0;
    for (case, c) in cases().into_iter().enumerate() {
        let seed = splitmix64(BASE_SEED ^ case as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = accesses(c.rows, &mut rng);
        let mut batched = (c.build)();
        let mut single = (c.build)();
        let mut at = 0;
        let mut next_epoch = EPOCH;
        let mut resets = 0;
        while at < trace.len() {
            let len = rng.gen_range(0..=96usize).min(trace.len() - at);
            let slice = &trace[at..at + len];
            let mut got = Vec::with_capacity(len);
            batched.run(slice, |r| got.push(r));
            let want: Vec<Refreshes> = slice
                .iter()
                .map(|&row| single.on_activation(RowId(row)))
                .collect();
            let ctx = format!("{} (case {case}, seed {seed:#x}, slice at {at})", c.name);
            assert_eq!(got, want, "sink sequence: {ctx}");
            if resets > 0 && c.name.starts_with("PRCAT") {
                prcat_refreshes_after_reset += got.iter().filter(|r| !r.is_empty()).count();
            }
            assert_eq!(batched.stats(), single.stats(), "stats: {ctx}");
            assert_eq!(state_words(&batched), state_words(&single), "state: {ctx}");
            at += len;
            if at >= next_epoch {
                next_epoch += EPOCH;
                batched.on_epoch_end();
                single.on_epoch_end();
                resets += 1;
            }
        }
        let s = batched.stats();
        assert_eq!(s.activations, ACCESSES as u64, "{}", c.name);
        totals.splits += s.splits;
        totals.refresh_events += s.refresh_events;
        totals.reconfigurations += s.reconfigurations;
    }
    // The sweep must exercise every event the replay hands to `record`.
    assert!(totals.splits > 0, "no splits: {totals:?}");
    assert!(totals.refresh_events > 0, "no refreshes: {totals:?}");
    assert!(
        totals.reconfigurations > 0,
        "no DRCAT reconfigurations: {totals:?}"
    );
    assert!(
        prcat_refreshes_after_reset > 0,
        "no PRCAT refresh after an epoch reset"
    );
}

/// An out-of-range row in the middle of a run stops the quiet prefix and
/// still panics with `record`'s message.
#[test]
#[should_panic(expected = "row 300 out of range (bank has 256 rows)")]
fn out_of_range_row_in_a_run_panics() {
    let cfg = CatConfig::new(256, 16, 7, 64).unwrap();
    let mut scheme = SchemeInstance::Drcat(Drcat::new(cfg));
    scheme.run(&[1, 2, 3, 300, 4], |_| {});
}
