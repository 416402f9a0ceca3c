//! Cross-crate integration tests: workload generation → address mapping →
//! timing simulation → mitigation schemes → energy model, plus the
//! paper-level qualitative claims the reproduction must uphold.

use catree::{
    cmrpo_from_stats, AccessStream, AttackMode, KernelAttack, MemAccess, SchemeSpec, Simulator,
    SystemConfig,
};

fn traces(
    spec: &catree::WorkloadSpec,
    cfg: &SystemConfig,
    budget: usize,
    seed: u64,
) -> Vec<Box<dyn Iterator<Item = MemAccess> + Send>> {
    (0..cfg.cores)
        .map(|core| {
            Box::new(AccessStream::new(spec, cfg, core, 8, seed).take(budget))
                as Box<dyn Iterator<Item = MemAccess> + Send>
        })
        .collect()
}

#[test]
fn timed_pipeline_runs_all_schemes() {
    let cfg = SystemConfig::dual_core_two_channel();
    let w = catree::workloads::by_name("ferret").unwrap();
    let budget = 60_000;
    let mut baseline = Simulator::new(cfg.clone(), SchemeSpec::None);
    let base = baseline.run(traces(&w, &cfg, budget, 3));
    assert_eq!(base.activations(), 2 * budget as u64);

    for spec in [
        SchemeSpec::pra(0.002),
        SchemeSpec::Sca {
            counters: 64,
            threshold: 4_096,
        },
        SchemeSpec::Prcat {
            counters: 64,
            levels: 11,
            threshold: 4_096,
        },
        SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: 4_096,
        },
        SchemeSpec::CounterCache {
            entries: 1024,
            ways: 8,
            threshold: 4_096,
        },
    ] {
        let mut sim = Simulator::new(cfg.clone(), spec);
        let r = sim.run(traces(&w, &cfg, budget, 3));
        assert_eq!(r.activations(), base.activations(), "{}", spec.label());
        // T = 4096 is a deliberate stress threshold: even SCA's whole-group
        // refreshes must stay well below a 2× slowdown. The lower bound
        // tolerates FR-FCFS scheduling noise: a rare refresh can perturb the
        // request interleaving enough to finish a handful of cycles early.
        let eto = r.eto(base.cycles);
        assert!(
            (-0.005..0.6).contains(&eto),
            "{}: ETO out of band: {eto}",
            spec.label()
        );
    }
}

#[test]
fn cmrpo_ordering_matches_figure8() {
    // The headline qualitative result at T = 16K on a skewed workload:
    // CAT-family < SCA_128 < SCA_64, and PRA pays its PRNG tax.
    let cfg = SystemConfig::dual_core_two_channel();
    let w = catree::workloads::by_name("mum").unwrap();
    let t = 16_384;
    let total = |spec: SchemeSpec| {
        let mut one = cfg.clone();
        one.cores = 1;
        let stream = AccessStream::new(&w, &one, 0, 2, 5);
        let report = catree::functional::run_functional(&cfg, spec, stream, w.accesses_per_epoch);
        let profile = spec.profile(cfg.rows_per_bank).unwrap();
        cmrpo_from_stats(
            &profile,
            &report.scheme_stats,
            cfg.total_banks(),
            cfg.rows_per_bank,
            0.128,
        )
        .total()
    };
    let sca64 = total(SchemeSpec::Sca {
        counters: 64,
        threshold: t,
    });
    let sca128 = total(SchemeSpec::Sca {
        counters: 128,
        threshold: t,
    });
    let drcat = total(SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: t,
    });
    let pra = total(SchemeSpec::pra(0.003));
    assert!(drcat < sca128, "DRCAT {drcat} < SCA128 {sca128}");
    assert!(sca128 < sca64, "SCA128 {sca128} < SCA64 {sca64}");
    assert!(drcat < pra, "DRCAT {drcat} < PRA {pra}");
}

#[test]
fn halving_threshold_hurts_sca_more_than_drcat() {
    // Fig. 8/10: T 32K → 16K roughly doubles SCA's CMRPO while CAT moves a
    // little.
    let cfg = SystemConfig::dual_core_two_channel();
    let w = catree::workloads::by_name("com3").unwrap();
    let refreshed = |spec: SchemeSpec| {
        let mut one = cfg.clone();
        one.cores = 1;
        let stream = AccessStream::new(&w, &one, 0, 1, 6);
        catree::functional::run_functional(&cfg, spec, stream, w.accesses_per_epoch)
            .scheme_stats
            .refreshed_rows as f64
    };
    let sca_32 = refreshed(SchemeSpec::Sca {
        counters: 64,
        threshold: 32_768,
    });
    let sca_16 = refreshed(SchemeSpec::Sca {
        counters: 64,
        threshold: 16_384,
    });
    let drcat_16 = refreshed(SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: 16_384,
    });
    assert!(
        sca_16 > sca_32 * 1.6,
        "SCA refresh rows ~double: {sca_32} → {sca_16}"
    );
    // What Fig. 8 actually shows: at the lower threshold, DRCAT's adaptive
    // groups refresh far fewer rows than SCA's fixed 1024-row groups.
    assert!(
        drcat_16 * 3.0 < sca_16,
        "DRCAT must refresh far fewer rows at T = 16K: {drcat_16} vs {sca_16}"
    );
}

#[test]
fn attack_blend_respects_intensity_and_is_confined() {
    let cfg = SystemConfig::dual_core_two_channel();
    let benign = catree::workloads::by_name("com1").unwrap();
    let kernel = KernelAttack::new(7, &cfg);
    // Heavier attacks produce more mitigation refreshes under DRCAT.
    let rows_for = |mode: AttackMode| {
        let spec = SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: 8_192,
        };
        let stream = kernel.stream(&benign, &cfg, mode, 0, 4, 11).take(2_000_000);
        catree::functional::run_functional(&cfg, spec, stream, benign.accesses_per_epoch)
            .scheme_stats
            .refreshed_rows
    };
    let heavy = rows_for(AttackMode::Heavy);
    let light = rows_for(AttackMode::Light);
    assert!(
        heavy > light,
        "heavier hammering must force more refreshes: {heavy} vs {light}"
    );
}

#[test]
fn per_bank_stats_sum_to_aggregate() {
    let cfg = SystemConfig::dual_core_two_channel();
    let w = catree::workloads::by_name("libq").unwrap();
    let mut sim = Simulator::new(
        cfg.clone(),
        SchemeSpec::Sca {
            counters: 32,
            threshold: 2_048,
        },
    );
    let r = sim.run(traces(&w, &cfg, 50_000, 9));
    let summed: u64 = r.per_bank_stats.iter().map(|s| s.refreshed_rows).sum();
    assert_eq!(summed, r.scheme_stats.refreshed_rows);
    let acts: u64 = r.per_bank_stats.iter().map(|s| s.activations).sum();
    assert_eq!(acts, r.activations());
    assert_eq!(r.activations_per_bank.iter().sum::<u64>(), r.activations());
}

#[test]
fn four_channel_spreads_refresh_pressure() {
    // Fig. 11's mechanism: the same traffic over 64 banks instead of 16
    // lowers per-bank counter pressure and thus total refreshed rows.
    let w = catree::workloads::by_name("com4").unwrap();
    let refreshed = |cfg: &SystemConfig| {
        let mut one = cfg.clone();
        one.cores = 1;
        let stream = AccessStream::new(&w, &one, 0, 1, 13);
        catree::functional::run_functional(
            cfg,
            SchemeSpec::Sca {
                counters: 128,
                threshold: 16_384,
            },
            stream,
            w.accesses_per_epoch,
        )
        .scheme_stats
        .refreshed_rows
    };
    let two = refreshed(&SystemConfig::quad_core_two_channel());
    let four = refreshed(&SystemConfig::quad_core_four_channel());
    assert!(
        four < two,
        "4-channel mapping must reduce refreshes: {four} vs {two}"
    );
}

#[test]
fn energy_model_agrees_with_scheme_profiles() {
    // The profile a built scheme reports must be accepted by the energy
    // model for every spec the benches use.
    let specs = [
        SchemeSpec::pra(0.005),
        SchemeSpec::Sca {
            counters: 256,
            threshold: 8_192,
        },
        SchemeSpec::Prcat {
            counters: 128,
            levels: 12,
            threshold: 8_192,
        },
        SchemeSpec::Drcat {
            counters: 32,
            levels: 6,
            threshold: 65_536,
        },
        SchemeSpec::CounterCache {
            entries: 2_048,
            ways: 16,
            threshold: 32_768,
        },
    ];
    let stats = catree::SchemeStats {
        activations: 1_000_000,
        refreshed_rows: 5_000,
        prng_bits: 9_000_000,
        ..Default::default()
    };
    for spec in specs {
        let profile = spec.profile(65_536).unwrap();
        let c = cmrpo_from_stats(&profile, &stats, 16, 65_536, 0.064);
        assert!(
            c.total().is_finite() && c.total() > 0.0,
            "{}: {c}",
            spec.label()
        );
    }
}
