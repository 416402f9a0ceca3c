//! The reproduction's most important property, end to end: under the full
//! system simulation, no deterministic scheme ever lets a row accumulate
//! more than `T` activations while a neighbouring victim goes unrefreshed.
//!
//! These tests replay full workload + attack traffic through per-bank
//! schemes with a [`catree::oracle::SafetyOracle`] shadowing every bank.

use catree::oracle::SafetyOracle;
use catree::{
    AccessStream, AddressMapping, AttackMode, KernelAttack, RowId, SchemeInstance, SchemeSpec,
    SystemConfig,
};

/// Replays `accesses` through per-bank scheme instances with shadow
/// oracles; panics on any exposure violation.
fn verify_system(
    cfg: &SystemConfig,
    spec: SchemeSpec,
    threshold: u32,
    accesses: impl Iterator<Item = catree::MemAccess>,
    epoch_len: u64,
) {
    let mapping = AddressMapping::new(cfg);
    let mut schemes: Vec<SchemeInstance> = (0..cfg.total_banks())
        .map(|b| {
            spec.build_instance(cfg.rows_per_bank, b)
                .expect("real scheme")
        })
        .collect();
    let mut oracles: Vec<SafetyOracle> = (0..cfg.total_banks())
        .map(|_| SafetyOracle::new(cfg.rows_per_bank, threshold))
        .collect();
    let mut n = 0u64;
    for a in accesses {
        let loc = mapping.decode(a.addr);
        let b = loc.global_bank(cfg) as usize;
        let refreshes = schemes[b].on_activation(RowId(loc.row));
        oracles[b].on_activation(RowId(loc.row), &refreshes);
        assert_eq!(
            oracles[b].violations(),
            0,
            "{} violated exposure {threshold} in bank {b} at access {n}",
            schemes[b].name()
        );
        n += 1;
        if n.is_multiple_of(epoch_len) {
            for (s, o) in schemes.iter_mut().zip(oracles.iter_mut()) {
                s.on_epoch_end();
                o.on_epoch_end();
            }
        }
    }
    for o in &oracles {
        assert!(o.worst_exposure() <= u64::from(threshold));
    }
}

fn stream(
    name: &str,
    cfg: &SystemConfig,
    n: usize,
    seed: u64,
) -> impl Iterator<Item = catree::MemAccess> {
    let w = catree::workloads::by_name(name).unwrap();
    let mut one = cfg.clone();
    one.cores = 1;
    AccessStream::new(&w, &one, 0, 8, seed).take(n)
}

#[test]
fn drcat_guarantee_under_benign_traffic() {
    let cfg = SystemConfig::dual_core_two_channel();
    let t = 2_048; // small threshold stresses the guarantee harder
    verify_system(
        &cfg,
        SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: t,
        },
        t,
        stream("black", &cfg, 3_000_000, 21),
        1_000_000,
    );
}

#[test]
fn prcat_guarantee_across_epoch_resets() {
    let cfg = SystemConfig::dual_core_two_channel();
    let t = 2_048;
    verify_system(
        &cfg,
        SchemeSpec::Prcat {
            counters: 64,
            levels: 11,
            threshold: t,
        },
        t,
        stream("com2", &cfg, 3_000_000, 22),
        500_000, // several epochs
    );
}

#[test]
fn sca_guarantee_under_attack() {
    let cfg = SystemConfig::dual_core_two_channel();
    let t = 2_048;
    let benign = catree::workloads::by_name("com1").unwrap();
    let kernel = KernelAttack::new(2, &cfg);
    let accesses = kernel
        .stream(&benign, &cfg, AttackMode::Heavy, 0, 8, 23)
        .take(2_000_000);
    verify_system(
        &cfg,
        SchemeSpec::Sca {
            counters: 128,
            threshold: t,
        },
        t,
        accesses,
        1_000_000,
    );
}

#[test]
fn drcat_guarantee_under_attack_with_reconfiguration() {
    let cfg = SystemConfig::dual_core_two_channel();
    let t = 1_024;
    let benign = catree::workloads::by_name("face").unwrap();
    let kernel = KernelAttack::new(9, &cfg);
    let accesses = kernel
        .stream(&benign, &cfg, AttackMode::Medium, 0, 8, 24)
        .take(2_000_000);
    verify_system(
        &cfg,
        SchemeSpec::Drcat {
            counters: 32,
            levels: 10,
            threshold: t,
        },
        t,
        accesses,
        700_000,
    );
}

#[test]
fn counter_cache_guarantee_exact_per_row() {
    let cfg = SystemConfig::dual_core_two_channel();
    let t = 1_024;
    verify_system(
        &cfg,
        SchemeSpec::CounterCache {
            entries: 512,
            ways: 8,
            threshold: t,
        },
        t,
        stream("mum", &cfg, 1_500_000, 25),
        800_000,
    );
}
