//! Fixture-driven rule tests plus the self-check that keeps the live
//! workspace lint-clean.
//!
//! Each rule gets one deliberately-bad fragment (exact rule-id/line
//! assertions — the diagnostics are part of the tool's contract) and one
//! good fragment that exercises the rule's escape hatches: test-region
//! masking, path scoping, and the `cat-lint: allow` directive. The
//! fragments live under `tests/fixtures/`, which [`cat_lint::lint_workspace`]
//! deliberately skips so the bad ones never fail the self-check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;

use cat_lint::{lint_source, lint_workspace, Violation, BAD_ALLOW};

/// The `(line, rule)` skeleton of a diagnostic list.
fn skeleton(violations: &[Violation]) -> Vec<(usize, &'static str)> {
    violations.iter().map(|v| (v.line, v.rule)).collect()
}

// --- hash-order -----------------------------------------------------------

#[test]
fn hash_order_bad_fragment_is_rejected() {
    let src = include_str!("fixtures/hash_order_bad.rs");
    let v = lint_source("crates/engine/src/fixture.rs", src);
    assert_eq!(
        skeleton(&v),
        vec![
            (3, "hash-order"),  // use std::collections::HashMap;
            (6, "hash-order"),  // -> HashMap<u32, u32>
            (7, "hash-order"),  // HashMap::new()
            (11, "hash-order"), // -> RandomState
            (12, "hash-order"), // RandomState::new()
        ],
        "diagnostics: {v:#?}"
    );
}

#[test]
fn hash_order_good_fragment_is_clean() {
    let src = include_str!("fixtures/hash_order_good.rs");
    assert_eq!(lint_source("crates/core/src/fixture.rs", src), []);
}

#[test]
fn hash_order_only_applies_to_determinism_crates() {
    let src = include_str!("fixtures/hash_order_bad.rs");
    assert_eq!(lint_source("crates/workloads/src/fixture.rs", src), []);
}

// --- wall-clock -----------------------------------------------------------

#[test]
fn wall_clock_bad_fragment_is_rejected() {
    let src = include_str!("fixtures/wall_clock_bad.rs");
    let v = lint_source("crates/sim/src/fixture.rs", src);
    assert_eq!(
        skeleton(&v),
        vec![
            (3, "wall-clock"),  // use std::time::Instant;
            (7, "wall-clock"),  // Instant::now()
            (14, "wall-clock"), // SystemTime::now()
        ],
        "diagnostics: {v:#?}"
    );
}

#[test]
fn wall_clock_good_fragment_is_clean() {
    let src = include_str!("fixtures/wall_clock_good.rs");
    assert_eq!(lint_source("crates/sim/src/fixture.rs", src), []);
}

#[test]
fn wall_clock_is_exempt_inside_bench() {
    let src = include_str!("fixtures/wall_clock_bad.rs");
    assert_eq!(lint_source("crates/bench/src/fixture.rs", src), []);
}

// --- panic-path -----------------------------------------------------------

#[test]
fn panic_path_bad_fragment_is_rejected() {
    let src = include_str!("fixtures/panic_path_bad.rs");
    let v = lint_source("crates/engine/src/wire.rs", src);
    assert_eq!(
        skeleton(&v),
        vec![
            (5, "panic-path"),  // .unwrap()
            (7, "panic-path"),  // panic!
            (15, "panic-path"), // .expect()
        ],
        "diagnostics: {v:#?}"
    );
}

#[test]
fn panic_path_good_fragment_is_clean() {
    let src = include_str!("fixtures/panic_path_good.rs");
    assert_eq!(lint_source("crates/engine/src/ingest.rs", src), []);
}

#[test]
fn panic_path_covers_every_module_a_served_record_passes() {
    // Decode (address.rs), bucketing and shard replay (shard.rs) and the
    // bank store (sparse.rs) see every served record, like the wire: the
    // bad fragment fails there too, and the live files are clean.
    let src = include_str!("fixtures/panic_path_bad.rs");
    let root = workspace_root();
    for rel in [
        "crates/engine/src/shard.rs",
        "crates/engine/src/address.rs",
        "crates/engine/src/sparse.rs",
    ] {
        assert_eq!(
            skeleton(&lint_source(rel, src)),
            vec![(5, "panic-path"), (7, "panic-path"), (15, "panic-path")],
            "{rel}"
        );
        let live = std::fs::read_to_string(root.join(rel)).expect("read live source");
        assert_eq!(lint_source(rel, &live), [], "live {rel} must be clean");
    }
}

#[test]
fn panic_path_only_applies_to_the_datapath() {
    let src = include_str!("fixtures/panic_path_bad.rs");
    assert_eq!(lint_source("crates/engine/src/schemes.rs", src), []);
}

// --- lock-order -----------------------------------------------------------

#[test]
fn lock_order_bad_fragment_is_rejected() {
    let src = include_str!("fixtures/lock_order_bad.rs");
    let v = lint_source("crates/engine/src/fixture.rs", src);
    assert_eq!(
        skeleton(&v),
        vec![
            (14, "lock-order"), // `queue` lacks a `// lock-order:` annotation
            (22, "lock-order"), // cycle closes at the second edge
            (30, "lock-order"), // `.lock()` on a foreign receiver
        ],
        "diagnostics: {v:#?}"
    );
    assert!(
        v[1].message.contains("flags → stats → flags"),
        "cycle diagnostic names the loop: {}",
        v[1].message
    );
}

#[test]
fn lock_order_good_fragment_is_clean() {
    let src = include_str!("fixtures/lock_order_good.rs");
    assert_eq!(lint_source("crates/engine/src/fixture.rs", src), []);
}

#[test]
fn lock_order_only_applies_to_engine_sources() {
    let src = include_str!("fixtures/lock_order_bad.rs");
    assert_eq!(lint_source("crates/sim/src/fixture.rs", src), []);
}

// --- atomic-order ---------------------------------------------------------

#[test]
fn atomic_order_bad_fragment_is_rejected() {
    let src = include_str!("fixtures/atomic_order_bad.rs");
    let v = lint_source("crates/engine/src/ingest.rs", src);
    assert_eq!(
        skeleton(&v),
        vec![
            (8, "atomic-order"),  // cursor.store(pos, Ordering::Relaxed)
            (13, "atomic-order"), // cursor.load(Ordering::Relaxed)
        ],
        "diagnostics: {v:#?}"
    );
}

#[test]
fn atomic_order_good_fragment_is_clean() {
    let src = include_str!("fixtures/atomic_order_good.rs");
    assert_eq!(lint_source("crates/engine/src/ingest.rs", src), []);
}

#[test]
fn atomic_order_only_applies_to_engine_sources() {
    let src = include_str!("fixtures/atomic_order_bad.rs");
    assert_eq!(lint_source("crates/sim/src/fixture.rs", src), []);
}

// --- dense-banks ----------------------------------------------------------

#[test]
fn dense_banks_bad_fragment_is_rejected() {
    let src = include_str!("fixtures/dense_banks_bad.rs");
    let v = lint_source("crates/engine/src/fixture.rs", src);
    assert_eq!(
        skeleton(&v),
        vec![
            (8, "dense-banks"),  // banks: Vec<Option<SchemeInstance>>
            (15, "dense-banks"), // self.banks[bank]
        ],
        "diagnostics: {v:#?}"
    );
}

#[test]
fn dense_banks_good_fragment_is_clean() {
    let src = include_str!("fixtures/dense_banks_good.rs");
    assert_eq!(lint_source("crates/engine/src/fixture.rs", src), []);
}

#[test]
fn dense_banks_is_exempt_in_the_sparse_module_and_other_crates() {
    let src = include_str!("fixtures/dense_banks_bad.rs");
    // The sparse accessor module owns the block layout itself.
    assert_eq!(lint_source("crates/engine/src/sparse.rs", src), []);
    // Dense per-bank vectors elsewhere (the bench's boxed-dyn baseline,
    // the sim crate) are out of scope.
    assert_eq!(lint_source("crates/sim/src/fixture.rs", src), []);
}

// --- crate-attrs ----------------------------------------------------------

#[test]
fn crate_attrs_bad_fragment_is_rejected() {
    let src = include_str!("fixtures/crate_attrs_bad.rs");
    let v = lint_source("crates/x/src/lib.rs", src);
    assert_eq!(
        skeleton(&v),
        vec![(1, "crate-attrs"), (1, "crate-attrs")],
        "diagnostics: {v:#?}"
    );
    assert!(v[0].message.contains("forbid(unsafe_code)"));
    assert!(v[1].message.contains("warn(missing_docs)"));
}

#[test]
fn crate_attrs_good_fragment_is_clean() {
    let src = include_str!("fixtures/crate_attrs_good.rs");
    assert_eq!(lint_source("crates/x/src/lib.rs", src), []);
    // Bench targets and examples are crate roots too.
    assert_eq!(lint_source("crates/bench/benches/fixture.rs", src), []);
    assert_eq!(lint_source("examples/fixture.rs", src), []);
}

#[test]
fn crate_attrs_only_applies_to_crate_roots() {
    let src = include_str!("fixtures/crate_attrs_bad.rs");
    assert_eq!(lint_source("crates/x/src/util.rs", src), []);
}

// --- allow directive ------------------------------------------------------

#[test]
fn allow_directive_with_unknown_rule_is_itself_a_violation() {
    let src = "// cat-lint: allow(made-up-rule) -- because\nfn f() {}\n";
    let v = lint_source("crates/sim/src/fixture.rs", src);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, BAD_ALLOW);
}

#[test]
fn allow_directive_cannot_suppress_bad_allow() {
    // A malformed directive "allowed" by another directive still reports.
    let src =
        "// cat-lint: allow(bad-allow) -- nice try\n// cat-lint: allow(wall-clock)\nfn f() {}\n";
    let v = lint_source("crates/sim/src/fixture.rs", src);
    assert!(v.iter().any(|x| x.rule == BAD_ALLOW && x.line == 2));
}

#[test]
fn allow_directive_does_not_leak_past_the_next_line() {
    let src = "// cat-lint: allow(wall-clock) -- only covers line 2\nfn f() {}\nuse std::time::Instant;\n";
    let v = lint_source("crates/sim/src/fixture.rs", src);
    assert_eq!(skeleton(&v), vec![(3, "wall-clock")]);
}

// --- diagnostics format ---------------------------------------------------

#[test]
fn diagnostics_carry_file_line_and_rule() {
    let src = include_str!("fixtures/panic_path_bad.rs");
    let v = lint_source("crates/engine/src/wire.rs", src);
    let rendered = v[0].to_string();
    assert!(
        rendered.starts_with("crates/engine/src/wire.rs:5: [panic-path]"),
        "rendered diagnostic: {rendered}"
    );
}

// --- seeded violations against the live tree ------------------------------

/// Appending a single bad function to the real `wire.rs` must flip the file
/// from clean to rejected — the acceptance check for the tier-1 gate.
#[test]
fn seeding_a_violation_into_live_wire_rs_is_caught() {
    let root = workspace_root();
    let rel = "crates/engine/src/wire.rs";
    let live = std::fs::read_to_string(root.join(rel)).expect("read live wire.rs");
    assert_eq!(lint_source(rel, &live), [], "live wire.rs must be clean");

    let seeded = format!("{live}\nfn seeded(v: Option<u32>) -> u32 {{ v.unwrap() }}\n");
    let v = lint_source(rel, &seeded);
    let last_line = seeded.lines().count();
    assert_eq!(skeleton(&v), vec![(last_line, "panic-path")]);
}

/// Same check for the other rules, seeded into the live crate roots.
#[test]
fn seeding_violations_into_live_roots_is_caught() {
    let root = workspace_root();
    for (rel, seed, rule) in [
        (
            "crates/engine/src/lib.rs",
            "fn seeded() { let _ = std::collections::HashMap::<u32, u32>::new(); }",
            "hash-order",
        ),
        (
            "crates/core/src/lib.rs",
            "fn seeded() { let _ = std::time::Instant::now(); }",
            "wall-clock",
        ),
        (
            "crates/engine/src/lib.rs",
            "fn seeded(m: &std::sync::Mutex<u32>) { let _ = m.lock(); }",
            "lock-order",
        ),
        (
            "crates/engine/src/lib.rs",
            "fn seeded() { let _ = std::sync::atomic::Ordering::Relaxed; }",
            "atomic-order",
        ),
        (
            "crates/engine/src/lib.rs",
            "fn seeded(banks: &mut [Option<u32>], b: usize) { banks[b] = None; }",
            "dense-banks",
        ),
    ] {
        let live = std::fs::read_to_string(root.join(rel)).expect("read live source");
        assert_eq!(
            lint_source(rel, &live),
            [],
            "{rel} must be clean before seeding"
        );
        let seeded = format!("{live}\n{seed}\n");
        let v = lint_source(rel, &seeded);
        assert!(
            v.iter()
                .any(|x| x.rule == rule && x.line == seeded.lines().count()),
            "{rel} + `{seed}` should trip {rule}, got {v:#?}"
        );
    }
}

// --- the live workspace ---------------------------------------------------

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The whole tree must stay lint-clean: this is the same check
/// `cargo run -p cat-lint -- --workspace` performs in `tier1.sh` and CI.
#[test]
fn cat_lint_self_clean() {
    let violations = lint_workspace(workspace_root()).expect("walk workspace");
    assert!(
        violations.is_empty(),
        "workspace has lint violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
