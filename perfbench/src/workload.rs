//! The two workloads: what each one serves, the trace it streams, and the
//! local `MemorySystem` replay every session is verified against.

use catree::engine::wire::StatsSnapshot;
use catree::{
    cmrpo_from_stats, AccessStream, AddressMapping, MemAccess, MemorySystem, SchemeSpec,
    SystemConfig,
};

/// The scheme every workload serves: DRCAT with 64 counters, an 11-level
/// tree and the paper's 32K refresh threshold.
pub const SPEC: &str = "drcat:64:11:32768";
/// Records per `Records` frame. It is also the server's staging capacity
/// (`MemorySystem::DEFAULT_STREAM_CAPACITY`) and the router's flush size,
/// so one frame is one merged batch on every served path.
pub const FRAME: usize = 8192;
/// Producer connections per session (one load-generator thread each).
pub const PRODUCERS: usize = 2;
/// `MemorySystem` shards of each `catd`. With 2 shards on a 2-core host,
/// each merged batch waits on two pool workers, and a session's rate
/// depended on thread placement: the per-session spread doubled.
pub const SHARDS: usize = 1;
/// Benign catalog workload every trace is drawn from: skewed rows, all 16
/// banks hot.
const BENIGN: &str = "swapt";
/// Epochs of workload the trace generator is asked for; each segment is a
/// prefix of such a stream, so its content never depends on its length.
const STREAM_EPOCHS: u64 = 64;
/// Independently seeded streams a trace is stitched from. One stream's
/// cost per access depends on its seed (by about 12% on `swapt`); a trace of
/// several averages that out, so runs with different seeds compare.
const SEGMENTS: u64 = 8;

/// Which served topology a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One `catd`, no checkpoint directory.
    Serve,
    /// `catd_router` in front of two `catd --slice K/2` backends.
    Fleet,
}

/// One workload's configuration.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Topology.
    pub kind: Kind,
    /// Name on the command line.
    pub name: &'static str,
    /// Accesses per epoch (swapt's nominal 64 ms count).
    pub epoch: u64,
    /// Trace length in accesses: whole epochs, so a replay ends on a cut,
    /// where checkpoint images are taken.
    pub accesses: usize,
    /// Where a checkpointed session A ends: whole epochs plus a log tail.
    /// The traced run's checkpoint layer resumes from here.
    pub split: usize,
}

impl Workload {
    /// The named workload; `quick` shrinks the trace (and the epoch with
    /// it) to a few hundred thousand accesses for the self-test.
    pub fn by_name(name: &str, quick: bool) -> Option<Workload> {
        let scale = |n: u64| if quick { n / 100 } else { n };
        let (kind, name) = match name {
            "serve" => (Kind::Serve, "serve"),
            "fleet" => (Kind::Fleet, "fleet"),
            _ => return None,
        };
        // Both stream the same trace, so the fleet's checked outputs also
        // show that it matches a single host.
        Some(Workload {
            kind,
            name,
            epoch: scale(5_000_000),
            accesses: scale(10_000_000) as usize,
            split: scale(9_000_000) as usize,
        })
    }

    /// The served scheme.
    pub fn spec(&self) -> SchemeSpec {
        SPEC.parse().expect("SPEC is a valid scheme spec")
    }

    /// The paper's dual-core, two-channel system (16 banks).
    pub fn config(&self) -> SystemConfig {
        SystemConfig::dual_core_two_channel()
    }

    /// The `(global bank, row)` trace for `seed`: a single-core-equivalent
    /// stream carrying the whole system's accesses, decoded once. It is
    /// [`SEGMENTS`] equal parts, part `k` the start of the stream seeded
    /// `seed * SEGMENTS + k`, so different seeds share no stream.
    pub fn trace(&self, seed: u64) -> Vec<(u32, u32)> {
        let cfg = self.config();
        let mut one = cfg.clone();
        one.cores = 1;
        let mapping = AddressMapping::new(&cfg);
        let benign = catree::workloads::by_name(BENIGN).expect("catalog workload");
        let decode = |a: MemAccess| mapping.decode_bank_row(a.addr);
        let mut trace = Vec::with_capacity(self.accesses);
        for k in 0..SEGMENTS {
            let part_seed = seed.wrapping_mul(SEGMENTS).wrapping_add(k);
            let take = (self.accesses * (k as usize + 1)) / SEGMENTS as usize - trace.len();
            let before = trace.len();
            trace.extend(
                AccessStream::new(&benign, &one, 0, STREAM_EPOCHS, part_seed)
                    .take(take)
                    .map(decode),
            );
            assert_eq!(
                trace.len() - before,
                take,
                "workload stream exhausted early"
            );
        }
        trace
    }

    /// A fresh single-host system with this workload's scheme and epoch
    /// clock (the reference every topology must match bit for bit).
    pub fn reference_system(&self) -> MemorySystem {
        MemorySystem::new(&self.config(), self.spec()).with_epoch_length(self.epoch)
    }

    /// Replays `trace` locally and returns the snapshot a server must
    /// report after `[split, whole trace]`.
    pub fn expected(&self, trace: &[(u32, u32)]) -> [StatsSnapshot; 2] {
        let mut system = self.reference_system();
        for chunk in trace[..self.split].chunks(FRAME) {
            system.process(chunk);
        }
        let at_split = snapshot_of(&system);
        for chunk in trace[self.split..].chunks(FRAME) {
            system.process(chunk);
        }
        [at_split, snapshot_of(&system)]
    }

    /// The checked (not scored) model outputs of a snapshot.
    pub fn model(&self, snap: &StatsSnapshot) -> Model {
        let cfg = self.config();
        let profile = self
            .spec()
            .profile(cfg.rows_per_bank)
            .expect("DRCAT has hardware");
        let per_epoch = catree::workloads::by_name(BENIGN)
            .expect("catalog workload")
            .accesses_per_epoch;
        let exec_seconds = snap.accesses as f64 / per_epoch as f64 * cfg.epoch_ms as f64 / 1e3;
        Model {
            refresh_events: snap.stats.refresh_events,
            refreshed_rows: snap.stats.refreshed_rows,
            splits: snap.stats.splits,
            cmrpo: cmrpo_from_stats(
                &profile,
                &snap.stats,
                cfg.total_banks(),
                cfg.rows_per_bank,
                exec_seconds,
            )
            .total(),
        }
    }
}

/// The wire snapshot of a local system: what `catd` answers a stats
/// request with.
pub fn snapshot_of(system: &MemorySystem) -> StatsSnapshot {
    let fp = system.footprint();
    StatsSnapshot {
        accesses: system.accesses(),
        epochs: system.epochs(),
        stats: system.stats(),
        banks: fp.banks as u64,
        materialized_banks: fp.materialized_banks as u64,
        scheme_bytes: fp.scheme_bytes as u64,
    }
}

/// Model outputs the benchmark checks against the local replay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Model {
    /// Refresh events the scheme issued.
    pub refresh_events: u64,
    /// Victim rows refreshed.
    pub refreshed_rows: u64,
    /// Tree splits.
    pub splits: u64,
    /// CMRPO (fraction of regular refresh power), from
    /// `cat_energy::cmrpo_from_stats` at the workload's nominal rate.
    pub cmrpo: f64,
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "refresh_events={} refreshed_rows={} splits={} cmrpo={:.4}%",
            self.refresh_events,
            self.refreshed_rows,
            self.splits,
            self.cmrpo * 100.0
        )
    }
}
