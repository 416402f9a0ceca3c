//! `catd` — the CAT mitigation engine as a network service: a TCP server
//! that accepts N producer connections speaking the `cat-engine` wire
//! format, streams their activation records through per-producer
//! bounded lanes and the deterministic `(seq, producer)` merge into one
//! `MemorySystem`, applies backpressure when a connection's lane fills
//! (lane-full blocks the producer, never the merge), and
//! answers stats-snapshot requests once ingestion completes
//! (`DESIGN.md §8`).
//!
//! Run with:
//! `cargo run --release --example catd -- [listen-addr] [spec] [producers] [epoch] [shards]`
//!
//! Defaults: `127.0.0.1:0` (ephemeral port — the bound address is printed,
//! so scripts can scrape it), `drcat:64:11:32768`, 1 producer, 50 000
//! accesses per epoch (`0` disables epoch accounting), 1 shard. The
//! geometry is the paper's dual-core two-channel system. One session is
//! served, the report is printed, and the process exits — `scripts/
//! tier1.sh` runs exactly this against the `catd_loadgen` example over
//! loopback.
//!
//! Checkpointing flags (`DESIGN.md §11`, mixable with the positionals):
//!
//! - `--checkpoint-dir <dir>` — log every merged batch to `<dir>` before
//!   processing and publish a checkpoint image at epoch cuts; a killed
//!   session becomes resumable.
//! - `--checkpoint-epochs <n>` — publish a periodic image every `n`
//!   epochs instead of every one (clients can still request one with the
//!   `Checkpoint` frame).
//! - `--resume` — before serving, recover state from `--checkpoint-dir`
//!   (image + trace-log tail). The session configuration must match the
//!   one checkpointed; prints `catd: resumed N accesses` for scripts.
//!   Images carry a format version: a directory written with an older
//!   one — such as a version 6 image, which stored CAT trees as pointer
//!   graphs rather than leaf lists — is refused with the version error
//!   and cannot be resumed, so remove it and start a fresh session.
//!
//! Fleet flag (`DESIGN.md §12`):
//!
//! - `--slice K/N` — serve only slice `K` of the geometry split into `N`
//!   uniform slices (`N` a power of two). The slice is advertised in the
//!   wire handshake and out-of-slice records are refused. A sliced
//!   backend runs **clockless**: the epoch positional must be `0`, and
//!   epoch boundaries arrive as `EpochCut` frames from the router that
//!   owns the fleet clock (`catd_router`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::net::TcpListener;
use std::path::PathBuf;

use catree::engine::checkpoint::{resume_from_dir, CheckpointConfig};
use catree::engine::ingest::{serve, ServeOptions};
use catree::{MemorySystem, Partition, SchemeSpec, SystemConfig};

fn parse<T: std::str::FromStr>(what: &str, s: &str) -> T
where
    T::Err: std::fmt::Debug,
{
    s.parse()
        .unwrap_or_else(|e| panic!("{what} ({s:?}): {e:?}"))
}

fn main() {
    // Split `--flag`s out of the argument list; what remains are the
    // positionals, in their documented order.
    let mut positionals: Vec<String> = Vec::new();
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut checkpoint_epochs: u64 = 1;
    let mut resume = false;
    let mut slice: Option<(u32, u32)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--checkpoint-dir" => {
                let dir = args.next().expect("--checkpoint-dir needs a directory");
                checkpoint_dir = Some(PathBuf::from(dir));
            }
            "--checkpoint-epochs" => {
                let n = args.next().expect("--checkpoint-epochs needs a count");
                checkpoint_epochs = parse("--checkpoint-epochs", &n);
                assert!(checkpoint_epochs >= 1, "--checkpoint-epochs must be >= 1");
            }
            "--resume" => resume = true,
            "--slice" => {
                let kn = args.next().expect("--slice needs K/N");
                let (k, n) = kn.split_once('/').expect("--slice takes K/N, e.g. 0/2");
                slice = Some((parse("--slice K", k), parse("--slice N", n)));
            }
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            _ => positionals.push(arg),
        }
    }
    let positional = |n: usize| positionals.get(n).map(String::as_str);
    let listen: String = positional(0).unwrap_or("127.0.0.1:0").to_string();
    let spec: SchemeSpec = parse("spec", positional(1).unwrap_or("drcat:64:11:32768"));
    let producers: usize = parse("producers", positional(2).unwrap_or("1"));
    let epoch: u64 = parse("epoch", positional(3).unwrap_or("50000"));
    let shards: usize = parse("shards", positional(4).unwrap_or("1"));
    if resume && checkpoint_dir.is_none() {
        panic!("--resume needs --checkpoint-dir");
    }

    let cfg = SystemConfig::dual_core_two_channel();
    let mut system = match slice {
        Some((k, n)) => {
            // A fleet member never runs its own epoch clock: the router
            // owns the clock and streams `EpochCut` frames instead.
            assert!(
                epoch == 0,
                "--slice backends are clockless: pass epoch 0 (the router fires the cuts)"
            );
            let partition = Partition::uniform(&cfg, n).expect("--slice N must split the banks");
            let owned = *partition
                .slices()
                .get(k as usize)
                .unwrap_or_else(|| panic!("--slice {k}/{n}: K must be < N"));
            MemorySystem::for_slice(&owned, spec).with_shards(shards)
        }
        None => MemorySystem::new(&cfg, spec).with_shards(shards),
    };
    if epoch > 0 {
        system = system.with_epoch_length(epoch);
    }
    if resume {
        let dir = checkpoint_dir.as_ref().expect("checked above");
        let state = resume_from_dir(&mut system, dir).expect("recover from checkpoint directory");
        // The scrape line for resume scripts: how far the recovered state
        // reaches into the access stream.
        println!(
            "catd: resumed {} accesses ({} epochs; image: {}, {} records replayed)",
            state.accesses,
            state.epochs,
            if state.from_checkpoint { "yes" } else { "no" },
            state.replayed
        );
    }

    let listener = TcpListener::bind(&listen).expect("bind listen address");
    // The scrape line for scripts: always the *actual* address (for
    // `…:0`, the kernel-assigned ephemeral port).
    println!(
        "catd: listening on {}",
        listener.local_addr().expect("bound address")
    );
    println!(
        "catd: serving {spec} over {}, {} producer(s), {} shard(s), epoch {}",
        system.slice(),
        producers,
        shards,
        if epoch > 0 {
            epoch.to_string()
        } else if slice.is_some() {
            "router-driven".into()
        } else {
            "off".into()
        }
    );

    let checkpoint = checkpoint_dir.map(|dir| CheckpointConfig {
        dir,
        every_epochs: checkpoint_epochs,
    });
    let report = serve(
        &listener,
        &mut system,
        &ServeOptions {
            producers,
            checkpoint,
            ..Default::default()
        },
    )
    .expect("ingestion session failed");

    println!(
        "catd: session done — {} accesses, {} epochs, {} refreshes over {} rows, \
         {} stats snapshot(s) served",
        report.outcome.accesses,
        report.outcome.epochs,
        report.snapshot.stats.refresh_events,
        report.snapshot.stats.refreshed_rows,
        report.stats_served
    );
    for (owned, engine) in system.engine_slices().iter().zip(system.engines()) {
        println!(
            "catd:   engine [{owned}]: {} activations over {} banks",
            engine.activations_per_bank().iter().sum::<u64>(),
            engine.bank_count()
        );
    }
    let fp = system.footprint();
    println!(
        "catd: footprint — {} of {} banks materialized, {} scheme bytes + {} accounting \
         bytes resident",
        fp.materialized_banks, fp.banks, fp.scheme_bytes, fp.accounting_bytes
    );
}
