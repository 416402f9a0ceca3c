//! End-to-end kill-and-resume differential at facade scope
//! (`DESIGN.md §11`): a checkpointing loopback `catd` session (the
//! `cat_engine::ingest::serve` loop the `catd` example runs with
//! `--checkpoint-dir`) is fed half a workload trace over two producers
//! and then **killed mid-stream** — the clients drop their connections
//! without `Finish`, so the session ends in an error, exactly like a
//! process kill would end it. A second session recovers from the
//! checkpoint directory (`resume_from_dir`, the `--resume` path: newest
//! image + trace-log tail), ingests the rest of the trace, and must
//! report **bit-identical** `SchemeStats` to a single uninterrupted
//! `run_functional` pass over the whole trace.
//!
//! The in-process checkpoint matrix (every spec × shard count × epoch
//! cut, stats *and* footprint) lives in `crates/engine/tests/
//! checkpoint.rs`; this test pins the remaining gap: durability across
//! real sessions — the write-ahead trace log, the image rotation, and
//! recovery — driven over real sockets through the published facade.
//!
//! The client-requested checkpoint (`IngestClient::request_checkpoint`,
//! the wire `Checkpoint` frame) gets the same treatment: the image must
//! land at an epoch cut no later than the first cut past the request and
//! resume bit-identically, and a server without a checkpoint directory
//! must refuse the request with `ErrorKind::Unsupported`.

use catree::engine::checkpoint::{resume_from_dir, CheckpointConfig, CHECKPOINT_FILE};
use catree::engine::ingest::{deal, serve, IngestClient, ServeOptions};
use catree::functional::run_functional;
use catree::{AccessStream, AddressMapping, MemAccess, MemorySystem, SchemeSpec, SystemConfig};

#[test]
fn killed_session_resumes_bit_identically_to_an_uninterrupted_run() {
    let cfg = SystemConfig::dual_core_two_channel();
    let spec = SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: 512,
    };
    let epoch = 25_000u64;
    let accesses = 120_000usize;
    let half = 60_000usize;
    let producers = 2usize;
    let dir = std::env::temp_dir().join(format!("catree-checkpoint-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // One workload trace, materialized once: the uninterrupted reference
    // and both partial sessions replay slices of the same records.
    let mut one = cfg.clone();
    one.cores = 1;
    let trace: Vec<MemAccess> = AccessStream::new(
        &catree::workloads::by_name("swapt").unwrap(),
        &one,
        0,
        64,
        7,
    )
    .take(accesses)
    .collect();
    assert_eq!(trace.len(), accesses);
    let reference = run_functional(&cfg, spec, trace.iter().copied(), epoch);
    assert!(
        reference.scheme_stats.refresh_events > 0,
        "trace too tame, nothing to compare"
    );
    let mapping = AddressMapping::new(&cfg);
    let decoded: Vec<(u32, u32)> = trace
        .iter()
        .map(|a| mapping.decode_bank_row(a.addr))
        .collect();

    let options = || ServeOptions {
        producers,
        checkpoint: Some(CheckpointConfig::new(&dir)),
        ..Default::default()
    };
    let fresh = || {
        MemorySystem::new(&cfg, spec)
            .with_epoch_length(epoch)
            .with_shards(2)
    };

    // Session 1: stream the first half, then die without Finish. Every
    // producer sends its complete `deal` lane first, so the merged prefix
    // that reaches the server is exactly `decoded[..half]` — and every
    // record was logged to the checkpoint directory before processing.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let killed = std::thread::spawn({
        let mut system = fresh();
        let options = options();
        move || serve(&listener, &mut system, &options).map(|r| r.outcome)
    });
    std::thread::scope(|scope| {
        for (id, lane) in deal(&decoded[..half], producers, 7_777)
            .into_iter()
            .enumerate()
        {
            scope.spawn(move || {
                let mut client = IngestClient::connect(addr, id as u32).expect("connect");
                for batch in lane {
                    client.send(batch).expect("send");
                }
                // The kill: drop the connection mid-session. The buffered
                // frames flush on drop, so everything sent above reaches
                // the server — then the reader hits EOF instead of Finish.
                drop(client);
            });
        }
    });
    let err = killed.join().unwrap().unwrap_err();
    assert_eq!(
        err.kind(),
        std::io::ErrorKind::UnexpectedEof,
        "a killed producer must surface as an EOF, got: {err}"
    );

    // Session 2: recover from the directory — the image published at the
    // last epoch cut (50 000) plus the 10 000-record log tail — then
    // stream the second half and collect the final snapshot.
    let mut system = fresh();
    let recovered = resume_from_dir(&mut system, &dir).expect("recover");
    assert!(recovered.from_checkpoint, "no image was published");
    assert_eq!(recovered.accesses, half as u64);
    assert_eq!(recovered.epochs, half as u64 / epoch);
    assert_eq!(recovered.replayed, half as u64 % epoch);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let resumed = std::thread::spawn({
        let options = options();
        move || {
            let report = serve(&listener, &mut system, &options).expect("serve resumed session");
            (report, system.report())
        }
    });
    let snapshots: Vec<_> = std::thread::scope(|scope| {
        deal(&decoded[half..], producers, 7_777)
            .into_iter()
            .enumerate()
            .map(|(id, lane)| {
                scope.spawn(move || {
                    let mut client = IngestClient::connect(addr, id as u32).expect("connect");
                    for batch in lane {
                        client.send(batch).expect("send");
                    }
                    client.finish_with_stats().expect("snapshot")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("producer thread"))
            .collect()
    });
    let (report, system_report) = resumed.join().unwrap();

    // The resumed session's final state must be bit-identical to the
    // uninterrupted single-process run — over the wire and in the system.
    for snap in &snapshots {
        assert_eq!(*snap, report.snapshot, "producers saw different snapshots");
    }
    assert_eq!(report.snapshot.accesses, reference.accesses);
    assert_eq!(report.snapshot.epochs, reference.epochs);
    assert_eq!(report.snapshot.stats, reference.scheme_stats);
    assert_eq!(system_report.per_bank_stats, reference.per_bank_stats);
    assert_eq!(
        system_report.activations_per_bank,
        reference.activations_per_bank
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A fresh checkpoint directory for one test.
fn checkpoint_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "catree-checkpoint-e2e-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The first `n` accesses of a one-core swapt stream, decoded to
/// `(global bank, row)` records.
fn decoded_trace(cfg: &SystemConfig, n: usize) -> Vec<(u32, u32)> {
    let mut one = cfg.clone();
    one.cores = 1;
    let workload = catree::workloads::by_name("swapt").unwrap();
    let mapping = AddressMapping::new(cfg);
    let decoded: Vec<(u32, u32)> = AccessStream::new(&workload, &one, 0, 64, 7)
        .take(n)
        .map(|a| mapping.decode_bank_row(a.addr))
        .collect();
    assert_eq!(decoded.len(), n);
    decoded
}

#[test]
fn client_requested_checkpoint_lands_by_the_next_cut_and_resumes_bit_identically() {
    let cfg = SystemConfig::dual_core_two_channel();
    let spec = SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: 512,
    };
    let epoch = 10_000u64;
    // The request follows record 25 000; the session then streams 2.7
    // more epochs and finishes at 52 000, off a cut, so no final image is
    // published. Periodic images never fire either: the interval is far
    // longer than the session.
    let (request_at, sent, total) = (25_000usize, 52_000usize, 80_000usize);
    let decoded = decoded_trace(&cfg, total);
    let dir = checkpoint_dir("requested");
    let fresh = || MemorySystem::new(&cfg, spec).with_epoch_length(epoch);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn({
        let mut system = fresh();
        let options = ServeOptions {
            checkpoint: Some(CheckpointConfig {
                dir: dir.clone(),
                every_epochs: 1_000_000,
            }),
            ..Default::default()
        };
        move || serve(&listener, &mut system, &options)
    });
    let mut client = IngestClient::connect(addr, 0).expect("connect");
    client.send(&decoded[..request_at]).expect("send");
    client.request_checkpoint().expect("request checkpoint");
    client.send(&decoded[request_at..sent]).expect("send");
    let snapshot = client.finish_with_stats().expect("snapshot");
    let report = server.join().unwrap().expect("serve");
    assert_eq!(snapshot, report.snapshot);
    assert_eq!(snapshot.accesses, sent as u64);

    // The only image is the requested one, published at an epoch cut no
    // later than the first cut past the request's stream position.
    assert!(dir.join(CHECKPOINT_FILE).exists(), "no image was published");
    let mut resumed = fresh();
    let recovered = resume_from_dir(&mut resumed, &dir).expect("recover");
    assert!(recovered.from_checkpoint);
    assert_eq!(recovered.accesses, sent as u64);
    let image_at = recovered.accesses - recovered.replayed;
    let first_cut_after = (request_at as u64 / epoch + 1) * epoch;
    assert!(
        image_at > 0 && image_at.is_multiple_of(epoch) && image_at <= first_cut_after,
        "image at access {image_at}, request at {request_at}, first cut after it {first_cut_after}"
    );

    // Image + log tail + the rest of the trace must equal one
    // uninterrupted run, bank for bank.
    resumed.process(&decoded[sent..]);
    let mut reference = fresh();
    reference.process(&decoded);
    assert_eq!(resumed.accesses(), reference.accesses());
    assert_eq!(resumed.epochs(), reference.epochs());
    assert_eq!(resumed.stats(), reference.stats());
    let (got, want) = (resumed.report(), reference.report());
    assert_eq!(got.per_bank_stats, want.per_bank_stats);
    assert_eq!(got.activations_per_bank, want.activations_per_bank);
    assert_eq!(
        got.footprint.materialized_banks,
        want.footprint.materialized_banks
    );
    assert_eq!(got.footprint.scheme_bytes, want.footprint.scheme_bytes);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_request_without_a_checkpoint_dir_fails_the_connection() {
    let cfg = SystemConfig::dual_core_two_channel();
    let decoded = decoded_trace(&cfg, 1_000);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut system = MemorySystem::new(&cfg, SchemeSpec::pra(0.002));
        serve(&listener, &mut system, &ServeOptions::default())
    });
    let mut client = IngestClient::connect(addr, 0).expect("connect");
    // The server may close the socket as soon as it reads the request,
    // so the client's later writes may fail: only the server's verdict
    // is asserted.
    let _ = client.send(&decoded);
    let _ = client.request_checkpoint();
    let _ = client.finish();
    let err = server
        .join()
        .unwrap()
        .expect_err("the request must fail the connection");
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported, "{err}");
    assert!(err.to_string().contains("checkpoint"), "{err}");
}
