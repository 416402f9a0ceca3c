//! Loopback differential for the socket/queue ingestion front-end: a
//! `catd`-style TCP server ([`cat_engine::ingest::serve`] — the exact loop
//! the `catd` example runs) must produce **bit-identical** `SchemeStats`
//! to the flat in-process batch path (and therefore to
//! `cat_sim::functional::run_functional`, which is that same
//! `MemorySystem` push/flush path behind an address decode — see
//! `tests/equivalence.rs`) for every combination of producer count, shard
//! count, and staging-flush boundary. The merge rule making this possible
//! is `DESIGN.md §8`.

use std::net::TcpListener;

use cat_core::{SchemeSpec, SchemeStats};
use cat_engine::ingest::{deal, serve, IngestClient, IngestQueue, ServeOptions};
use cat_engine::router::{self, RouterOptions};
use cat_engine::wire::StatsSnapshot;
use cat_engine::{MemGeometry, MemorySystem, Partition};

const BANKS: u32 = 16;
const ROWS: u32 = 4096;
const EPOCH: u64 = 25_000;
/// Records per dealt chunk (and so per wire frame) — deliberately not a
/// divisor of the trace length or any staging capacity.
const CHUNK: usize = 7_777;

fn geometry() -> MemGeometry {
    MemGeometry {
        channels: 2,
        ranks_per_channel: 1,
        banks_per_rank: 8,
        rows_per_bank: ROWS,
        lines_per_row: 16,
        line_bytes: 64,
    }
}

/// Deterministic hammered-plus-background trace across all banks
/// (splitmix-style mixing, same shape as `tests/equivalence.rs`).
fn trace(n: u64) -> Vec<(u32, u32)> {
    seeded_trace(n, 0)
}

/// [`trace`] with a seed folded into the mix, for the cross-thread sweep.
fn seeded_trace(n: u64, seed: u64) -> Vec<(u32, u32)> {
    (0..n)
        .map(|i| {
            let mut z = i
                .wrapping_add(seed.wrapping_mul(0x632b_e592_17f2_2b32))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x6a09_e667);
            z ^= z >> 27;
            z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
            let bank = (z % u64::from(BANKS)) as u32;
            let row = if i % 4 != 0 {
                1000 + bank
            } else {
                ((z >> 32) % u64::from(ROWS)) as u32
            };
            (bank, row)
        })
        .collect()
}

/// Runs the whole trace through one loopback `catd` session: a server
/// thread drives `serve` over 127.0.0.1 with lanes of `queue_capacity`
/// records, `producers` client threads each stream their `deal` lane, and
/// every client collects the final stats snapshot. Returns the snapshot
/// plus the server system's per-bank stats.
fn loopback_run(
    spec: SchemeSpec,
    trace: &[(u32, u32)],
    (producers, queue_capacity): (usize, usize),
    shards: usize,
    stream_capacity: usize,
) -> (StatsSnapshot, Vec<SchemeStats>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut system = MemorySystem::new(geometry(), spec)
            .with_epoch_length(EPOCH)
            .with_shards(shards)
            .with_stream_capacity(stream_capacity);
        let report = serve(
            &listener,
            &mut system,
            &ServeOptions {
                producers,
                queue_capacity,
                ..Default::default()
            },
        )
        .expect("serve");
        (report, system.per_bank_stats())
    });

    let snapshots: Vec<StatsSnapshot> = std::thread::scope(|scope| {
        let clients: Vec<_> = deal(trace, producers, CHUNK)
            .into_iter()
            .enumerate()
            .map(|(id, lane)| {
                scope.spawn(move || {
                    let mut client =
                        IngestClient::connect(addr, id as u32).expect("connect loopback");
                    assert_eq!(client.server_hello().geometry, geometry());
                    assert_eq!(client.server_hello().spec, spec.to_string());
                    assert_eq!(client.server_hello().epoch_len, Some(EPOCH));
                    for batch in lane {
                        client.send(batch).expect("send records");
                    }
                    client.finish_with_stats().expect("stats snapshot")
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });

    let (report, per_bank) = server.join().unwrap();
    assert_eq!(report.stats_served, producers);
    assert_eq!(report.outcome.accesses, trace.len() as u64);
    // Every client sees the same final snapshot.
    for snap in &snapshots {
        assert_eq!(*snap, report.snapshot);
    }
    (report.snapshot, per_bank)
}

/// The acceptance differential: ≥ 1M accesses through loopback `catd`,
/// bit-identical to the in-process reference for 1/2/4 producers × 1/2/4
/// shards × two staging-flush boundaries.
#[test]
fn loopback_catd_matches_flat_engine_for_every_producer_shard_and_flush_combo() {
    let spec = SchemeSpec::Sca {
        counters: 64,
        threshold: 512,
    };
    let trace = trace(1_000_003);

    // Reference: the flat single-process batch path (the computation
    // `run_functional` performs behind its address decode).
    let mut reference = MemorySystem::new(geometry(), spec).with_epoch_length(EPOCH);
    reference.process(&trace);
    let ref_stats = reference.stats();
    let ref_per_bank = reference.per_bank_stats();
    assert!(
        ref_stats.refresh_events > 0,
        "trace too tame, nothing to compare"
    );

    for producers in [1usize, 2, 4] {
        for shards in [1usize, 2, 4] {
            for stream_capacity in [4_096usize, 50_000] {
                let (snapshot, per_bank) =
                    loopback_run(spec, &trace, (producers, 1 << 14), shards, stream_capacity);
                let label =
                    format!("{producers} producers × {shards} shards × cap {stream_capacity}");
                assert_eq!(snapshot.stats, ref_stats, "{label}: aggregate stats");
                assert_eq!(per_bank, ref_per_bank, "{label}: per-bank stats");
                assert_eq!(snapshot.accesses, trace.len() as u64, "{label}");
                assert_eq!(snapshot.epochs, trace.len() as u64 / EPOCH, "{label}");
            }
        }
    }
}

/// Lanes smaller than a reader's 4 096-record socket piece: each reader
/// decodes pieces of at most its lane's capacity, so a 1 000-record lane
/// and a 1-record lane serve 7 777-record frames bit-identically too.
#[test]
fn loopback_catd_matches_flat_engine_with_lanes_below_the_read_piece() {
    let spec = SchemeSpec::Sca {
        counters: 64,
        threshold: 512,
    };
    let trace = trace(60_001);
    let mut reference = MemorySystem::new(geometry(), spec).with_epoch_length(EPOCH);
    reference.process(&trace);
    for queue_capacity in [1_000usize, 1] {
        let (snapshot, per_bank) = loopback_run(spec, &trace, (2, queue_capacity), 1, 4_096);
        let label = format!("lane capacity {queue_capacity}");
        assert_eq!(snapshot.stats, reference.stats(), "{label}");
        assert_eq!(per_bank, reference.per_bank_stats(), "{label}");
        assert_eq!(snapshot.accesses, trace.len() as u64, "{label}");
    }
}

/// In-process sweep of the ingest lanes without the socket layer: for
/// several trace seeds and every 1/2/4 producers × 1/2/4 shards combo,
/// real OS threads stream `deal` lanes through a deliberately small lane
/// (1 << 10 records — smaller than the 7 777-record chunks, so every batch
/// must stream through the lane under producer/consumer backpressure)
/// while the consumer merges into a sharded [`MemorySystem`]. The result
/// must match the flat single-thread reference bit for bit.
#[test]
fn in_process_queue_matches_flat_engine_across_seeds() {
    let spec = SchemeSpec::Sca {
        counters: 64,
        threshold: 512,
    };
    for seed in [1u64, 0x5EED, 0xC0FFEE] {
        let trace = seeded_trace(200_003, seed);
        let mut reference = MemorySystem::new(geometry(), spec).with_epoch_length(EPOCH);
        reference.process(&trace);
        let ref_stats = reference.stats();
        let ref_per_bank = reference.per_bank_stats();
        assert!(
            ref_stats.refresh_events > 0,
            "seed {seed:#x}: trace too tame, nothing to compare"
        );

        for producers in [1usize, 2, 4] {
            for shards in [1usize, 2, 4] {
                let (handles, mut consumer) = IngestQueue::bounded(producers, 1 << 10);
                let mut system = MemorySystem::new(geometry(), spec)
                    .with_epoch_length(EPOCH)
                    .with_shards(shards);
                let outcome = std::thread::scope(|scope| {
                    for (lane, handle) in deal(&trace, producers, CHUNK).into_iter().zip(handles) {
                        scope.spawn(move || {
                            let mut handle = handle;
                            for batch in lane {
                                handle.send(batch).expect("consumer outlives the scope");
                            }
                        });
                    }
                    system
                        .ingest(&mut consumer)
                        .expect("in-slice records, no cuts")
                });
                let label = format!("seed {seed:#x}: {producers} producers × {shards} shards");
                assert_eq!(outcome.accesses, trace.len() as u64, "{label}");
                assert_eq!(system.stats(), ref_stats, "{label}: aggregate stats");
                assert_eq!(
                    system.per_bank_stats(),
                    ref_per_bank,
                    "{label}: per-bank stats"
                );
            }
        }
    }
}

/// A tree scheme (with splits/merges and deeper per-access state) over the
/// wire, to make sure the differential is not SCA-shaped by accident.
#[test]
fn loopback_catd_matches_flat_engine_for_a_tree_scheme() {
    let spec = SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: 512,
    };
    let trace = trace(120_000);
    let mut reference = MemorySystem::new(geometry(), spec).with_epoch_length(EPOCH);
    reference.process(&trace);
    assert!(reference.stats().refresh_events > 0);

    let (snapshot, per_bank) = loopback_run(spec, &trace, (3, 1 << 14), 2, 8_192);
    assert_eq!(snapshot.stats, reference.stats());
    assert_eq!(per_bank, reference.per_bank_stats());
}

#[test]
fn idle_producers_and_empty_sessions_are_handled() {
    let spec = SchemeSpec::Sca {
        counters: 16,
        threshold: 64,
    };
    // Producer 1 of 2 sends nothing at all; the session still completes
    // and the stats cover exactly producer 0's records.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut system = MemorySystem::new(geometry(), spec).with_epoch_length(EPOCH);
        serve(
            &listener,
            &mut system,
            &ServeOptions {
                producers: 2,
                ..Default::default()
            },
        )
        .expect("serve")
    });
    let sender = std::thread::spawn(move || {
        let mut client = IngestClient::connect(addr, 0).unwrap();
        client.send(&[(3, 50); 100]).unwrap();
        client.finish_with_stats().unwrap()
    });
    let idle = std::thread::spawn(move || {
        let client = IngestClient::connect(addr, 1).unwrap();
        client.finish().unwrap();
    });
    idle.join().unwrap();
    let snapshot = sender.join().unwrap();
    let report = server.join().unwrap();
    assert_eq!(snapshot.accesses, 100);
    assert_eq!(snapshot.stats.activations, 100);
    assert_eq!(report.stats_served, 1);
    assert_eq!(report.snapshot, snapshot);
}

#[test]
fn out_of_range_records_error_the_connection_not_the_server() {
    // Both coordinates: bank 16 is out of range for the 16-bank geometry,
    // and row 4096 is out of range for the 4096-row banks (the
    // counter-cache scheme bounds-checks rows, so an unvalidated row
    // would panic the shared drain thread and hang every other
    // producer). The server must reject either at the connection.
    let spec = SchemeSpec::CounterCache {
        entries: 256,
        ways: 4,
        threshold: 64,
    };
    for bad_record in [(BANKS, 0u32), (0, ROWS)] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut system = MemorySystem::new(geometry(), spec);
            serve(&listener, &mut system, &ServeOptions::default())
        });
        let client = std::thread::spawn(move || {
            let mut client = IngestClient::connect(addr, 0).unwrap();
            let _ = client.send(&[bad_record]);
            let _ = client.finish();
        });
        let err = server.join().unwrap().expect_err("bad record must error");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "{bad_record:?}"
        );
        assert!(err.to_string().contains("out of range"), "{err}");
        client.join().unwrap();
    }
}

#[test]
fn duplicate_producer_ids_are_rejected_at_the_handshake() {
    let spec = SchemeSpec::Sca {
        counters: 16,
        threshold: 64,
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut system = MemorySystem::new(geometry(), spec);
        serve(
            &listener,
            &mut system,
            &ServeOptions {
                producers: 2,
                ..Default::default()
            },
        )
    });
    // First claimant of id 0 handshakes fine; the second must be refused.
    let first = IngestClient::connect(addr, 0).expect("first claim succeeds");
    let second = std::thread::spawn(move || IngestClient::connect(addr, 0));
    let err = server.join().unwrap().expect_err("duplicate id must error");
    assert!(err.to_string().contains("twice"), "{err}");
    // The refused client sees either an InvalidData-free connect error or
    // a closed socket, never a successful session.
    drop(first);
    let _ = second.join().unwrap();
}

/// Runs both serve loops with `options` over a non-blocking listener and
/// a fleet whose only backend address refuses connections, so a serve
/// that accepted or connected before validating its options would fail
/// with `WouldBlock` or `ConnectionRefused` instead of the refusal.
fn serve_both(producers: usize, queue_capacity: usize) -> [std::io::Error; 2] {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let mut system = MemorySystem::new(geometry(), SchemeSpec::None);
    let backend = serve(
        &listener,
        &mut system,
        &ServeOptions {
            producers,
            queue_capacity,
            checkpoint: None,
        },
    )
    .expect_err("the backend serve must refuse");
    let closed = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let partition = Partition::uniform(geometry(), 1).unwrap();
    let fleet = router::serve(
        &listener,
        &partition,
        &[closed],
        &RouterOptions {
            producers,
            queue_capacity,
            connect_attempts: 1,
            ..Default::default()
        },
    )
    .expect_err("the router serve must refuse");
    [backend, fleet]
}

#[test]
fn serve_refuses_zero_producers_before_accepting() {
    for err in serve_both(0, 1 << 16) {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("producer"), "{err}");
    }
}

#[test]
fn serve_refuses_zero_queue_capacity_before_accepting() {
    for err in serve_both(2, 0) {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("queue capacity"), "{err}");
    }
}

/// `MemorySystem::ingest` over a raw queue refuses what the handshake and
/// the connection refuse on the served path — a stream cut into a system
/// running its own epoch clock, a bank outside a fleet backend's slice —
/// with a typed error, not a panic on the drain thread. The offending
/// batch is dropped from the stage; everything ahead of it stays applied.
#[test]
fn ingest_refuses_foreign_events_with_typed_errors() {
    let spec = SchemeSpec::Sca {
        counters: 64,
        threshold: 512,
    };
    let feed = |events: &[Option<&[(u32, u32)]>]| {
        let (mut handles, consumer) = IngestQueue::bounded(1, 1 << 10);
        let mut producer = handles.pop().expect("one producer");
        for event in events {
            match event {
                Some(records) => producer.send(records).expect("consumer alive"),
                None => producer.send_cut().expect("consumer alive"),
            };
        }
        consumer
    };

    let mut clocked = MemorySystem::new(geometry(), spec).with_epoch_length(EPOCH);
    let err = clocked
        .ingest(&mut feed(&[Some(&[(0, 1), (9, 2)]), None]))
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("own epoch clock"), "{err}");
    assert_eq!(clocked.accesses() + clocked.pending() as u64, 2);
    assert_eq!(clocked.epochs(), 0);

    let slice = Partition::uniform(geometry(), 2)
        .expect("two slices")
        .slices()[1];
    let mut backend = MemorySystem::for_slice(&slice, spec);
    let err = backend
        .ingest(&mut feed(&[
            Some(&[(8, 1)]),
            None,
            Some(&[(15, 2), (3, 4)]),
        ]))
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("global bank 3 out of range"),
        "{err}"
    );
    assert_eq!((backend.accesses(), backend.epochs()), (1, 1));
    assert_eq!(backend.pending(), 0, "the offending batch left the stage");

    // An owned bank with a row past its last: the same typed refusal, not
    // a scheme's row assert panicking the drain.
    let mut rows = MemorySystem::for_slice(&slice, spec);
    let err = rows
        .ingest(&mut feed(&[
            Some(&[(8, 1)]),
            None,
            Some(&[(15, 2), (9, ROWS)]),
        ]))
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("row 4096"), "{err}");
    assert_eq!((rows.accesses(), rows.epochs()), (1, 1));
    assert_eq!(rows.pending(), 0, "the offending batch left the stage");
}
