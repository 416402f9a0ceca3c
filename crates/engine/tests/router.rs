//! Fleet differential for the router tier (`DESIGN.md §12`): a router
//! fronting N sliced, clockless backends over loopback TCP must produce
//! a merged snapshot **bit-identical** — stats *and* footprint — to a
//! single-host [`MemorySystem`] on the union geometry, for every backend
//! × producer combination, including after killing one backend and
//! resuming it from its checkpoint directory (`DESIGN.md §11`). The
//! fleet-layout validation at both handshakes (router → backend and
//! client → router) must refuse every misconfiguration with a typed
//! error, never a panic.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;

use cat_core::SchemeSpec;
use cat_engine::checkpoint::{resume_from_dir, CheckpointConfig};
use cat_engine::ingest::{deal, serve as serve_backend, IngestClient, ServeOptions};
use cat_engine::router::{serve as serve_fleet, IngestRouter, RouterOptions, RouterReport};
use cat_engine::wire::{self, ServerHello, StatsSnapshot};
use cat_engine::{GeometrySlice, MemGeometry, MemorySystem, Partition};

const BANKS: u32 = 16;
const ROWS: u32 = 4096;
/// Records per dealt chunk — deliberately not a divisor of any trace
/// length, flush boundary, or epoch length used below.
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
/// (splitmix-style mixing, same shape as the ingest loopback suite).
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

fn bind() -> (TcpListener, SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    (listener, addr)
}

/// A fresh scratch directory under the target-adjacent temp root, removed
/// by the caller.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("catree-router-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One fleet session over loopback: each backend runs `ingest::serve` on
/// the [`MemorySystem`] handed in (clockless — the router owns the
/// clock), the router runs `router::serve` with `epoch_len`, and
/// `producers` client threads stream `trace` in dealt lanes. Backends
/// hand their systems back so a caller can run multi-session
/// kill-and-resume sequences; clients hand back the snapshots the router
/// served them.
fn fleet_session(
    partition: &Partition,
    systems: Vec<MemorySystem>,
    checkpoints: &[Option<CheckpointConfig>],
    trace: &[(u32, u32)],
    producers: usize,
    epoch_len: Option<u64>,
) -> (RouterReport, Vec<MemorySystem>, Vec<StatsSnapshot>) {
    let binds: Vec<_> = (0..systems.len()).map(|_| bind()).collect();
    let backend_addrs: Vec<SocketAddr> = binds.iter().map(|(_, a)| *a).collect();
    let (router_listener, router_addr) = bind();
    std::thread::scope(|scope| {
        let backends: Vec<_> = binds
            .into_iter()
            .zip(systems)
            .enumerate()
            .map(|(id, ((listener, _), mut system))| {
                let options = ServeOptions {
                    producers: 1,
                    checkpoint: checkpoints[id].clone(),
                    ..Default::default()
                };
                scope.spawn(move || {
                    serve_backend(&listener, &mut system, &options)
                        .unwrap_or_else(|e| panic!("backend {id}: {e}"));
                    system
                })
            })
            .collect();
        let router = scope.spawn(|| {
            serve_fleet(
                &router_listener,
                partition,
                &backend_addrs,
                &RouterOptions {
                    producers,
                    epoch_len,
                    ..Default::default()
                },
            )
            .expect("router serve")
        });
        let snapshots: Vec<StatsSnapshot> = {
            let clients: Vec<_> = deal(trace, producers, CHUNK)
                .into_iter()
                .enumerate()
                .map(|(id, lane)| {
                    scope.spawn(move || {
                        let mut client =
                            IngestClient::connect(router_addr, id as u32).expect("connect router");
                        // The fleet is invisible at the handshake: union
                        // geometry, full slice, the backends' spec.
                        assert_eq!(client.server_hello().geometry, geometry());
                        assert_eq!(client.server_hello().slice_start, 0);
                        assert_eq!(client.server_hello().slice_banks, BANKS);
                        assert_eq!(client.server_hello().epoch_len, epoch_len);
                        for batch in lane {
                            client.send(batch).expect("send records");
                        }
                        client.finish_with_stats().expect("stats snapshot")
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        };
        let report = router.join().unwrap();
        let systems = backends.into_iter().map(|b| b.join().unwrap()).collect();
        (report, systems, snapshots)
    })
}

/// Checks a merged fleet snapshot against the single-host reference:
/// stats, stream position, and the wire-travelling footprint fields.
fn assert_snapshot_matches(snapshot: &StatsSnapshot, reference: &MemorySystem, label: &str) {
    assert_eq!(
        snapshot.stats,
        reference.stats(),
        "{label}: aggregate stats"
    );
    assert_eq!(snapshot.accesses, reference.accesses(), "{label}: accesses");
    assert_eq!(snapshot.epochs, reference.epochs(), "{label}: epochs");
    let fp = reference.footprint();
    assert_eq!(snapshot.banks, fp.banks as u64, "{label}: banks");
    assert_eq!(
        snapshot.materialized_banks, fp.materialized_banks as u64,
        "{label}: materialized banks"
    );
    assert_eq!(
        snapshot.scheme_bytes, fp.scheme_bytes as u64,
        "{label}: scheme bytes"
    );
}

/// An 8 + 4 + 4-bank partition: slices of unequal size, so the router
/// keys records by binary search instead of a shift.
fn mixed_partition() -> Partition {
    let g = geometry();
    Partition::from_slices(vec![
        GeometrySlice::new(g, 0, 8).unwrap(),
        GeometrySlice::new(g, 8, 4).unwrap(),
        GeometrySlice::new(g, 12, 4).unwrap(),
    ])
    .unwrap()
}

/// The fleet acceptance differential: {1, 2, 4} uniform backends and the
/// mixed 8 + 4 + 4 partition × {1, 2, 4} producers over loopback, each
/// fleet bit-identical to the single-host run on the union geometry.
#[test]
fn fleet_matches_single_host_for_every_backend_and_producer_combo() {
    let spec = SchemeSpec::Sca {
        counters: 64,
        threshold: 512,
    };
    const EPOCH: u64 = 25_000;
    let trace = seeded_trace(200_003, 0);
    let mut reference = MemorySystem::new(geometry(), spec).with_epoch_length(EPOCH);
    reference.process(&trace);
    assert!(
        reference.stats().refresh_events > 0,
        "trace too tame, nothing to compare"
    );

    let uniform = [1, 2, 4].map(|n| Partition::uniform(geometry(), n).unwrap());
    for partition in uniform.into_iter().chain([mixed_partition()]) {
        let backends = partition.len();
        for producers in [1usize, 2, 4] {
            let systems = partition
                .slices()
                .iter()
                .map(|s| MemorySystem::for_slice(s, spec))
                .collect();
            let (report, _, snapshots) = fleet_session(
                &partition,
                systems,
                &vec![None; backends],
                &trace,
                producers,
                Some(EPOCH),
            );
            let label = format!("{backends} backends × {producers} producers");
            assert_snapshot_matches(&report.snapshot, &reference, &label);
            assert_eq!(report.per_backend.len(), backends, "{label}");
            assert_eq!(report.stats_served, producers, "{label}");
            // Every client saw the merged snapshot, not a per-slice one.
            for snap in &snapshots {
                assert_eq!(*snap, report.snapshot, "{label}: client snapshot");
            }
        }
    }
}

/// A tree scheme (splits/merges, deeper per-access state, per-bank byte
/// footprints that differ between hot and cold banks) through a fleet,
/// so the differential is not SCA-shaped by accident.
#[test]
fn fleet_matches_single_host_for_a_tree_scheme() {
    let spec = SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: 512,
    };
    const EPOCH: u64 = 25_000;
    let trace = seeded_trace(120_000, 0xD2CA7);
    let mut reference = MemorySystem::new(geometry(), spec).with_epoch_length(EPOCH);
    reference.process(&trace);
    assert!(reference.stats().refresh_events > 0);

    let partition = Partition::uniform(geometry(), 2).unwrap();
    let systems = partition
        .slices()
        .iter()
        .map(|s| MemorySystem::for_slice(s, spec))
        .collect();
    let (report, _, _) = fleet_session(&partition, systems, &[None, None], &trace, 3, Some(EPOCH));
    assert_snapshot_matches(&report.snapshot, &reference, "drcat fleet");
}

/// The scatter range-checks a whole batch, banks and rows, before any of
/// it is forwarded: a batch holding a foreign bank or a row past the last
/// is refused as `InvalidData`, and the fleet ends holding exactly the
/// batches that were accepted.
#[test]
fn the_scatter_refuses_a_bad_bank_or_row_before_forwarding_the_batch() {
    let spec = SchemeSpec::Sca {
        counters: 16,
        threshold: 64,
    };
    let partition = Partition::uniform(geometry(), 2).unwrap();
    let binds: Vec<_> = (0..2).map(|_| bind()).collect();
    let addrs: Vec<SocketAddr> = binds.iter().map(|(_, a)| *a).collect();
    let backends: Vec<_> = binds
        .into_iter()
        .zip(partition.slices().to_vec())
        .map(|((listener, _), slice)| {
            std::thread::spawn(move || {
                let mut system = MemorySystem::for_slice(&slice, spec);
                serve_backend(&listener, &mut system, &ServeOptions::default())
            })
        })
        .collect();
    let mut router =
        IngestRouter::connect(&partition, &addrs, &RouterOptions::default()).expect("connect");
    let good = seeded_trace(1_000, 0x5CA7);
    router.scatter(&good).expect("an in-range batch");
    for (bad_record, what) in [((BANKS, 0), "global bank"), ((3, ROWS), "row")] {
        // In-range records of both slices precede the bad one.
        let batch = [(0, 1), (BANKS - 1, 2), bad_record];
        let err = router
            .scatter(&batch)
            .expect_err("a bad record refuses its batch");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(what), "{err}");
        assert_eq!(router.accesses(), good.len() as u64);
    }
    let report = router
        .finish_with_stats()
        .expect("the fleet finishes cleanly");
    let mut reference = MemorySystem::new(geometry(), spec);
    reference.process(&good);
    assert_snapshot_matches(&report.snapshot, &reference, "after the refused batches");
    for backend in backends {
        backend
            .join()
            .unwrap()
            .expect("no backend saw a bad record");
    }
}

/// Accepts the router on `listener` and handshakes as a fresh, clockless
/// backend serving `slice`; returns the connection.
fn fake_backend(listener: &TcpListener, slice: GeometrySlice, spec: SchemeSpec) -> TcpStream {
    let (mut stream, _) = listener.accept().expect("accept the router");
    wire::read_client_hello(&mut stream).expect("client hello");
    let hello = ServerHello {
        geometry: geometry(),
        slice_start: slice.start_bank(),
        slice_banks: slice.banks(),
        spec: spec.to_string(),
        epoch_len: None,
        accesses: 0,
        epochs: 0,
    };
    wire::write_server_hello(&mut stream, &hello).expect("server hello");
    stream
}

/// A backend that completes a valid handshake and then drops its socket
/// is named in the router's first error, whichever send meets it.
#[test]
fn a_backend_that_drops_its_socket_is_named_in_the_routers_first_error() {
    let spec = SchemeSpec::Sca {
        counters: 16,
        threshold: 64,
    };
    let partition = Partition::uniform(geometry(), 2).unwrap();
    let lower = partition.slices()[0];
    let upper = partition.slices()[1];
    let (live_listener, live_addr) = bind();
    let live = std::thread::spawn(move || {
        let mut system = MemorySystem::for_slice(&lower, spec);
        serve_backend(&live_listener, &mut system, &ServeOptions::default())
    });
    let (dead_listener, dead_addr) = bind();
    // The backend vanishes right after its handshake.
    let dead = std::thread::spawn(move || drop(fake_backend(&dead_listener, upper, spec)));
    let mut router = IngestRouter::connect(
        &partition,
        &[live_addr, dead_addr],
        &RouterOptions::default(),
    )
    .expect("both handshakes are valid");
    dead.join().unwrap();
    // Full frames for backend 1 only, until a send meets the closed socket.
    let batch: Vec<(u32, u32)> = (0..8_192u32)
        .map(|i| (BANKS / 2 + i % (BANKS / 2), i % ROWS))
        .collect();
    let mut first_error = None;
    for _ in 0..1_000 {
        if let Err(e) = router.scatter(&batch) {
            first_error = Some(e);
            break;
        }
    }
    let err = match first_error {
        Some(e) => {
            drop(router);
            e
        }
        None => router
            .finish_with_stats()
            .expect_err("a vanished backend cannot report stats"),
    };
    assert!(err.to_string().starts_with("backend 1: "), "{err}");
    // The live backend's session ends (with an error) once the router is gone.
    let _ = live.join().unwrap();
}

/// A `Read` that keeps a copy of every byte it hands out.
struct Tee<R> {
    inner: R,
    seen: Vec<u8>,
}

impl<R: io::Read> io::Read for Tee<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.seen.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

/// A backend that handshakes as `slice`, records every byte the router
/// sends until `Finish`, and answers the stats request with what it
/// counted (records and cuts), so the router's accounting holds.
fn recording_backend(
    slice: GeometrySlice,
    spec: SchemeSpec,
) -> (SocketAddr, std::thread::JoinHandle<Vec<u8>>) {
    let (listener, addr) = bind();
    let thread = std::thread::spawn(move || {
        let mut tee = Tee {
            inner: fake_backend(&listener, slice, spec),
            seen: Vec::new(),
        };
        let mut counted = StatsSnapshot::default();
        let (mut bytes, mut packed) = (Vec::new(), Vec::new());
        loop {
            match wire::read_frame_header(&mut tee).expect("frame header") {
                wire::FrameHeader::Records { count, .. } => {
                    wire::read_packed_records(&mut tee, &mut bytes, &mut packed, count as usize)
                        .expect("payload");
                    counted.accesses += u64::from(count);
                }
                wire::FrameHeader::EpochCut { .. } => counted.epochs += 1,
                wire::FrameHeader::Finish => break,
                _ => {}
            }
        }
        wire::write_stats(&mut tee.inner, &counted).expect("stats reply");
        tee.seen
    });
    (addr, thread)
}

/// The scatter's wire bytes, frame by frame: each backend receives its
/// sub-stream as records frames of 8 192 records (the backend staging
/// capacity), a short frame before every epoch cut and at the end, every
/// cut to every backend, and one gapless sequence space, exactly the
/// frames `wire::encode_records` makes of a per-record route. Checked
/// for a uniform and a mixed-size partition, with batches and cuts that
/// straddle frame boundaries.
#[test]
fn scatter_frames_are_the_per_record_route_encoded() {
    const FLUSH: usize = 8_192;
    const EPOCH: u64 = 20_000;
    let spec = SchemeSpec::Sca {
        counters: 16,
        threshold: 64,
    };
    let trace = seeded_trace(50_003, 0xF4A3E);
    for partition in [
        Partition::uniform(geometry(), 2).unwrap(),
        mixed_partition(),
    ] {
        let n = partition.len();
        let (addrs, backends): (Vec<_>, Vec<_>) = partition
            .slices()
            .iter()
            .map(|&slice| recording_backend(slice, spec))
            .unzip();
        let mut router = IngestRouter::connect(
            &partition,
            &addrs,
            &RouterOptions {
                epoch_len: Some(EPOCH),
                ..Default::default()
            },
        )
        .expect("connect");
        for batch in trace.chunks(CHUNK) {
            router.scatter(batch).expect("scatter");
        }
        let report = router.finish_with_stats().expect("finish");
        assert_eq!(report.snapshot.accesses, trace.len() as u64);

        // The reference: route record by record, encode each full or cut
        // buffer as one frame.
        let mut expected = vec![Vec::new(); n];
        let mut seqs = vec![0u64; n];
        let mut pending: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut frame = Vec::new();
        let mut flush = |seq: &mut u64, pending: &mut Vec<(u32, u32)>, out: &mut Vec<u8>| {
            if !pending.is_empty() {
                wire::encode_records(&mut frame, *seq, pending).unwrap();
                out.extend_from_slice(&frame);
                *seq += 1;
                pending.clear();
            }
        };
        for (i, &(bank, row)) in trace.iter().enumerate() {
            let id = partition.route(bank);
            pending[id].push((bank, row));
            if pending[id].len() == FLUSH {
                flush(&mut seqs[id], &mut pending[id], &mut expected[id]);
            }
            if (i as u64 + 1).is_multiple_of(EPOCH) {
                for id in 0..n {
                    flush(&mut seqs[id], &mut pending[id], &mut expected[id]);
                }
                for id in 0..n {
                    let cut = wire::Frame::EpochCut { seq: seqs[id] };
                    wire::write_frame(&mut expected[id], &cut).unwrap();
                    seqs[id] += 1;
                }
            }
        }
        for id in 0..n {
            flush(&mut seqs[id], &mut pending[id], &mut expected[id]);
            wire::write_frame(&mut expected[id], &wire::Frame::StatsRequest).unwrap();
            wire::write_frame(&mut expected[id], &wire::Frame::Finish).unwrap();
        }
        for (id, backend) in backends.into_iter().enumerate() {
            let seen = backend.join().unwrap();
            assert!(
                seen == expected[id],
                "{n} slices: backend {id}'s bytes differ"
            );
        }
    }
}

/// The kill-and-resume acceptance case: a two-backend fleet streams a
/// trace prefix, one backend is "killed" (its in-memory system
/// discarded) and recovered from its checkpoint directory, the survivor
/// keeps its state, and a second session streams the rest. The final
/// merged snapshot must still be bit-identical to the uninterrupted
/// single-host run — both when the kill lands exactly on an epoch cut
/// and when it lands mid-epoch (image + trace-log replay, with the
/// router's clock re-phasing from the advertised resume positions).
#[test]
fn killed_backend_resumes_from_its_checkpoint_dir_and_the_differential_holds() {
    // Threshold low enough that the short (9 000-access) trace still
    // drives refreshes on both sides of the kill.
    let spec = SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: 32,
    };
    const EPOCH: u64 = 1_500;
    let trace = seeded_trace(9_000, 0xF1EE7);
    let mut reference = MemorySystem::new(geometry(), spec).with_epoch_length(EPOCH);
    reference.process(&trace);
    assert!(reference.stats().refresh_events > 0);

    for split in [6_000usize, 5_250] {
        let label = format!("split at {split}");
        let partition = Partition::uniform(geometry(), 2).unwrap();
        let dir = scratch_dir(&format!("resume-{split}"));
        let checkpoints = [None, Some(CheckpointConfig::new(&dir))];

        // Session 1: both backends fresh, stream the prefix.
        let systems = partition
            .slices()
            .iter()
            .map(|s| MemorySystem::for_slice(s, spec))
            .collect();
        let (report, mut systems, _) = fleet_session(
            &partition,
            systems,
            &checkpoints,
            &trace[..split],
            2,
            Some(EPOCH),
        );
        assert_eq!(report.snapshot.accesses, split as u64, "{label}");
        assert_eq!(report.snapshot.epochs, split as u64 / EPOCH, "{label}");

        // "Kill" backend 1: drop its system, recover a fresh twin from
        // the directory. The survivor's system carries over untouched.
        let dead = systems.pop().unwrap();
        let killed_at = (dead.accesses(), dead.epochs());
        drop(dead);
        let mut recovered = MemorySystem::for_slice(&partition.slices()[1], spec);
        let state = resume_from_dir(&mut recovered, &dir)
            .unwrap_or_else(|e| panic!("{label}: resume: {e}"));
        assert!(state.from_checkpoint, "{label}: no image was published");
        assert_eq!(
            (recovered.accesses(), recovered.epochs()),
            killed_at,
            "{label}: recovery missed the killed backend's position"
        );
        // A *clean* session end publishes a final image even mid-epoch,
        // so nothing needs replaying here. The tier-1 fleet smoke also
        // ends its first session cleanly, so it replays nothing either;
        // the hard-kill path (image + a trace-log tail holding stream
        // cut markers, across the rename-then-reset window) is covered
        // by the `checkpoint.rs` unit tests in the engine crate.
        assert_eq!(state.replayed, 0, "{label}: unexpected log tail");
        systems.push(recovered);

        // Session 2: the resumed fleet streams the tail; the router's
        // epoch clock re-phases from the handshake positions.
        let (report, _, _) = fleet_session(
            &partition,
            systems,
            &checkpoints,
            &trace[split..],
            2,
            Some(EPOCH),
        );
        assert_snapshot_matches(&report.snapshot, &reference, &label);
        std::fs::remove_dir_all(&dir).expect("scratch dir cleanup");
    }
}

/// A backend advertising a slice other than its fleet slot is refused at
/// the router's handshake with a typed error.
#[test]
fn router_refuses_a_backend_advertising_the_wrong_slice() {
    let spec = SchemeSpec::Sca {
        counters: 16,
        threshold: 64,
    };
    // The fleet expects one full-geometry backend; the backend serves
    // only the lower half of the bank space.
    let partition = Partition::uniform(geometry(), 1).unwrap();
    let (listener, addr) = bind();
    let backend = std::thread::spawn(move || {
        let half = *Partition::uniform(geometry(), 2)
            .unwrap()
            .slices()
            .first()
            .unwrap();
        let mut system = MemorySystem::for_slice(&half, spec);
        serve_backend(&listener, &mut system, &ServeOptions::default())
    });
    let err = IngestRouter::connect(&partition, &[addr], &RouterOptions::default())
        .expect_err("wrong slice must be refused");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("fleet slot"), "{err}");
    // The backend's session errors (or ends) once the router hangs up.
    let _ = backend.join().unwrap();
}

/// A backend firing its own epoch boundaries cannot join a fleet: the
/// router owns the clock.
#[test]
fn router_refuses_a_clocked_backend() {
    let spec = SchemeSpec::Sca {
        counters: 16,
        threshold: 64,
    };
    let partition = Partition::uniform(geometry(), 1).unwrap();
    let (listener, addr) = bind();
    let backend = std::thread::spawn(move || {
        let mut system = MemorySystem::new(geometry(), spec).with_epoch_length(1_000);
        serve_backend(&listener, &mut system, &ServeOptions::default())
    });
    let err = IngestRouter::connect(&partition, &[addr], &RouterOptions::default())
        .expect_err("clocked backend must be refused");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("clockless"), "{err}");
    let _ = backend.join().unwrap();
}

/// Backends resumed from checkpoints of different epoch cuts are an
/// inconsistent fleet; the mismatch is refused at connection time.
#[test]
fn router_refuses_backends_resumed_from_different_cuts() {
    let spec = SchemeSpec::Sca {
        counters: 16,
        threshold: 64,
    };
    let partition = Partition::uniform(geometry(), 2).unwrap();
    let binds: Vec<_> = (0..2).map(|_| bind()).collect();
    let addrs: Vec<SocketAddr> = binds.iter().map(|(_, a)| *a).collect();
    let backends: Vec<_> = binds
        .into_iter()
        .zip(partition.slices().to_vec())
        .enumerate()
        .map(|(id, ((listener, _), slice))| {
            std::thread::spawn(move || {
                let mut system = MemorySystem::for_slice(&slice, spec);
                if id == 1 {
                    // Backend 1 stands one epoch ahead of backend 0 — the
                    // shape of checkpoints taken at different cuts.
                    system.end_epoch();
                }
                serve_backend(&listener, &mut system, &ServeOptions::default())
            })
        })
        .collect();
    let err = IngestRouter::connect(&partition, &addrs, &RouterOptions::default())
        .expect_err("mismatched resume positions must be refused");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("same cut"), "{err}");
    for backend in backends {
        let _ = backend.join().unwrap();
    }
}

/// When the router fires its own epoch boundaries, a client-driven cut
/// is refused at the client's connection (same rule as a clocked `catd`).
#[test]
fn a_clocked_router_refuses_stream_epoch_cuts_at_the_connection() {
    let spec = SchemeSpec::Sca {
        counters: 16,
        threshold: 64,
    };
    let partition = Partition::uniform(geometry(), 1).unwrap();
    let (backend_listener, backend_addr) = bind();
    let backend = std::thread::spawn(move || {
        let mut system = MemorySystem::new(geometry(), spec);
        serve_backend(&backend_listener, &mut system, &ServeOptions::default())
    });
    let (router_listener, router_addr) = bind();
    let partition_for_router = partition.clone();
    let router = std::thread::spawn(move || {
        serve_fleet(
            &router_listener,
            &partition_for_router,
            &[backend_addr],
            &RouterOptions {
                epoch_len: Some(1_000),
                ..Default::default()
            },
        )
    });
    let client = std::thread::spawn(move || {
        let mut client = IngestClient::connect(router_addr, 0).expect("connect router");
        let _ = client.send_cut();
        let _ = client.finish();
    });
    let err = router
        .join()
        .unwrap()
        .expect_err("stream cut must be refused");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("epoch boundaries"), "{err}");
    client.join().unwrap();
    let _ = backend.join().unwrap();
}

/// The scatter stage refuses a manual cut when the router has a clock —
/// and a zero-record fleet session still finishes with exact accounting.
#[test]
fn a_clocked_ingest_router_refuses_manual_cuts() {
    let spec = SchemeSpec::Sca {
        counters: 16,
        threshold: 64,
    };
    let partition = Partition::uniform(geometry(), 1).unwrap();
    let (listener, addr) = bind();
    let backend = std::thread::spawn(move || {
        let mut system = MemorySystem::new(geometry(), spec);
        serve_backend(&listener, &mut system, &ServeOptions::default())
    });
    let mut router = IngestRouter::connect(
        &partition,
        &[addr],
        &RouterOptions {
            epoch_len: Some(500),
            ..Default::default()
        },
    )
    .expect("connect fleet");
    let err = router
        .cut()
        .expect_err("clocked router must refuse manual cuts");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("epoch boundaries"), "{err}");
    let report = router.finish_with_stats().expect("empty session finishes");
    assert_eq!(report.snapshot.accesses, 0);
    assert_eq!(report.snapshot.epochs, 0);
    let _ = backend.join().unwrap();
}

/// A sliced backend refuses records outside its slice at the connection
/// — the wire-level half of the `GeometrySlice` validation story.
#[test]
fn a_sliced_backend_refuses_out_of_slice_records_at_the_connection() {
    let spec = SchemeSpec::Sca {
        counters: 16,
        threshold: 64,
    };
    let partition = Partition::uniform(geometry(), 2).unwrap();
    let lower = partition.slices()[0];
    let (listener, addr) = bind();
    let backend = std::thread::spawn(move || {
        let mut system = MemorySystem::for_slice(&lower, spec);
        serve_backend(&listener, &mut system, &ServeOptions::default())
    });
    let client = std::thread::spawn(move || {
        let mut client = IngestClient::connect(addr, 0).expect("connect backend");
        // The handshake advertises the slice…
        assert_eq!(client.server_hello().slice_start, 0);
        assert_eq!(client.server_hello().slice_banks, BANKS / 2);
        // …and bank 8 (the first bank of the *other* slice) is refused.
        let _ = client.send(&[(BANKS / 2, 0)]);
        let _ = client.finish();
    });
    let err = backend
        .join()
        .unwrap()
        .expect_err("out-of-slice record must error");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("out of range"), "{err}");
    client.join().unwrap();
}

/// Fleet-layout errors that need no live backend: a backend list that
/// does not match the partition, and a zero-length epoch clock.
#[test]
fn fleet_configuration_errors_are_typed() {
    let partition = Partition::uniform(geometry(), 2).unwrap();
    let err = IngestRouter::connect(&partition, &["127.0.0.1:9"], &RouterOptions::default())
        .expect_err("one address for two slices");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("2-slice partition"), "{err}");

    let err = IngestRouter::connect(
        &partition,
        &["127.0.0.1:9", "127.0.0.1:9"],
        &RouterOptions {
            epoch_len: Some(0),
            ..Default::default()
        },
    )
    .expect_err("epoch length zero");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("clockless"), "{err}");
}
