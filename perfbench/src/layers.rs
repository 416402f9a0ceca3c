//! The traced per-layer run. Each round replays the workload's trace
//! in-process through every layer's public functions, at the batch sizes
//! the served path uses (8192-record frames, the 8192-record staging
//! capacity, the router's 8192-record flush), with a span around every
//! call. A layer's busy time is the sum of its call spans; its self cost
//! is that minus the separately measured call of the layer below on the
//! same input.

use std::hint::black_box;
use std::io::{self, Cursor};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::thread;

use catree::engine::checkpoint::{
    resume_from_dir, CheckpointConfig, CHECKPOINT_FILE, TRACE_LOG_FILE,
};
use catree::engine::ingest::{self, deal, IngestClient, IngestQueue, ServeOptions};
use catree::engine::router::{IngestRouter, RouterOptions};
use catree::engine::wire::{self, FrameHeader, StatsSnapshot};
use catree::{BankEngine, GeometrySlice, MemorySystem, Partition, SchemeInstance, SchemeStats};

use crate::clock::Stamp;
use crate::spans::{SpanId, Tracer};
use crate::workload::{snapshot_of, Kind, Workload, FRAME, PRODUCERS, SHARDS};

/// Records per `read_packed_records` call: the chunk a `catd` reader
/// thread decodes a frame payload in.
const READ_CHUNK: usize = 4096;
/// Frames encoded before they are decoded again, so the wire replay
/// holds a few MiB instead of the whole encoded trace.
const WINDOW_FRAMES: usize = 64;
/// Bytes of a trace-log header: magic, version, base access, base epoch.
const LOG_HEADER_BYTES: u64 = 4 + 2 + 8 + 8;
/// Connection attempts against an in-process listener.
const CONNECT_ATTEMPTS: u32 = 30;

/// One round's per-layer values, by metric name.
pub type Round = Vec<(&'static str, f64)>;

/// The per-layer replays of one workload.
pub struct Layers<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// Its trace.
    pub trace: &'a [(u32, u32)],
    /// The local replay at `[split, end]`.
    pub expected: &'a [StatsSnapshot; 2],
    /// Scratch directory (checkpoint directories of the traced sessions).
    pub work: &'a Path,
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// The system-layer replay target of one served unit: a whole host, or one
/// fleet backend's slice.
struct Unit {
    system: MemorySystem,
    engines: Vec<(GeometrySlice, BankEngine)>,
    /// Fleet only: the router's scatter buffer for this slice.
    pending: Vec<(u32, u32)>,
}

impl Layers<'_> {
    /// Runs every layer once, under a `layers.round` span.
    ///
    /// # Errors
    ///
    /// Any I/O failure, or a layer whose output differs from the local
    /// replay.
    pub fn round(&self, t: &mut Tracer) -> Result<Round, String> {
        let root = t.open("layers.round", None);
        let n = self.trace.len() as f64;
        let ns = |secs: f64, per: f64| secs / per * 1e9;
        let mut m: Round = Vec::new();

        let (encode_s, decode_s) = self.wire(t, root)?;
        m.push(("wire.encode_ns_per_rec", ns(encode_s, n)));
        m.push(("wire.decode_ns_per_rec", ns(decode_s, n)));

        let (merge_s, batches) = self.merge(t, root)?;
        m.push(("ingest.merge_ns_per_rec", ns(merge_s, n)));
        m.push(("ingest.batches", batches as f64));

        let (units, times, core) = self.datapath(t, root)?;
        m.push(("system.batch_ns_per_acc", ns(times[0], n)));
        m.push(("engine.ns_per_act", ns(times[1], n)));
        m.push(("core.scheme_ns_per_act", ns(times[2], n)));
        m.push(("scheme.refresh_events", core.refresh_events as f64));
        m.push(("scheme.splits", core.splits as f64));
        m.push(("scheme.sram_reads", core.sram_reads as f64));

        let bulk_s = self.bulk(t, root)?;
        m.push(("system.bulk_ns_per_acc", ns(bulk_s, n)));

        let (encode_s, restore_s, bytes) = self.images(t, root, &units)?;
        drop(units);
        m.push(("checkpoint.encode_ms", encode_s * 1e3));
        m.push(("checkpoint.restore_ms", restore_s * 1e3));
        m.push(("checkpoint.image_bytes", bytes as f64));

        let dir = self.work.join("layers-session-a");
        let _ = std::fs::remove_dir_all(&dir);
        let plain_s = self.served(t, root, "checkpoint.serve_plain", None)?;
        let logged_s = self.served(t, root, "checkpoint.serve_logged", Some(&dir))?;
        let (syncs, publishes) = self.check_session_dir(&dir)?;
        let (resume_s, replay_ns) = self.resume(t, root, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        let split = self.workload.split as f64;
        m.push(("checkpoint.resume_s", resume_s));
        m.push(("checkpoint.replay_ns_per_rec", replay_ns));
        m.push((
            "checkpoint.wal_overhead_ns_per_acc",
            ns(logged_s - plain_s, split),
        ));
        m.push(("checkpoint.wal_syncs", syncs as f64));
        m.push(("checkpoint.publishes", publishes as f64));

        let (scatter_s, merge_s) = self.router(t, root)?;
        m.push(("router.scatter_ns_per_rec", ns(scatter_s, n)));
        m.push(("router.merge_ms", merge_s * 1e3));

        let route_s = self.route(t, root)?;
        m.push(("address.route_ns_per_rec", ns(route_s, n)));

        t.close(root);
        Ok(m)
    }

    /// `wire::encode_records` per frame, then `read_frame_header` +
    /// `read_packed_records` over the encoded bytes in memory. Returns
    /// (encode, decode) busy seconds.
    fn wire(&self, t: &mut Tracer, parent: SpanId) -> Result<(f64, f64), String> {
        let layer = t.open("wire", Some(parent));
        let mut frame = Vec::new();
        let mut window = Vec::new();
        let mut payload = Vec::new();
        let mut packed = Vec::new();
        let mut seq = 0u64;
        let (mut sent, mut received, mut records) = (0u64, 0u64, 0usize);
        for span in self.trace.chunks(FRAME * WINDOW_FRAMES) {
            window.clear();
            for chunk in span.chunks(FRAME) {
                t.time("wire.encode_records", layer, || {
                    wire::encode_records(&mut frame, seq, chunk)
                })
                .map_err(err("encode"))?;
                window.extend_from_slice(&frame);
                seq += 1;
                sent = chunk.iter().fold(sent, |acc, &(bank, row)| {
                    acc.wrapping_add(wire::pack_record(bank, row))
                });
            }
            let mut r = Cursor::new(window.as_slice());
            while (r.position() as usize) < window.len() {
                let header = t
                    .time("wire.read_frame_header", layer, || {
                        wire::read_frame_header(&mut r)
                    })
                    .map_err(err("decode header"))?;
                let FrameHeader::Records { count, .. } = header else {
                    return Err(format!("decoded {header:?}, expected a Records frame"));
                };
                let mut left = count as usize;
                while left > 0 {
                    let take = left.min(READ_CHUNK);
                    t.time("wire.read_packed_records", layer, || {
                        wire::read_packed_records(&mut r, &mut payload, &mut packed, take)
                    })
                    .map_err(err("decode payload"))?;
                    received = packed.iter().fold(received, |acc, &p| acc.wrapping_add(p));
                    records += take;
                    left -= take;
                }
            }
        }
        t.close(layer);
        check(records == self.trace.len() && sent == received, || {
            format!(
                "wire round trip: {records} of {} records, checksum {received:#x} vs {sent:#x}",
                self.trace.len()
            )
        })?;
        let encode = t.child_secs(layer, "wire.encode_records");
        let decode = t.child_secs(layer, "wire.read_frame_header")
            + t.child_secs(layer, "wire.read_packed_records");
        Ok((encode, decode))
    }

    /// [`PRODUCERS`] threads `send` the dealt trace into an `IngestQueue`
    /// (the `catd` lane capacity) while this thread drains the merge with
    /// `next_batch_into`. Returns (wall seconds of the transfer, batches).
    fn merge(&self, t: &mut Tracer, parent: SpanId) -> Result<(f64, u64), String> {
        let (producers, mut consumer) =
            IngestQueue::bounded(PRODUCERS, ServeOptions::default().queue_capacity);
        let lanes = deal(self.trace, PRODUCERS, FRAME);
        let layer = t.open("ingest", Some(parent));
        let mut out = Vec::with_capacity(FRAME);
        let mut batches = 0u64;
        let mut records = 0usize;
        let mut in_order = true;
        thread::scope(|scope| {
            for (mut producer, lane) in producers.into_iter().zip(lanes) {
                scope.spawn(move || {
                    for batch in lane {
                        if producer.send(batch).is_err() {
                            return;
                        }
                    }
                });
            }
            loop {
                out.clear();
                let start = Stamp::now();
                let more = consumer.next_batch_into(&mut out);
                let end = Stamp::now();
                if !more {
                    break;
                }
                t.record("ingest.next_batch_into", Some(layer), start, end);
                in_order &= self.trace.get(records..records + out.len()) == Some(&out[..]);
                batches += 1;
                records += out.len();
            }
        });
        t.close(layer);
        check(in_order && records == self.trace.len(), || {
            format!(
                "merge delivered {records} of {} records, in order: {in_order}",
                self.trace.len()
            )
        })?;
        Ok((t.secs(layer), batches))
    }

    /// The served units of this workload, fresh: the whole host (with its
    /// epoch clock and shard count), or the fleet's two clockless slices.
    fn units(&self) -> Vec<Unit> {
        let w = self.workload;
        let systems = match w.kind {
            Kind::Serve => vec![w.reference_system().with_shards(SHARDS)],
            Kind::Fleet => self
                .partition()
                .slices()
                .iter()
                .map(|s| MemorySystem::for_slice(s, w.spec()).with_shards(SHARDS))
                .collect(),
        };
        let rows = w.config().rows_per_bank;
        systems
            .into_iter()
            .map(|system| {
                let engines = system
                    .engine_slices()
                    .iter()
                    .map(|s| {
                        let engine =
                            BankEngine::with_bank_base(w.spec(), s.banks(), rows, s.start_bank());
                        (*s, engine)
                    })
                    .collect();
                Unit {
                    system,
                    engines,
                    pending: Vec::new(),
                }
            })
            .collect()
    }

    fn partition(&self) -> Partition {
        Partition::uniform(&self.workload.config(), 2).expect("16 banks split in two")
    }

    /// Calls `step(unit, records, cuts)` for every batch the served path
    /// hands a `MemorySystem`: 8192-record staging flushes of the merged
    /// stream on one host, or — on the fleet — the router's per-slice
    /// flushes, with every slice cut at each global epoch boundary.
    /// `cuts` are epoch-boundary positions inside `records`.
    fn feed(
        &self,
        units: &mut [Unit],
        mut step: impl FnMut(&mut Unit, &[(u32, u32)], &[usize]) -> Result<(), String>,
    ) -> Result<(), String> {
        let epoch = self.workload.epoch;
        if self.workload.kind != Kind::Fleet {
            let mut position = 0u64;
            let mut cuts = Vec::new();
            for batch in self.trace.chunks(FRAME) {
                cuts.clear();
                let mut next = (position / epoch + 1) * epoch;
                while next <= position + batch.len() as u64 {
                    cuts.push((next - position) as usize);
                    next += epoch;
                }
                step(&mut units[0], batch, &cuts)?;
                position += batch.len() as u64;
            }
            return Ok(());
        }
        let partition = self.partition();
        for (i, &(bank, row)) in self.trace.iter().enumerate() {
            let unit = &mut units[partition.route(bank)];
            unit.pending.push((bank, row));
            if unit.pending.len() >= FRAME {
                let pending = std::mem::take(&mut unit.pending);
                step(unit, &pending, &[])?;
                unit.pending = pending;
                unit.pending.clear();
            }
            if (i as u64 + 1).is_multiple_of(epoch) {
                for unit in units.iter_mut() {
                    let pending = std::mem::take(&mut unit.pending);
                    step(unit, &pending, &[pending.len()])?;
                    unit.pending = pending;
                    unit.pending.clear();
                }
            }
        }
        for unit in units.iter_mut() {
            let pending = std::mem::take(&mut unit.pending);
            if !pending.is_empty() {
                step(unit, &pending, &[])?;
            }
            unit.pending = pending;
        }
        Ok(())
    }

    /// One pass over the served batches, each replayed three ways on its
    /// own state: `MemorySystem::process` (system), the per-engine
    /// `BankEngine::process_with_cuts` calls the system makes on it
    /// (engine), and the per-bank `SchemeInstance::run` replays those
    /// make (core). Returns the units (end state, for the checkpoint
    /// layer), the three busy times and the core's stats.
    fn datapath(
        &self,
        t: &mut Tracer,
        parent: SpanId,
    ) -> Result<(Vec<Unit>, [f64; 3], SchemeStats), String> {
        let w = self.workload;
        let cfg = w.config();
        let mut units = self.units();
        let mut instances: Vec<SchemeInstance> = (0..cfg.total_banks())
            .map(|bank| {
                w.spec()
                    .build_instance(cfg.rows_per_bank, bank)
                    .expect("DRCAT builds an instance")
            })
            .collect();
        let layer = t.open("datapath", Some(parent));
        let system_span = t.open("system", Some(layer));
        let engine_span = t.open("engine", Some(layer));
        let core_span = t.open("core", Some(layer));
        let mut sub = Vec::with_capacity(FRAME);
        let mut sub_cuts = Vec::new();
        let mut bank_rows: Vec<Vec<u32>> = vec![Vec::new(); cfg.total_banks() as usize];
        self.feed(&mut units, |unit, records, cuts| {
            let clocked = unit.system.epoch_length().is_some();
            t.time("system.process", system_span, || {
                if !records.is_empty() {
                    unit.system.process(records);
                }
                if !clocked && !cuts.is_empty() {
                    unit.system.end_epoch();
                }
            });
            for (slice, engine) in unit.engines.iter_mut() {
                sub.clear();
                sub_cuts.clear();
                let mut c = 0;
                for (i, &(bank, row)) in records.iter().enumerate() {
                    while c < cuts.len() && cuts[c] == i {
                        sub_cuts.push(sub.len());
                        c += 1;
                    }
                    if slice.contains(bank) {
                        sub.push((bank - slice.start_bank(), row));
                    }
                }
                sub_cuts.extend(std::iter::repeat_n(sub.len(), cuts.len() - c));
                if sub.is_empty() && sub_cuts.is_empty() {
                    continue;
                }
                t.time("engine.process_with_cuts", engine_span, || {
                    engine.process_with_cuts(&sub, &sub_cuts)
                });
                let banks = slice.start_bank() as usize..slice.end_bank() as usize;
                let mut start = 0;
                let ends = sub_cuts.iter().map(|&e| (e, true));
                for (end, boundary) in ends.chain([(sub.len(), false)]) {
                    if end == start && !boundary {
                        continue;
                    }
                    for rows in &mut bank_rows[banks.clone()] {
                        rows.clear();
                    }
                    for &(bank, row) in &sub[start..end] {
                        bank_rows[slice.start_bank() as usize + bank as usize].push(row);
                    }
                    let rows_of = &bank_rows;
                    let replay = &mut instances[banks.clone()];
                    let first = banks.start;
                    t.time("core.run", core_span, || {
                        for (k, scheme) in replay.iter_mut().enumerate() {
                            let rows = &rows_of[first + k];
                            if !rows.is_empty() {
                                scheme.run(rows, |_| {});
                            }
                        }
                        if boundary {
                            for scheme in replay.iter_mut() {
                                scheme.on_epoch_end();
                            }
                        }
                    });
                    start = end;
                }
            }
            Ok(())
        })?;
        t.close(core_span);
        t.close(engine_span);
        t.close(system_span);
        t.close(layer);

        let expected = &self.expected[1];
        let mut system_stats = SchemeStats::default();
        let mut engine_stats = SchemeStats::default();
        let mut accesses = 0;
        for unit in &units {
            system_stats.merge(&unit.system.stats());
            accesses += unit.system.accesses();
            check(unit.system.epochs() == expected.epochs, || {
                format!(
                    "system layer fired {} epochs, expected {}",
                    unit.system.epochs(),
                    expected.epochs
                )
            })?;
            for (_, engine) in &unit.engines {
                engine_stats.merge(&engine.stats());
            }
        }
        let mut core_stats = SchemeStats::default();
        for scheme in &instances {
            core_stats.merge(scheme.stats());
        }
        for (layer, stats) in [
            ("system", &system_stats),
            ("engine", &engine_stats),
            ("core", &core_stats),
        ] {
            check(*stats == expected.stats, || {
                format!(
                    "{layer} layer replay differs from the reference: {stats:?} vs {:?}",
                    expected.stats
                )
            })?;
        }
        check(accesses == expected.accesses, || {
            format!(
                "system layer took {accesses} accesses, expected {}",
                expected.accesses
            )
        })?;
        let times = [
            t.child_secs(system_span, "system.process"),
            t.child_secs(engine_span, "engine.process_with_cuts"),
            t.child_secs(core_span, "core.run"),
        ];
        Ok((units, times, core_stats))
    }

    /// `MemorySystem::process` on the whole trace as one batch (on the
    /// fleet: each slice's whole share of each epoch). Returns busy
    /// seconds.
    fn bulk(&self, t: &mut Tracer, parent: SpanId) -> Result<f64, String> {
        let mut units = self.units();
        let layer = t.open("system.bulk", Some(parent));
        if self.workload.kind == Kind::Fleet {
            let partition = self.partition();
            for segment in self.trace.chunks(self.workload.epoch as usize) {
                for unit in units.iter_mut() {
                    unit.pending.clear();
                }
                for &(bank, row) in segment {
                    units[partition.route(bank)].pending.push((bank, row));
                }
                let boundary = segment.len() as u64 == self.workload.epoch;
                for unit in units.iter_mut() {
                    t.time("system.process", layer, || {
                        unit.system.process(&unit.pending);
                        if boundary {
                            unit.system.end_epoch();
                        }
                    });
                }
            }
        } else {
            let system = &mut units[0].system;
            t.time("system.process", layer, || system.process(self.trace));
        }
        t.close(layer);
        let mut stats = SchemeStats::default();
        for unit in &units {
            stats.merge(&unit.system.stats());
        }
        check(stats == self.expected[1].stats, || {
            "bulk system replay differs from the reference".to_string()
        })?;
        Ok(t.child_secs(layer, "system.process"))
    }

    /// `MemorySystem::checkpoint` of every unit's end state, and
    /// `restore` of each image into a fresh system. Returns (encode,
    /// restore) busy seconds and the summed image bytes.
    fn images(
        &self,
        t: &mut Tracer,
        parent: SpanId,
        units: &[Unit],
    ) -> Result<(f64, f64, usize), String> {
        let layer = t.open("checkpoint.image", Some(parent));
        let mut bytes = 0;
        for (unit, mut fresh) in units.iter().zip(self.units()) {
            let image = t
                .time("checkpoint.encode", layer, || unit.system.checkpoint())
                .map_err(err("checkpoint"))?;
            bytes += image.len();
            t.time("checkpoint.restore", layer, || fresh.system.restore(&image))
                .map_err(err("restore"))?;
            check(
                snapshot_of(&fresh.system) == snapshot_of(&unit.system),
                || "restored image differs from the system it was taken of".to_string(),
            )?;
        }
        t.close(layer);
        Ok((
            t.child_secs(layer, "checkpoint.encode"),
            t.child_secs(layer, "checkpoint.restore"),
            bytes,
        ))
    }

    /// One in-process `ingest::serve` session over loopback taking the
    /// trace up to the split, with or without a checkpoint directory.
    /// Returns seconds from the first frame to the last verified snapshot.
    fn served(
        &self,
        t: &mut Tracer,
        parent: SpanId,
        name: &'static str,
        checkpoint: Option<&Path>,
    ) -> Result<f64, String> {
        let w = self.workload;
        let part = &self.trace[..w.split];
        let expected = &self.expected[0];
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err("bind"))?;
        let addr = listener.local_addr().map_err(err("local addr"))?;
        let mut system = w.reference_system().with_shards(SHARDS);
        let options = ServeOptions {
            producers: PRODUCERS,
            checkpoint: checkpoint.map(CheckpointConfig::new),
            ..Default::default()
        };
        let span = t.open(name, Some(parent));
        let wall = thread::scope(|scope| -> Result<f64, String> {
            let server = scope.spawn(|| ingest::serve(&listener, &mut system, &options));
            let mut clients = Vec::with_capacity(PRODUCERS);
            for id in 0..PRODUCERS {
                clients.push(
                    IngestClient::connect_with_retry(addr, id as u32, CONNECT_ATTEMPTS)
                        .map_err(err("connect"))?,
                );
            }
            let start = Stamp::now();
            let producers: Vec<_> = clients
                .into_iter()
                .zip(deal(part, PRODUCERS, FRAME))
                .map(|(mut client, lane)| {
                    scope.spawn(move || -> io::Result<(StatsSnapshot, Stamp)> {
                        for batch in lane {
                            client.send(batch)?;
                        }
                        let snap = client.finish_with_stats()?;
                        Ok((snap, Stamp::now()))
                    })
                })
                .collect();
            let mut end = start;
            for p in producers {
                let (snap, done) = p
                    .join()
                    .map_err(|_| "producer thread panicked".to_string())?
                    .map_err(err("stream"))?;
                check(snap == *expected, || {
                    format!("{name}: snapshot differs from the local replay")
                })?;
                if done.secs_since(end) > 0.0 {
                    end = done;
                }
            }
            server
                .join()
                .map_err(|_| "server thread panicked".to_string())?
                .map_err(err("serve"))?;
            Ok(end.secs_since(start))
        })?;
        t.close(span);
        Ok(wall)
    }

    /// Checks the logged session's directory against the write-ahead
    /// protocol and returns its (log syncs, image publishes). Both are
    /// derived from the merged batch sizes and the epoch clock — one sync
    /// per appended batch, per log header and per batch tail re-appended
    /// after a mid-batch publish; one publish per epoch cut — and the log
    /// on disk must agree: it starts at the last publish and holds every
    /// record after it.
    fn check_session_dir(&self, dir: &Path) -> Result<(u64, u64), String> {
        let (split, epoch) = (self.workload.split as u64, self.workload.epoch);
        let mut syncs = 1; // the header of the freshly created log
        let mut publishes = 0;
        let mut position = 0u64;
        while position < split {
            let end = (position + FRAME as u64).min(split);
            syncs += 1;
            let mut cut = (position / epoch + 1) * epoch;
            while cut <= end {
                publishes += 1;
                syncs += 1 + u64::from(cut < end);
                cut += epoch;
            }
            position = end;
        }
        let log = std::fs::read(dir.join(TRACE_LOG_FILE)).map_err(err("read trace log"))?;
        let base = log
            .get(6..14)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .ok_or("trace log shorter than its header")?;
        let records = (log.len() as u64).saturating_sub(LOG_HEADER_BYTES) / 8;
        check(
            base == split / epoch * epoch && records == split - base,
            || {
                format!("trace log holds {records} records from {base}, expected the tail after the last cut")
            },
        )?;
        check(
            dir.join(CHECKPOINT_FILE).exists() == (publishes > 0),
            || "checkpoint image presence disagrees with the epoch clock".to_string(),
        )?;
        Ok((syncs, publishes))
    }

    /// `resume_from_dir` on a copy of the logged session's directory, and
    /// the image restore alone, so the log-tail replay can be separated.
    /// Returns (resume seconds, replay ns per replayed record).
    fn resume(&self, t: &mut Tracer, parent: SpanId, dir: &Path) -> Result<(f64, f64), String> {
        let w = self.workload;
        let copy = self.work.join("layers-resume-copy");
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).map_err(err("create resume copy"))?;
        for file in [CHECKPOINT_FILE, TRACE_LOG_FILE] {
            if dir.join(file).exists() {
                std::fs::copy(dir.join(file), copy.join(file)).map_err(err("copy"))?;
            }
        }
        let image = std::fs::read(copy.join(CHECKPOINT_FILE)).map_err(err("read image"))?;
        let mut system = w.reference_system().with_shards(SHARDS);
        let mut probe = w.reference_system().with_shards(SHARDS);
        let layer = t.open("checkpoint.resume", Some(parent));
        let state = t
            .time("checkpoint.resume_from_dir", layer, || {
                resume_from_dir(&mut system, &copy)
            })
            .map_err(err("resume"))?;
        t.time("checkpoint.restore_image", layer, || probe.restore(&image))
            .map_err(err("restore"))?;
        t.close(layer);
        let _ = std::fs::remove_dir_all(&copy);
        check(
            state.accesses == w.split as u64 && snapshot_of(&system) == self.expected[0],
            || {
                format!(
                    "resume recovered {state:?}, expected the local replay at {}",
                    w.split
                )
            },
        )?;
        let resume_s = t.child_secs(layer, "checkpoint.resume_from_dir");
        let restore_s = t.child_secs(layer, "checkpoint.restore_image");
        let replay_ns = (resume_s - restore_s) / state.replayed.max(1) as f64 * 1e9;
        Ok((resume_s, replay_ns))
    }

    /// `IngestRouter::scatter` of every merged batch to two in-process
    /// sliced backends (time blocked on their backpressure included), then
    /// `finish_with_stats`. Returns (scatter, merge) busy seconds.
    fn router(&self, t: &mut Tracer, parent: SpanId) -> Result<(f64, f64), String> {
        let w = self.workload;
        let partition = self.partition();
        let listeners = (0..partition.len())
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<Vec<_>>>()
            .map_err(err("bind"))?;
        let addrs = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<Vec<SocketAddr>>>()
            .map_err(err("local addr"))?;
        let mut systems: Vec<MemorySystem> = partition
            .slices()
            .iter()
            .map(|s| MemorySystem::for_slice(s, w.spec()))
            .collect();
        let layer = t.open("router", Some(parent));
        let report = thread::scope(|scope| -> Result<_, String> {
            let backends: Vec<_> = listeners
                .iter()
                .zip(systems.iter_mut())
                .map(|(l, system)| {
                    scope.spawn(move || ingest::serve(l, system, &ServeOptions::default()))
                })
                .collect();
            let options = RouterOptions {
                epoch_len: Some(w.epoch),
                ..Default::default()
            };
            let mut router = IngestRouter::connect(&partition, &addrs, &options)
                .map_err(err("router connect"))?;
            for batch in self.trace.chunks(FRAME) {
                t.time("router.scatter", layer, || router.scatter(batch))
                    .map_err(err("scatter"))?;
            }
            let report = t
                .time("router.finish_with_stats", layer, || {
                    router.finish_with_stats()
                })
                .map_err(err("finish"))?;
            for b in backends {
                b.join()
                    .map_err(|_| "backend thread panicked".to_string())?
                    .map_err(err("backend serve"))?;
            }
            Ok(report)
        })?;
        t.close(layer);
        check(report.snapshot == self.expected[1], || {
            "fleet snapshot differs from the single-host replay".to_string()
        })?;
        Ok((
            t.child_secs(layer, "router.scatter"),
            t.child_secs(layer, "router.finish_with_stats"),
        ))
    }

    /// `Partition::route` of every record. Returns busy seconds.
    fn route(&self, t: &mut Tracer, parent: SpanId) -> Result<f64, String> {
        let partition = self.partition();
        let layer = t.open("address", Some(parent));
        let mut counts = [0u64; 2];
        for batch in self.trace.chunks(FRAME) {
            let batch = black_box(batch);
            t.time("address.route", layer, || {
                for &(bank, _) in batch {
                    counts[partition.route(bank)] += 1;
                }
            });
        }
        t.close(layer);
        black_box(counts);
        check(
            counts.iter().sum::<u64>() == self.trace.len() as u64,
            || "route lost records".to_string(),
        )?;
        Ok(t.child_secs(layer, "address.route"))
    }
}
