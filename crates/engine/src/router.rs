//! The fleet router: one process fronting N sliced `catd` backends
//! (`DESIGN.md §12`).
//!
//! [`IngestRouter`] consumes a merged client record stream and re-deals
//! it by slice: each record goes to the backend owning its global bank,
//! over **one producer connection per backend** — so every backend sees a
//! single, gapless sequence space and its `(seq, producer)` merge
//! degenerates to FIFO. Per-backend sub-streams preserve the merged
//! stream's relative record order, which is all the determinism contract
//! needs: a backend's slice engines never observe banks outside the
//! slice, so dropping the other slices' records from the stream is
//! unobservable to them (`DESIGN.md §7`).
//!
//! The scatter is **packed end to end** ([`IngestRouter::scatter_packed`]).
//! A merged batch arrives as the lanes' packed words
//! ([`crate::ingest::IngestConsumer::next_event_with`]), which are the
//! wire's record bytes. The batch is range-checked once against the union
//! geometry (banks *and* rows, the rule every connection reader and the
//! system drain apply), so a bad record refuses the whole batch before any
//! of it is forwarded. Each word is then appended, untouched, to its
//! backend's reusable records frame: header, then packed payload, so
//! filling the buffer *is* the encode. The backend key is `bank >> shift`
//! for a uniform partition and a binary search over the slices for a
//! mixed one, chosen once per run of words between cuts, not per record.
//! A frame goes out when it holds 8 192 records (a backend's staging
//! capacity), at every epoch cut and at session end. Every error raised
//! while talking to a backend names it.
//!
//! The router owns the **epoch clock**. Backends run clockless (their
//! handshake must advertise no epoch length) and receive
//! [`crate::wire::Frame::EpochCut`] at every global epoch boundary — either
//! counted off by the router's own `epoch_len` or forwarded from the
//! client stream. Every backend gets every cut, at the exact record
//! position the single-host system would have cut, so per-backend epoch
//! counters agree and per-epoch accounting stays bit-identical.
//!
//! At session end the router gathers every backend's
//! [`StatsSnapshot`] and merges them **in slice-id order**: counters sum
//! (`max_depth_touched` takes the max), footprints sum, epochs must
//! agree. Slices partition the bank space, so the merge over any slicing
//! equals the unpartitioned totals exactly — associativity of the merge
//! is what makes the fleet ≡ single-host differential hold bit for bit.
//!
//! [`serve`] wraps all of that in the `catd`-shaped TCP loop: accept N
//! client producers, advertise the **union** geometry, drain the
//! deterministic merge through the router, reply the merged snapshot to
//! stats requesters. The `catd_router` example is this function behind a
//! command line.

use std::io;
use std::net::{TcpListener, ToSocketAddrs};

use crate::ingest::{run_session, IngestClient, IngestEvent};
use crate::wire::{self, bad, check_records, ServerHello, StatsSnapshot};
use crate::{epoch_cuts, GeometrySlice, MemorySystem, Partition};

use cat_core::SchemeStats;

/// Options for [`IngestRouter::connect`] and [`serve`].
#[derive(Clone, Debug)]
pub struct RouterOptions {
    /// Client connections [`serve`] accepts; the session ends when all of
    /// them finish. (Ignored by [`IngestRouter::connect`].)
    pub producers: usize,
    /// Per-client lane bound, in records (see [`crate::ingest`]).
    /// (Ignored by [`IngestRouter::connect`].)
    pub queue_capacity: usize,
    /// The router's epoch clock: `Some(n)` cuts every backend after every
    /// `n` records of the merged stream (and refuses client cuts); `None`
    /// runs clockless and forwards client [`crate::wire::Frame::EpochCut`]s.
    pub epoch_len: Option<u64>,
    /// Connection attempts per backend ([`IngestClient::connect_with_retry`]):
    /// a fleet usually starts all at once, so the router must tolerate
    /// backends that have not bound their listeners yet.
    pub connect_attempts: u32,
}

/// Records buffered per backend before a flush becomes a wire frame: a
/// backend's staging capacity, so one frame fills one staging flush.
const FLUSH_RECORDS: usize = MemorySystem::DEFAULT_STREAM_CAPACITY;

/// Bytes of a full scatter frame: the records header and
/// [`FLUSH_RECORDS`] packed records.
const FULL_FRAME_BYTES: usize = wire::RECORDS_HEADER_BYTES + FLUSH_RECORDS * wire::RECORD_BYTES;

const _: () = assert!(FLUSH_RECORDS <= wire::MAX_RECORDS_PER_FRAME as usize);

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            producers: 1,
            queue_capacity: 1 << 16,
            epoch_len: None,
            connect_attempts: 30,
        }
    }
}

/// What one router session did.
#[derive(Clone, Debug)]
pub struct RouterReport {
    /// The merged fleet snapshot (also what stats requesters were sent):
    /// bit-identical to a single-host [`crate::MemorySystem`] run on the
    /// union geometry over the same merged stream.
    pub snapshot: StatsSnapshot,
    /// Each backend's own snapshot, in slice-id order.
    pub per_backend: Vec<StatsSnapshot>,
    /// Client connections that requested (and were sent) the snapshot.
    pub stats_served: usize,
}

/// Splits a record stream across the backends of a [`Partition`] — the
/// fleet scatter stage described in the [module docs](self). Drive it
/// with [`scatter_packed`](Self::scatter_packed) or its `(bank, row)`
/// adapter [`scatter`](Self::scatter) (+ [`cut`](Self::cut) when clockless),
/// then [`finish_with_stats`](Self::finish_with_stats) to gather and
/// merge the fleet's snapshots.
pub struct IngestRouter {
    partition: Partition,
    /// The union geometry as one slice: the range every scattered record
    /// must fall in.
    union: GeometrySlice,
    links: Links,
    /// Epoch cut positions inside the batch being scattered.
    cuts: Vec<usize>,
    epoch_len: Option<u64>,
    accesses: u64,
    epochs: u64,
    /// Fleet position when the session opened (summed/agreed from the
    /// backend handshakes): `0` for a fresh fleet, the recovered position
    /// when backends were killed and resumed (`DESIGN.md §11`/`§12`).
    start_accesses: u64,
    start_epochs: u64,
    spec: String,
}

impl std::fmt::Debug for IngestRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestRouter")
            .field("slices", &self.partition.len())
            .field("spec", &self.spec)
            .field("epoch_len", &self.epoch_len)
            .field("accesses", &self.accesses)
            .field("epochs", &self.epochs)
            .field("start_accesses", &self.start_accesses)
            .field("start_epochs", &self.start_epochs)
            .finish_non_exhaustive()
    }
}

impl IngestRouter {
    /// Connects one producer link to each backend (with bounded retry —
    /// [`RouterOptions::connect_attempts`]) and validates every handshake
    /// against the partition: backend `i` must advertise the partition's
    /// geometry, exactly slice `i`, the same scheme spec as its peers,
    /// and **no epoch clock of its own** (the router owns the clock).
    ///
    /// # Errors
    ///
    /// Connection errors once the retry budget is exhausted, and
    /// [`io::ErrorKind::InvalidData`] for a backend-count/partition
    /// mismatch or any handshake that contradicts the fleet layout.
    pub fn connect<A: ToSocketAddrs>(
        partition: &Partition,
        backends: &[A],
        options: &RouterOptions,
    ) -> io::Result<Self> {
        if backends.len() != partition.len() {
            return Err(bad(format!(
                "{} backend address(es) for a {}-slice partition",
                backends.len(),
                partition.len()
            )));
        }
        if options.epoch_len == Some(0) {
            return Err(bad("epoch length 0: use None to run clockless"));
        }
        let mut clients = Vec::with_capacity(backends.len());
        let mut spec: Option<String> = None;
        let mut start_accesses = 0u64;
        let mut start_epochs: Option<u64> = None;
        for (id, (addr, slice)) in backends.iter().zip(partition.slices()).enumerate() {
            // The router is each backend's only producer: producer id 0,
            // one gapless sequence space per backend.
            let client = IngestClient::connect_with_retry(addr, 0, options.connect_attempts)
                .map_err(named(id))?;
            let hello = client.server_hello();
            if hello.geometry != *partition.geometry() {
                return Err(bad(format!(
                    "backend {id}: serves {:?}, the fleet partition covers {:?}",
                    hello.geometry,
                    partition.geometry()
                )));
            }
            if hello.slice_start != slice.start_bank() || hello.slice_banks != slice.banks() {
                return Err(bad(format!(
                    "backend {id}: owns banks {}..{}, fleet slot {id} is {slice}",
                    hello.slice_start,
                    hello.slice_start + hello.slice_banks
                )));
            }
            if let Some(n) = hello.epoch_len {
                return Err(bad(format!(
                    "backend {id}: fires its own epoch boundaries (length {n}); fleet \
                     backends must run clockless — the router owns the epoch clock"
                )));
            }
            match &spec {
                None => spec = Some(hello.spec.clone()),
                Some(first) if *first != hello.spec => {
                    return Err(bad(format!(
                        "backend {id}: serves spec {:?}, backend 0 serves {first:?}",
                        hello.spec
                    )));
                }
                Some(_) => {}
            }
            // Every global cut reaches every backend, so a consistent
            // fleet — fresh or resumed — agrees on its epoch counter; the
            // access counters are per-slice and sum to the global stream
            // position, which phases the router's epoch clock below.
            match start_epochs {
                None => start_epochs = Some(hello.epochs),
                Some(first) if first != hello.epochs => {
                    return Err(bad(format!(
                        "backend {id}: resumed at epoch {}, backend 0 at epoch {first} — \
                         the fleet's checkpoints are not from the same cut",
                        hello.epochs
                    )));
                }
                Some(_) => {}
            }
            start_accesses += hello.accesses;
            clients.push(client);
        }
        let spec = spec.ok_or_else(|| bad("a partition has at least one slice"))?;
        let start_epochs = start_epochs.unwrap_or(0);
        let union = GeometrySlice::full(*partition.geometry()).map_err(|e| bad(e.to_string()))?;
        Ok(IngestRouter {
            partition: partition.clone(),
            union,
            links: Links::new(clients),
            cuts: Vec::new(),
            epoch_len: options.epoch_len,
            accesses: 0,
            epochs: 0,
            start_accesses,
            start_epochs,
            spec,
        })
    }

    /// The scheme spec every backend serves (validated identical at
    /// connection time).
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// The router's epoch clock ([`RouterOptions::epoch_len`]).
    pub fn epoch_len(&self) -> Option<u64> {
        self.epoch_len
    }

    /// Records scattered this session.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Epoch cuts sent to the fleet this session.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The fleet's global stream position: what the backends held when
    /// the session opened (their handshakes) plus what this session
    /// scattered.
    pub fn fleet_accesses(&self) -> u64 {
        self.start_accesses + self.accesses
    }

    /// The fleet's epoch counter (session-opening value plus this
    /// session's cuts).
    pub fn fleet_epochs(&self) -> u64 {
        self.start_epochs + self.epochs
    }

    /// Routes `records` (global `(bank, row)` pairs, in merged-stream
    /// order) to the backends owning their banks: packs them and runs
    /// [`scatter_packed`](Self::scatter_packed), with the same errors.
    ///
    /// # Errors
    ///
    /// As [`scatter_packed`](Self::scatter_packed).
    pub fn scatter(&mut self, records: &[(u32, u32)]) -> io::Result<()> {
        let packed: Vec<u64> = records
            .iter()
            .map(|&(bank, row)| wire::pack_record(bank, row))
            .collect();
        self.scatter_packed(&packed)
    }

    /// Routes a merged batch of packed records ([`wire::pack_record`]) to
    /// the backends owning their banks, appending each word untouched to
    /// its backend's records frame ([module docs](self)). With an epoch
    /// clock, every backend is cut at the exact record position the
    /// single-host system would have fired its boundary — mid-slice when
    /// the boundary lands inside `words`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for a bank outside the partitioned
    /// geometry or a row past its bank's last: the batch is corrupt and
    /// nothing of it is forwarded. A backend socket error, naming the
    /// backend.
    pub fn scatter_packed(&mut self, words: &[u64]) -> io::Result<()> {
        check_records(words.iter().map(|&w| wire::unpack_record(w)), &self.union)?;
        // The clock runs on the fleet position, so a resumed fleet sitting
        // mid-epoch (a replayed trace-log tail) first completes the epoch
        // in progress, exactly where the single host would have cut.
        let mut cuts = std::mem::take(&mut self.cuts);
        epoch_cuts(
            words.len(),
            self.fleet_accesses(),
            self.epoch_len,
            &mut cuts,
        );
        let mut done = 0;
        for (i, end) in cuts.iter().copied().chain([words.len()]).enumerate() {
            self.links.place(&self.partition, &words[done..end])?;
            self.accesses += (end - done) as u64;
            done = end;
            if i < cuts.len() {
                self.cut_fleet()?;
            }
        }
        self.cuts = cuts;
        Ok(())
    }

    /// Places an epoch boundary at the current position of the merged
    /// stream — the forwarding path for client-driven cuts when the
    /// router runs clockless.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] if the router has its own epoch
    /// clock (positions would drift from the clock's), or any backend
    /// socket error.
    pub fn cut(&mut self) -> io::Result<()> {
        if self.epoch_len.is_some() {
            return Err(bad(
                "stream epoch cut, but the router fires its own epoch boundaries",
            ));
        }
        self.cut_fleet()
    }

    /// Flushes every scatter frame, then sends [`crate::wire::Frame::EpochCut`]
    /// to **every** backend: each slice cuts at the same global stream
    /// position, keeping per-epoch accounting aligned across the fleet.
    fn cut_fleet(&mut self) -> io::Result<()> {
        for id in 0..self.links.clients.len() {
            self.links.flush(id)?;
            self.links.clients[id].send_cut().map_err(named(id))?;
        }
        self.epochs += 1;
        Ok(())
    }

    /// Flushes the scatter buffers, finishes every backend session with a
    /// stats request, and merges the fleet's snapshots in slice-id order
    /// (see the [module docs](self) for why the merge is exact).
    ///
    /// # Errors
    ///
    /// Backend socket errors, and [`io::ErrorKind::InvalidData`] if the
    /// fleet's accounting disagrees with the router's (lost records, or a
    /// backend whose epoch count drifted from the shared clock).
    pub fn finish_with_stats(mut self) -> io::Result<RouterReport> {
        for id in 0..self.links.clients.len() {
            self.links.flush(id)?;
        }
        let mut per_backend = Vec::with_capacity(self.links.clients.len());
        for (id, client) in self.links.clients.into_iter().enumerate() {
            per_backend.push(client.finish_with_stats().map_err(named(id))?);
        }
        let fleet_epochs = self.start_epochs + self.epochs;
        let mut merged = StatsSnapshot {
            accesses: 0,
            epochs: fleet_epochs,
            stats: SchemeStats::default(),
            banks: 0,
            materialized_banks: 0,
            scheme_bytes: 0,
        };
        for (id, snap) in per_backend.iter().enumerate() {
            if snap.epochs != fleet_epochs {
                return Err(bad(format!(
                    "backend {id}: reports {} epochs, the fleet clock stands at {fleet_epochs}",
                    snap.epochs
                )));
            }
            merged.accesses += snap.accesses;
            merged.stats.merge(&snap.stats);
            merged.banks += snap.banks;
            merged.materialized_banks += snap.materialized_banks;
            merged.scheme_bytes += snap.scheme_bytes;
        }
        if merged.accesses != self.start_accesses + self.accesses {
            return Err(bad(format!(
                "fleet reports {} accesses, the router accounts for {} \
                 ({} at session open + {} scattered)",
                merged.accesses,
                self.start_accesses + self.accesses,
                self.start_accesses,
                self.accesses
            )));
        }
        Ok(RouterReport {
            snapshot: merged,
            per_backend,
            stats_served: 0,
        })
    }
}

/// The router's sending side: one producer link per backend, and the
/// records frame each is filling. The frames sit back to back in one
/// arena, [`FULL_FRAME_BYTES`] apiece (header room, then packed payload),
/// and `ends[id]` is where backend `id`'s payload ends. Absolute cursors
/// into one buffer keep the scatter loop to one load, one store and one
/// cursor update per record.
struct Links {
    clients: Vec<IngestClient>,
    frames: Vec<u8>,
    ends: Vec<usize>,
}

impl Links {
    fn new(clients: Vec<IngestClient>) -> Self {
        let ends = (0..clients.len()).map(Self::empty).collect();
        Links {
            frames: vec![0; clients.len() * FULL_FRAME_BYTES],
            ends,
            clients,
        }
    }

    /// Where backend `id`'s frame ends while it holds no records.
    fn empty(id: usize) -> usize {
        id * FULL_FRAME_BYTES + wire::RECORDS_HEADER_BYTES
    }

    /// Appends each of `words` to the frame of the backend owning its
    /// bank, choosing the key once for the whole run of words.
    fn place(&mut self, partition: &Partition, words: &[u64]) -> io::Result<()> {
        match partition.uniform_shift() {
            Some(shift) => self.place_keyed(words, |bank| (bank >> shift) as usize),
            None => self.place_keyed(words, |bank| {
                partition.slices().partition_point(|s| s.end_bank() <= bank)
            }),
        }
    }

    /// The scatter loop: one key, one 8-byte store and one fullness check
    /// per word. The words were range-checked, so every key is a backend.
    fn place_keyed(&mut self, words: &[u64], key: impl Fn(u32) -> usize) -> io::Result<()> {
        for &word in words {
            let (bank, _) = wire::unpack_record(word);
            let id = key(bank);
            let end = self.ends[id];
            self.frames[end..end + wire::RECORD_BYTES].copy_from_slice(&word.to_le_bytes());
            self.ends[id] = end + wire::RECORD_BYTES;
            if self.ends[id] == (id + 1) * FULL_FRAME_BYTES {
                self.flush(id)?;
            }
        }
        Ok(())
    }

    /// Seals and sends backend `id`'s frame if it holds any records, and
    /// empties it.
    fn flush(&mut self, id: usize) -> io::Result<()> {
        if self.ends[id] > Self::empty(id) {
            let frame = &mut self.frames[id * FULL_FRAME_BYTES..self.ends[id]];
            self.clients[id].send_frame(frame).map_err(named(id))?;
            self.ends[id] = Self::empty(id);
        }
        Ok(())
    }
}

/// Prefixes an error with the backend it came from.
fn named(id: usize) -> impl FnOnce(io::Error) -> io::Error {
    move |e| io::Error::new(e.kind(), format!("backend {id}: {e}"))
}

/// Serves one fleet session over TCP: connects to the `backends` (one
/// per partition slice), then accepts
/// [`producers`](RouterOptions::producers) client connections exactly
/// like [`crate::ingest::serve`] — advertising the **union** geometry,
/// the backends' scheme spec, and the router's epoch clock — and drains
/// the deterministic client merge through an [`IngestRouter`]. Clients
/// cannot tell a fleet from a single host: same wire handshake, same
/// validation, and a bit-identical final snapshot.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] before any backend is connected if
/// `producers` or `queue_capacity` is zero (the same refusal as
/// [`crate::ingest::serve`]); backend connection/handshake errors
/// ([`IngestRouter::connect`]), accept/handshake errors, the first client
/// connection's protocol error, or a fleet accounting mismatch at session
/// end.
pub fn serve<A: ToSocketAddrs>(
    listener: &TcpListener,
    partition: &Partition,
    backends: &[A],
    options: &RouterOptions,
) -> io::Result<RouterReport> {
    let (mut report, stats_served) = run_session(
        listener,
        (options.producers, options.queue_capacity),
        // The router never checkpoints itself (backends do), so client
        // `Checkpoint` frames are refused with a typed error.
        None,
        || {
            // Backends first: a misconfigured fleet must fail before any
            // client is accepted (and a slow-starting backend is awaited
            // here, not mid-stream).
            let router = IngestRouter::connect(partition, backends, options)?;
            let geometry = *partition.geometry();
            let hello = ServerHello {
                geometry,
                slice_start: 0,
                slice_banks: geometry.total_banks(),
                spec: router.spec().to_string(),
                epoch_len: options.epoch_len,
                accesses: router.fleet_accesses(),
                epochs: router.fleet_epochs(),
            };
            Ok((hello, router))
        },
        |router, consumer| {
            // Drain the merge through the scatter stage, packed words all
            // the way; client cuts reach here only when the router runs
            // clockless.
            let mut batch = Vec::new();
            while let Some(event) = consumer.next_event_with(|words| batch.extend_from_slice(words))
            {
                match event {
                    IngestEvent::Records(_) => {
                        router.scatter_packed(&batch)?;
                        batch.clear();
                    }
                    IngestEvent::EpochCut => router.cut()?,
                }
            }
            Ok(())
        },
        |router, ()| {
            // Gather the fleet and answer the stats requesters with the
            // *merged* snapshot.
            let report = router.finish_with_stats()?;
            let snapshot = report.snapshot;
            Ok((report, snapshot))
        },
    )?;
    report.stats_served = stats_served;
    Ok(report)
}
