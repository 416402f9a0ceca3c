//! The multi-producer ingestion front-end: per-producer bounded lanes
//! with a deterministic merge, and the TCP server loop (`catd`) that
//! feeds them from [`wire`]-framed socket connections. [`serve`] and the
//! fleet router's [`crate::router::serve`] run one session skeleton
//! (accept and handshake, one reader thread per connection, drain, join,
//! stats reply); `serve` drains into the system through the same loop as
//! [`MemorySystem::ingest`].
//!
//! This is the layer that turns `cat-engine` from a library you call into
//! a service you stream at — the memory-controller deployment model the
//! paper (and ABACuS/CoMeT) evaluate trackers under — without giving up
//! the determinism contract of `DESIGN.md §7`: stats stay bit-identical
//! for any producer count, arrival interleaving, shard count, or
//! staging-flush boundary. How the merge guarantees that is `DESIGN.md
//! §8`.
//!
//! ## The lanes
//!
//! Each producer owns a **lane**: one `Mutex`-guarded FIFO holding its
//! begun batches (record counts) and epoch cuts, in sequence order, and
//! the packed records ([`wire::pack_record`] — the same 8-byte layout the
//! wire carries, so the server's decode is a store, not a re-encode) as
//! owned chunks. Every lane operation moves a whole chunk: a producer
//! takes the lock once to append one, the consumer once to pop one, and
//! the consumer reads it outside the lock. Two `Condvar`s per lane carry
//! the waits: the consumer's for an event or records, the producer's for
//! room. Each side signals the other only while a flag in the FIFO says
//! it waits, so a lane in steady state makes no futex wake.
//!
//! A batch's descriptor is published **before** its records, and the
//! records then stream through the lane in chunks of at most its capacity
//! — so a batch larger than the whole lane flows through it instead of
//! deadlocking, and the consumer can start merging a batch while its
//! producer is still writing it.
//!
//! ## The deterministic merge
//!
//! Each producer tags its record batches with a consecutive **sequence
//! number** (0, 1, 2, … per producer). The consumer emits batches in
//! ascending `(seq, producer)` order: sequence 0 of producer 0, sequence 0
//! of producer 1, …, sequence 1 of producer 0, and so on, waiting for a
//! lagging producer rather than reordering around it, and permanently
//! skipping producers that have finished. The merged stream is therefore a
//! pure function of *what each producer sent* — thread scheduling, arrival
//! interleaving, and lane capacity are all unobservable.
//!
//! The merge is **packed end to end**: its one core,
//! [`IngestConsumer::next_event_with`], hands each drained chunk to a
//! `&[u64]` sink as it left the lane. The fleet router forwards those
//! words to its backends without unpacking them; the `(bank, row)` views
//! ([`IngestConsumer::next_event_into`], [`IngestConsumer::next_batch_into`])
//! are thin adapters that unpack on top of it, for the system drain.
//!
//! A client that wants the merged stream to equal an original trace deals
//! it round-robin by contiguous chunk ([`deal`]): chunk `k` goes to
//! producer `k % P` as that producer's next batch. The `(seq, producer)`
//! merge inverts that deal for **every** producer count `P`, which is what
//! makes the producer count itself unobservable end to end.
//!
//! ## Backpressure
//!
//! **Lane-full blocks the producer, never the merge.** A lane buffers at
//! most `capacity` records and `LANE_EVENTS` descriptors and cuts,
//! counted apart, so a lane full of records still takes control events. A
//! producer whose next chunk does not fit waits in [`IngestProducer::send`]
//! until the consumer frees room; the consumer never skips or reorders to
//! make room. In [`serve`] the waiting sender is that connection's reader
//! thread, so the kernel's TCP flow control pushes the stall back to the
//! remote client — a fast producer cannot balloon the server's memory,
//! and a slow consumer throttles every connection. The bound is per lane
//! (not global) because the merge may *need* the lagging producer's next
//! batch while every other lane is full: a global bound would deadlock
//! exactly there.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::checkpoint::{CheckpointConfig, Wal};
use crate::wire::{self, bad, Frame, FrameHeader, ServerHello, StatsSnapshot};
use crate::{BatchOutcome, GeometrySlice, MemorySystem};

/// Batch descriptors and epoch cuts one lane buffers before its producer
/// waits. They are bounded apart from the records, so publishing one
/// never waits on record room ([module docs](self), Backpressure).
const LANE_EVENTS: usize = 1024;

/// One event of the merged ingestion stream, in deterministic
/// `(sequence, producer)` order: a record batch, or an epoch cut a
/// producer placed between its batches ([`IngestProducer::send_cut`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestEvent {
    /// A record batch; the records were appended to the caller's buffer
    /// (the count is what actually arrived — a producer dying mid-batch
    /// delivers the prefix).
    Records(usize),
    /// An epoch boundary at this exact position of the merged stream.
    EpochCut,
}

/// One producer's FIFO, guarded by [`Lane::fifo`]. No update panics
/// midway, so a poisoned lock still guards a consistent FIFO and is taken
/// over (`PoisonError::into_inner`): the `Drop` impls must finish or close
/// a lane even while another thread unwinds.
#[derive(Default)]
struct Fifo {
    /// Begun batches (as `Records` of the announced count) and cuts, in
    /// sequence order.
    events: VecDeque<IngestEvent>,
    /// Packed records written and not yet merged, in stream order.
    chunks: VecDeque<Vec<u64>>,
    /// Records in `chunks`; never above the queue's capacity.
    buffered: usize,
    /// The producer handle is gone; no further events or records.
    finished: bool,
    /// The consumer is gone; sends fail instead of waiting forever.
    closed: bool,
    /// Per side ([`CONSUMER`], [`PRODUCER`]): that side waits on the lane.
    waiting: [bool; 2],
}

/// The consumer's index in [`Fifo::waiting`]; it waits on [`Lane::filled`].
const CONSUMER: usize = 0;
/// The producer's index in [`Fifo::waiting`]; it waits on [`Lane::drained`].
const PRODUCER: usize = 1;

/// One producer's lane. Every acquisition is a `.lock()` on the `fifo`
/// field itself: the `lock-order` rule resolves receivers by field name
/// (`DESIGN.md §9`).
#[derive(Default)]
struct Lane {
    fifo: Mutex<Fifo>, // lock-order: lane
    /// Signalled when the producer adds an event or records, or finishes.
    filled: Condvar, // lock-order: lane_filled
    /// Signalled when the consumer frees room, or closes the queue.
    drained: Condvar, // lock-order: lane_drained
}

impl Lane {
    /// Locks the FIFO and, as `side`, waits until `ready` with its
    /// [`Fifo::waiting`] flag raised. The other side signals only while
    /// that flag is up, so a lane nobody waits on costs no futex wake per
    /// chunk.
    fn lock_when(&self, side: usize, ready: impl Fn(&Fifo) -> bool) -> MutexGuard<'_, Fifo> {
        let cv = if side == PRODUCER {
            &self.drained
        } else {
            &self.filled
        };
        let mut fifo = self.fifo.lock().unwrap_or_else(PoisonError::into_inner);
        while !ready(&fifo) {
            fifo.waiting[side] = true;
            fifo = cv.wait(fifo).unwrap_or_else(PoisonError::into_inner);
            fifo.waiting[side] = false;
        }
        fifo
    }
}

struct Shared {
    lanes: Box<[Lane]>,
    /// Records one lane buffers before its producer waits.
    capacity: usize,
}

/// Error returned by [`IngestProducer::send`] once the consumer is gone:
/// with no merge left to drain the lane, the send would otherwise block
/// forever. In [`serve`] this surfaces as the connection's wire error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueClosed;

impl std::fmt::Display for QueueClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ingest consumer dropped mid-stream")
    }
}

impl std::error::Error for QueueClosed {}

/// A bounded multi-producer ingestion queue — one FIFO lane per producer
/// with the deterministic `(sequence, producer)` merge described in the
/// [module docs](self).
///
/// ```
/// use cat_engine::ingest::IngestQueue;
///
/// let (mut producers, mut consumer) = IngestQueue::bounded(2, 1024);
/// let mut p1 = producers.pop().unwrap(); // producer 1
/// let mut p0 = producers.pop().unwrap(); // producer 0
/// // Arrival order is 1-before-0, but the merge is by (seq, producer):
/// p1.send(&[(1, 10)]).unwrap();
/// p1.send(&[(1, 11)]).unwrap();
/// p0.send(&[(0, 20)]).unwrap();
/// drop(p0); // finish
/// drop(p1);
/// assert_eq!(consumer.next_batch(), Some(vec![(0, 20)])); // seq 0, producer 0
/// assert_eq!(consumer.next_batch(), Some(vec![(1, 10)])); // seq 0, producer 1
/// assert_eq!(consumer.next_batch(), Some(vec![(1, 11)])); // seq 1, producer 1
/// assert_eq!(consumer.next_batch(), None);
/// ```
pub struct IngestQueue;

impl IngestQueue {
    /// Builds a queue of `producers` lanes, each bounded at exactly
    /// `capacity` buffered records (plus up to 1 024 batch descriptors and
    /// cuts, counted apart), returning the producer handles (index =
    /// producer id = merge tie-break order) and the single consumer.
    /// Batches larger than the capacity stream through the lane chunk by
    /// chunk.
    ///
    /// # Panics
    ///
    /// Panics if `producers` or `capacity` is zero.
    pub fn bounded(producers: usize, capacity: usize) -> (Vec<IngestProducer>, IngestConsumer) {
        assert!(producers >= 1, "at least one producer lane");
        assert!(capacity >= 1, "lanes must buffer records");
        let shared = Arc::new(Shared {
            lanes: (0..producers).map(|_| Lane::default()).collect(),
            capacity,
        });
        let handles = (0..producers)
            .map(|id| IngestProducer {
                shared: Arc::clone(&shared),
                id,
                sent: 0,
            })
            .collect();
        (handles, IngestConsumer { shared, turn: 0 })
    }
}

/// One producer's handle: tags batches with consecutive sequence numbers
/// and waits when its lane is full. Dropping the handle finishes the
/// lane. Methods take `&mut self`: one handle is the lane's only writer.
pub struct IngestProducer {
    shared: Arc<Shared>,
    id: usize,
    /// Batches begun so far — the next sequence number to assign.
    sent: u64,
}

impl IngestProducer {
    /// This producer's id — its tie-break rank in the merge.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Enqueues `records` as this producer's next batch and returns the
    /// sequence number it was tagged with (0, 1, 2, …). Waits while the
    /// lane is full; a batch larger than the whole capacity streams
    /// through the lane chunk by chunk rather than deadlocking.
    ///
    /// # Errors
    ///
    /// [`QueueClosed`] if the consumer has been dropped — with no merge
    /// left to drain the lane, the send would otherwise block forever.
    pub fn send(&mut self, records: &[(u32, u32)]) -> Result<u64, QueueClosed> {
        let seq = self.begin_batch(records.len())?;
        self.write_records(records)?;
        Ok(seq)
    }

    /// Publishes the descriptor of this producer's next batch — `len`
    /// records which MUST then be delivered via
    /// [`write_records`](Self::write_records) /
    /// [`write_packed`](Self::write_packed) — and returns its sequence
    /// number. Descriptor-first publication is what lets a batch larger
    /// than the lane stream through it, and lets the consumer start
    /// merging a batch while it is still being written.
    ///
    /// # Errors
    ///
    /// [`QueueClosed`] if the consumer has been dropped.
    pub fn begin_batch(&mut self, len: usize) -> Result<u64, QueueClosed> {
        self.publish(IngestEvent::Records(len))
    }

    /// Publishes an epoch-cut event at this position of the producer's
    /// stream ([`IngestEvent::EpochCut`] to the consumer) and returns the
    /// sequence number it consumed — cuts share the batch sequence space,
    /// which is what pins their position in the deterministic merge.
    ///
    /// # Errors
    ///
    /// [`QueueClosed`] if the consumer has been dropped.
    pub fn send_cut(&mut self) -> Result<u64, QueueClosed> {
        self.publish(IngestEvent::EpochCut)
    }

    /// Appends `event` to the lane, waiting while it holds
    /// [`LANE_EVENTS`] unmerged events, and assigns its sequence number.
    fn publish(&mut self, event: IngestEvent) -> Result<u64, QueueClosed> {
        let lane = &self.shared.lanes[self.id];
        let ready = |f: &Fifo| f.closed || f.events.len() < LANE_EVENTS;
        let mut fifo = lane.lock_when(PRODUCER, ready);
        if fifo.closed {
            return Err(QueueClosed);
        }
        fifo.events.push_back(event);
        if fifo.waiting[CONSUMER] {
            lane.filled.notify_one();
        }
        let seq = self.sent;
        self.sent += 1;
        Ok(seq)
    }

    /// Streams `records` into the lane as (part of) the batch begun by
    /// the last [`begin_batch`](Self::begin_batch), packing them into the
    /// lane's record layout on the way.
    ///
    /// # Errors
    ///
    /// [`QueueClosed`] if the consumer has been dropped.
    pub fn write_records(&mut self, records: &[(u32, u32)]) -> Result<(), QueueClosed> {
        for part in records.chunks(self.shared.capacity) {
            let chunk = part.iter().map(|&(bank, row)| wire::pack_record(bank, row));
            self.push_chunk(chunk.collect())?;
        }
        Ok(())
    }

    /// Streams already-packed records ([`wire::pack_record`] layout —
    /// which is byte-identical to the wire payload, so the server's
    /// reader threads call this without any re-encoding).
    ///
    /// # Errors
    ///
    /// [`QueueClosed`] if the consumer has been dropped.
    pub fn write_packed(&mut self, packed: &[u64]) -> Result<(), QueueClosed> {
        for part in packed.chunks(self.shared.capacity) {
            self.push_chunk(part.to_vec())?;
        }
        Ok(())
    }

    /// Appends one chunk of at most `capacity` records, waiting until the
    /// lane has room for all of it.
    fn push_chunk(&self, chunk: Vec<u64>) -> Result<(), QueueClosed> {
        let lane = &self.shared.lanes[self.id];
        let room = self.shared.capacity - chunk.len();
        let ready = |f: &Fifo| f.closed || f.buffered <= room;
        let mut fifo = lane.lock_when(PRODUCER, ready);
        if fifo.closed {
            return Err(QueueClosed);
        }
        fifo.buffered += chunk.len();
        fifo.chunks.push_back(chunk);
        if fifo.waiting[CONSUMER] {
            lane.filled.notify_one();
        }
        Ok(())
    }

    /// Marks the lane finished (equivalent to dropping the handle): the
    /// merge skips this producer once its buffered batches drain.
    pub fn finish(self) {}
}

impl Drop for IngestProducer {
    fn drop(&mut self) {
        let lane = &self.shared.lanes[self.id];
        lane.fifo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .finished = true;
        lane.filled.notify_one();
    }
}

/// The consuming end: emits batches in the deterministic merge order.
pub struct IngestConsumer {
    shared: Arc<Shared>,
    /// Producer whose next batch the merge emits ([module docs](self)).
    turn: usize,
}

impl IngestConsumer {
    /// Appends the next *record batch* in `(sequence, producer)` order to
    /// `out`, blocking until it is available; returns `false` once every
    /// producer has finished and drained. This is the record-only view of
    /// the stream: epoch-cut events are skipped. The event-aware system
    /// drain behind [`MemorySystem::ingest`] uses
    /// [`next_event_into`](Self::next_event_into) instead.
    pub fn next_batch_into(&mut self, out: &mut Vec<(u32, u32)>) -> bool {
        loop {
            match self.next_event_into(out) {
                None => return false,
                Some(IngestEvent::Records(_)) => return true,
                Some(IngestEvent::EpochCut) => continue,
            }
        }
    }

    /// [`next_event_with`](Self::next_event_with), unpacking the batch's
    /// records onto `out`: [`MemorySystem::ingest`] hands it the staging
    /// buffer, so the lane's chunks land straight in it with no
    /// intermediate `Vec` per batch.
    pub fn next_event_into(&mut self, out: &mut Vec<(u32, u32)>) -> Option<IngestEvent> {
        self.next_event_with(|words| out.extend(words.iter().map(|&w| wire::unpack_record(w))))
    }

    /// Takes the next event in `(sequence, producer)` order, blocking
    /// until it is available; `None` once every producer has finished and
    /// drained. A record batch is handed to `sink` chunk by chunk, in the
    /// lanes' packed layout ([`wire::pack_record`]), one lock per chunk
    /// and the sink called outside it; an epoch cut calls no sink. Waits
    /// for a lagging producer rather than reordering around it — that
    /// wait *is* the determinism.
    ///
    /// This is the merge's one core: the fleet router forwards the words
    /// as they come, and the `(bank, row)` views are adapters on top.
    pub fn next_event_with(&mut self, mut sink: impl FnMut(&[u64])) -> Option<IngestEvent> {
        let lanes = self.shared.lanes.len();
        // Each pass either returns an event or skips a finished, drained
        // lane — which stays so — so `lanes` skips in a row mean the end.
        for _ in 0..lanes {
            let lane = &self.shared.lanes[self.turn];
            self.turn = (self.turn + 1) % lanes;
            let ready = |f: &Fifo| f.finished || !f.events.is_empty();
            let mut fifo = lane.lock_when(CONSUMER, ready);
            let Some(event) = fifo.events.pop_front() else {
                continue;
            };
            if fifo.waiting[PRODUCER] {
                lane.drained.notify_one();
            }
            drop(fifo);
            return Some(match event {
                IngestEvent::Records(len) => IngestEvent::Records(copy_batch(lane, len, &mut sink)),
                IngestEvent::EpochCut => IngestEvent::EpochCut,
            });
        }
        None
    }

    /// Blocks until the next batch in `(sequence, producer)` order is
    /// available and returns it; `None` once every producer has finished
    /// and drained. Allocation-free callers use
    /// [`next_batch_into`](Self::next_batch_into) instead.
    pub fn next_batch(&mut self) -> Option<Vec<(u32, u32)>> {
        let mut out = Vec::new();
        self.next_batch_into(&mut out).then_some(out)
    }
}

/// Hands one `len`-record batch of `lane` to `sink` and returns the
/// records delivered: one lock per chunk, the sink called outside it,
/// waiting for records the producer is still writing. If the producer
/// vanishes mid-batch (a reader thread erroring out of its socket), the
/// prefix that did arrive is delivered — the session is failing anyway,
/// and a partial batch must not hang the merge.
fn copy_batch(lane: &Lane, len: usize, sink: &mut impl FnMut(&[u64])) -> usize {
    let mut copied = 0;
    while copied < len {
        let ready = |f: &Fifo| f.finished || !f.chunks.is_empty();
        let mut fifo = lane.lock_when(CONSUMER, ready);
        let Some(mut chunk) = fifo.chunks.pop_front() else {
            break; // truncated batch: deliver the prefix
        };
        if chunk.len() > len - copied {
            // Records written past this batch open the producer's next one.
            fifo.chunks.push_front(chunk.split_off(len - copied));
        }
        fifo.buffered -= chunk.len();
        if fifo.waiting[PRODUCER] {
            lane.drained.notify_one();
        }
        drop(fifo);
        sink(&chunk);
        copied += chunk.len();
    }
    copied
}

impl Drop for IngestConsumer {
    fn drop(&mut self) {
        for lane in self.shared.lanes.iter() {
            lane.fifo
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .closed = true;
            lane.drained.notify_one();
        }
    }
}

/// Deals a trace into per-producer batch lists whose `(seq, producer)`
/// merge reconstructs `trace` exactly, for **any** producer count:
/// contiguous chunk `k` of `chunk` records becomes producer `k % producers`'s
/// next batch.
///
/// ```
/// let trace: Vec<(u32, u32)> = (0..10).map(|i| (i, i)).collect();
/// for producers in 1..=4 {
///     let per_producer = cat_engine::ingest::deal(&trace, producers, 3);
///     let mut merged = Vec::new();
///     let rounds = per_producer.iter().map(Vec::len).max().unwrap();
///     for seq in 0..rounds {
///         for lane in &per_producer {
///             if let Some(batch) = lane.get(seq) {
///                 merged.extend_from_slice(batch);
///             }
///         }
///     }
///     assert_eq!(merged, trace); // the merge inverts the deal
/// }
/// ```
///
/// # Panics
///
/// Panics if `producers` or `chunk` is zero.
pub fn deal(trace: &[(u32, u32)], producers: usize, chunk: usize) -> Vec<Vec<&[(u32, u32)]>> {
    assert!(producers >= 1, "at least one producer");
    assert!(chunk >= 1, "chunks must contain records");
    let mut out: Vec<Vec<&[(u32, u32)]>> = (0..producers).map(|_| Vec::new()).collect();
    for (k, part) in trace.chunks(chunk).enumerate() {
        out[k % producers].push(part);
    }
    out
}

/// Options for [`serve`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Connections to accept; ingestion ends when all of them finish.
    pub producers: usize,
    /// Per-connection lane bound, in records (the backpressure
    /// threshold — see the [module docs](self)).
    pub queue_capacity: usize,
    /// Checkpointing (`DESIGN.md §11`): when set, every merged batch is
    /// logged to the checkpoint directory before processing, images are
    /// published at epoch cuts, and clients may send
    /// [`Frame::Checkpoint`]. `None` serves without durability (and
    /// refuses `Checkpoint` frames).
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            producers: 1,
            queue_capacity: 1 << 16,
            checkpoint: None,
        }
    }
}

/// What one [`serve`] call did.
#[derive(Clone, Copy, Debug)]
pub struct ServeReport {
    /// Aggregate outcome of everything ingested this call.
    pub outcome: BatchOutcome,
    /// The post-ingestion snapshot (also what stats requesters were sent).
    pub snapshot: StatsSnapshot,
    /// Connections that requested (and were sent) the snapshot.
    pub stats_served: usize,
}

/// Records decoded per chunk by a [`serve`] reader thread: bounds each
/// connection's reusable frame buffers at 32 KiB and keeps a frame's
/// payload streaming through the lane instead of being materialised
/// whole.
const READ_CHUNK_RECORDS: usize = 4096;

/// Serves one ingestion session over TCP: accepts
/// [`producers`](ServeOptions::producers) connections, handshakes each
/// ([`wire`] hello exchange), then streams their record frames through the
/// deterministic [`IngestQueue`] merge into `system` until every
/// connection sends [`Frame::Finish`]. Connections that sent
/// [`Frame::StatsRequest`] receive a [`StatsSnapshot`] once ingestion
/// completes. This is the loop behind the `catd` example, reused verbatim
/// by the loopback differential tests.
///
/// Each reader thread decodes frames **zero-copy**: payload bytes land in
/// a per-connection reusable buffer, are reinterpreted as packed records
/// (the wire layout *is* the lane's record layout — [`wire::pack_record`]),
/// validated, and stored straight into the lane. No `Vec<(u32, u32)>` is
/// ever materialised on the server's ingest path.
///
/// Record banks *and rows* are validated against the system geometry
/// **at the connection** — a malformed client gets its connection errored
/// instead of panicking the drain thread.
///
/// Backpressure: each connection's reader thread waits once its lane is
/// full, which stalls the socket via TCP flow control.
///
/// ```no_run
/// use std::net::TcpListener;
/// use cat_core::SchemeSpec;
/// use cat_engine::ingest::{serve, ServeOptions};
/// use cat_engine::{MemGeometry, MemorySystem};
///
/// let geometry = MemGeometry {
///     channels: 2,
///     ranks_per_channel: 1,
///     banks_per_rank: 8,
///     rows_per_bank: 4096,
///     lines_per_row: 16,
///     line_bytes: 64,
/// };
/// let spec: SchemeSpec = "sca:64:4096".parse().unwrap();
/// let mut system = MemorySystem::new(&geometry, spec).with_epoch_length(50_000);
/// let listener = TcpListener::bind("127.0.0.1:0").unwrap();
/// let report = serve(&listener, &mut system, &ServeOptions { producers: 2, ..Default::default() }).unwrap();
/// println!("ingested {} accesses", report.outcome.accesses);
/// ```
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] before anything is accepted if
/// `producers` or `queue_capacity` is zero. Otherwise returns the first
/// accept/handshake error, the drain's error (a checkpoint I/O failure,
/// or an event the system refuses — see [`MemorySystem::ingest`]), or
/// the first connection's protocol error (out-of-order sequence number,
/// out-of-range bank or row, malformed frame) after the drain completes.
/// Ingested records are already reflected in `system` either way.
pub fn serve(
    listener: &TcpListener,
    system: &mut MemorySystem,
    options: &ServeOptions,
) -> io::Result<ServeReport> {
    // Set by any connection's Checkpoint frame, consumed by the drain at
    // the next epoch cut (so a client-requested image is still
    // cut-consistent). Handed to readers only when checkpointing is on —
    // a None makes the frame a typed refusal instead of a silent no-op.
    let requested = Arc::new(AtomicBool::new(false));
    let ((outcome, snapshot), stats_served) = run_session(
        listener,
        (options.producers, options.queue_capacity),
        options.checkpoint.as_ref().map(|_| &requested),
        || {
            let hello = ServerHello {
                geometry: *system.geometry(),
                slice_start: system.slice().start_bank(),
                slice_banks: system.slice().banks(),
                spec: system.spec().to_string(),
                epoch_len: system.epoch_length(),
                accesses: system.accesses(),
                epochs: system.epochs(),
            };
            Ok((hello, system))
        },
        |system, consumer| {
            let mut wal = match &options.checkpoint {
                Some(cfg) => Some(Wal::open(system, cfg, &requested)?),
                None => None,
            };
            system.drain(|out| Ok(consumer.next_event_into(out)), wal.as_mut())
        },
        |system, outcome| {
            let footprint = system.footprint();
            let snapshot = StatsSnapshot {
                accesses: system.accesses(),
                epochs: system.epochs(),
                stats: system.stats(),
                banks: footprint.banks as u64,
                materialized_banks: footprint.materialized_banks as u64,
                scheme_bytes: footprint.scheme_bytes as u64,
            };
            Ok(((outcome, snapshot), snapshot))
        },
    )?;
    Ok(ServeReport {
        outcome,
        snapshot,
        stats_served,
    })
}

/// The session skeleton of both TCP front-ends ([`serve`] and
/// [`crate::router::serve`]): refuse an impossible shape before anything
/// opens; `open` the server state and its hello; accept and handshake
/// every producer before any reader spawns; spawn one reader per
/// connection, validating against the hello's slice and epoch clock;
/// `drain` the merge; join the readers; `finish` into the report and the
/// snapshot every stats requester is sent. A failed drain closes the
/// queue and joins the readers (which error out of their sockets) before
/// its error returns; a reader's error outranks a failed `finish`.
/// Returns the report and the number of snapshots sent.
pub(crate) fn run_session<S, T, R>(
    listener: &TcpListener,
    (producers, queue_capacity): (usize, usize),
    checkpoint_requested: Option<&Arc<AtomicBool>>,
    open: impl FnOnce() -> io::Result<(ServerHello, S)>,
    drain: impl FnOnce(&mut S, &mut IngestConsumer) -> io::Result<T>,
    finish: impl FnOnce(S, T) -> io::Result<(R, StatsSnapshot)>,
) -> io::Result<(R, usize)> {
    let shape = match (producers, queue_capacity) {
        (0, _) => Err("a session needs at least one producer"),
        (_, 0) => Err("a session needs a queue capacity of at least one record"),
        _ => Ok(()),
    };
    shape.map_err(|problem| io::Error::new(io::ErrorKind::InvalidInput, problem))?;
    let (hello, mut state) = open()?;
    let owned = GeometrySlice::new(hello.geometry, hello.slice_start, hello.slice_banks)
        .map_err(|e| bad(e.to_string()))?;
    let cuts_allowed = hello.epoch_len.is_none();
    let connections = accept_producers(listener, producers, &hello)?;

    let (lanes, mut consumer) = IngestQueue::bounded(producers, queue_capacity);
    let mut readers: Vec<JoinHandle<io::Result<(TcpStream, bool)>>> = Vec::with_capacity(producers);
    for (stream, producer) in connections.into_iter().zip(lanes) {
        let requested = checkpoint_requested.cloned();
        // A failed spawn (resource exhaustion) aborts the session as an
        // error; already-spawned readers see the queue close when
        // `consumer` drops and error out of their sockets.
        readers.push(
            std::thread::Builder::new()
                .name(format!("catd-reader-{}", producer.id()))
                .spawn(move || read_connection(stream, producer, owned, cuts_allowed, requested))?,
        );
    }

    let drained = match drain(&mut state, &mut consumer) {
        Ok(drained) => drained,
        Err(e) => {
            drop(consumer);
            for reader in readers {
                let _ = reader.join();
            }
            return Err(e);
        }
    };

    let mut streams = Vec::with_capacity(producers);
    let mut first_error = None;
    for reader in readers {
        match reader.join() {
            Ok(Ok(done)) => streams.push(done),
            Ok(Err(e)) => first_error = first_error.or(Some(e)),
            // A panicking reader is a bug, but it must not take the serve
            // loop (and every other connection's stats reply) down with it.
            Err(_panic) => {
                first_error = first_error.or(Some(io::Error::other("ingest reader panicked")));
            }
        }
    }
    let (report, snapshot) = match finish(state, drained) {
        Ok(finished) => finished,
        Err(e) => return Err(first_error.unwrap_or(e)),
    };
    let mut stats_served = 0;
    for (mut stream, wants_stats) in streams {
        if wants_stats {
            match wire::write_stats(&mut stream, &snapshot).and_then(|()| stream.flush()) {
                Ok(()) => stats_served += 1,
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok((report, stats_served)),
    }
}

/// Accepts and handshakes exactly `producers` connections, returning the
/// streams in producer-id order. Each client *claims* its producer id
/// (merge tie-break rank) in its hello — lane assignment must follow the
/// client-side deal, not the racy TCP accept order — and a session's ids
/// must form a permutation of `0..producers`.
fn accept_producers(
    listener: &TcpListener,
    producers: usize,
    hello: &ServerHello,
) -> io::Result<Vec<TcpStream>> {
    let mut connections: Vec<Option<TcpStream>> = (0..producers).map(|_| None).collect();
    for _ in 0..producers {
        let (mut stream, peer) = listener.accept()?;
        let id = wire::read_client_hello(&mut stream)? as usize;
        let slot = connections.get_mut(id).ok_or_else(|| {
            bad(format!(
                "{peer} claimed producer id {id}, session has {producers} producers"
            ))
        })?;
        if slot.is_some() {
            return Err(bad(format!("{peer} claimed producer id {id} twice")));
        }
        wire::write_server_hello(&mut stream, hello)?;
        *slot = Some(stream);
    }
    // Every slot is filled: exactly `producers` connections were accepted
    // and their ids form a permutation of `0..producers`.
    Ok(connections.into_iter().flatten().collect())
}

/// One connection's reader loop: frame headers → sequence check → chunked
/// zero-copy payload decode → bank/row validation against the served
/// slice → lane. Returns the stream (for the stats reply) and
/// whether the client requested stats. Dropping `producer` on any exit
/// finishes the lane, so the merge never waits on a dead connection (a
/// batch cut short by an error is delivered as its prefix — the session
/// is already failing). Out-of-slice banks and (when the system fires its
/// own epoch boundaries) stream epoch cuts are refused **here, at the
/// connection**: a misrouted client errors its own socket instead of
/// corrupting the shared drain.
fn read_connection(
    stream: TcpStream,
    mut producer: IngestProducer,
    owned: GeometrySlice,
    cuts_allowed: bool,
    checkpoint_requested: Option<Arc<AtomicBool>>,
) -> io::Result<(TcpStream, bool)> {
    let peer = producer.id();
    let closed = |e: QueueClosed| io::Error::new(io::ErrorKind::BrokenPipe, e);
    let mut reader = BufReader::new(stream);
    let mut expected_seq = 0u64;
    let mut wants_stats = false;
    // Reused across every frame of the connection: the raw payload bytes
    // and their packed-u64 view. The packed view IS the lane's record layout,
    // so decode is `read_exact` + `from_le_bytes` and nothing else.
    let mut payload = Vec::new();
    let mut packed = Vec::new();
    loop {
        let header = wire::read_frame_header(&mut reader)?;
        // Record batches and cuts share one gapless sequence space.
        if let FrameHeader::Records { seq, .. } | FrameHeader::EpochCut { seq } = header {
            if seq != expected_seq {
                return Err(bad(format!(
                    "producer {peer}: sequence {seq}, expected {expected_seq}"
                )));
            }
            expected_seq += 1;
        }
        match header {
            FrameHeader::Records { count, .. } => {
                producer.begin_batch(count as usize).map_err(closed)?;
                let mut remaining = count as usize;
                while remaining > 0 {
                    let take = remaining.min(READ_CHUNK_RECORDS);
                    wire::read_packed_records(&mut reader, &mut payload, &mut packed, take)?;
                    // Both coordinates are checked here, at the connection,
                    // so a bad record errors this socket, not the drain.
                    wire::check_records(packed.iter().map(|&p| wire::unpack_record(p)), &owned)
                        .map_err(|e| bad(format!("producer {peer}: {e}")))?;
                    producer.write_packed(&packed).map_err(closed)?;
                    remaining -= take;
                }
            }
            FrameHeader::StatsRequest => wants_stats = true,
            FrameHeader::Finish => return Ok((reader.into_inner(), wants_stats)),
            FrameHeader::Checkpoint => match &checkpoint_requested {
                Some(flag) => flag.store(true, Ordering::SeqCst),
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::Unsupported,
                        format!(
                            "producer {peer}: checkpoint requested, but the server \
                             runs without a checkpoint directory"
                        ),
                    ));
                }
            },
            FrameHeader::EpochCut { .. } => {
                if !cuts_allowed {
                    return Err(bad(format!(
                        "producer {peer}: stream epoch cut, but the server fires its \
                         own epoch boundaries"
                    )));
                }
                producer.send_cut().map_err(closed)?;
            }
        }
    }
}

/// A client-side ingestion connection: handshakes on
/// [`connect`](Self::connect), streams record batches with automatic
/// sequence numbering and frame chunking, and can collect the server's
/// final [`StatsSnapshot`]. The `catd_loadgen` example and the loopback
/// differential tests drive [`serve`] through this.
pub struct IngestClient {
    writer: BufWriter<TcpStream>,
    hello: ServerHello,
    next_seq: u64,
    /// Reusable frame-encode buffer: after the first send at a given
    /// batch size, a send allocates nothing.
    frame: Vec<u8>,
}

impl IngestClient {
    /// Connects as producer `producer_id` (the connection's merge
    /// tie-break rank — the index of the [`deal`] lane it will stream)
    /// and performs the hello exchange.
    ///
    /// # Errors
    ///
    /// Connection errors, plus [`io::ErrorKind::InvalidData`] if the
    /// server speaks a different wire version.
    pub fn connect(addr: impl ToSocketAddrs, producer_id: u32) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        wire::write_client_hello(&mut stream, producer_id)?;
        let hello = wire::read_server_hello(&mut stream)?;
        Ok(IngestClient {
            writer: BufWriter::new(stream),
            hello,
            next_seq: 0,
            frame: Vec::new(),
        })
    }

    /// [`connect`](Self::connect) with bounded retry: up to `attempts`
    /// tries with an exponential backoff (10 ms doubling, capped at
    /// 500 ms) between them. This is what the loopback smokes and the
    /// router use — a freshly spawned server may not have bound its
    /// listener yet, and racing its first accept must not flake the run.
    ///
    /// # Errors
    ///
    /// The *last* attempt's error once the budget is exhausted.
    pub fn connect_with_retry<A: ToSocketAddrs>(
        addr: A,
        producer_id: u32,
        attempts: u32,
    ) -> io::Result<Self> {
        let mut delay = std::time::Duration::from_millis(10);
        let mut last = io::Error::other("zero connect attempts");
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = (delay * 2).min(std::time::Duration::from_millis(500));
            }
            match Self::connect(&addr, producer_id) {
                Ok(client) => return Ok(client),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// What the server announced in its handshake (geometry, scheme spec,
    /// epoch length) — generate traffic for *this*, not for an assumed
    /// configuration.
    pub fn server_hello(&self) -> &ServerHello {
        &self.hello
    }

    /// Streams `records` as this connection's next batch(es), splitting
    /// slices above [`wire::MAX_RECORDS_PER_FRAME`] into consecutive
    /// frames. Frames are encoded into a buffer reused across sends.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (including a server-side protocol
    /// rejection surfacing as a broken pipe).
    pub fn send(&mut self, records: &[(u32, u32)]) -> io::Result<()> {
        let mut rest = records;
        loop {
            let take = rest.len().min(wire::MAX_RECORDS_PER_FRAME as usize);
            let (part, tail) = rest.split_at(take);
            wire::encode_records(&mut self.frame, self.next_seq, part)?;
            self.writer.write_all(&self.frame)?;
            self.next_seq += 1;
            if tail.is_empty() {
                return Ok(());
            }
            rest = tail;
        }
    }

    /// Sends a records frame built in place (header room, then packed
    /// payload bytes) as this connection's next batch: the header is
    /// sealed with the next sequence number ([`wire::seal_records`]) and
    /// the buffer written as is. The fleet router's scatter frames go out
    /// this way.
    pub(crate) fn send_frame(&mut self, frame: &mut [u8]) -> io::Result<()> {
        wire::seal_records(frame, self.next_seq);
        self.writer.write_all(frame)?;
        self.next_seq += 1;
        Ok(())
    }

    /// Sends [`Frame::EpochCut`] at the current position of this
    /// connection's stream (consuming a sequence number, like a record
    /// batch): an epoch boundary for a clockless backend driven by the
    /// sender's epoch clock (`DESIGN.md §12`). A server firing its own
    /// epoch boundaries refuses the frame.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_cut(&mut self) -> io::Result<()> {
        wire::write_frame(&mut self.writer, &Frame::EpochCut { seq: self.next_seq })?;
        self.next_seq += 1;
        Ok(())
    }

    /// Sends [`Frame::Checkpoint`]: ask a checkpointing server to publish
    /// an image at the next epoch cut. Flushes so the request is not
    /// stuck behind buffered records. A server running without
    /// checkpointing refuses the frame (this connection errors).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn request_checkpoint(&mut self) -> io::Result<()> {
        wire::write_frame(&mut self.writer, &Frame::Checkpoint)?;
        self.writer.flush()
    }

    /// Sends [`Frame::Finish`] and closes the connection without asking
    /// for stats.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn finish(mut self) -> io::Result<()> {
        wire::write_frame(&mut self.writer, &Frame::Finish)?;
        self.writer.flush()
    }

    /// Sends [`Frame::StatsRequest`] + [`Frame::Finish`], then blocks for
    /// the server's post-ingestion [`StatsSnapshot`] (which arrives only
    /// after **all** producers of the session finish).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn finish_with_stats(mut self) -> io::Result<StatsSnapshot> {
        // The reply waits on these last few bytes: with Nagle's algorithm
        // on, they would sit behind the server's delayed ACK for ~40 ms.
        self.writer.get_ref().set_nodelay(true)?;
        wire::write_frame(&mut self.writer, &Frame::StatsRequest)?;
        wire::write_frame(&mut self.writer, &Frame::Finish)?;
        self.writer.flush()?;
        wire::read_stats(self.writer.get_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(tag: u32, len: usize) -> Vec<(u32, u32)> {
        (0..len as u32).map(|i| (tag, i)).collect()
    }

    #[test]
    fn merge_is_by_seq_then_producer_regardless_of_arrival() {
        let (mut handles, mut consumer) = IngestQueue::bounded(3, 1 << 20);
        let mut p2 = handles.pop().unwrap();
        let mut p1 = handles.pop().unwrap();
        let mut p0 = handles.pop().unwrap();
        // Adversarial arrival order: late producers first, interleaved.
        p2.send(&batch(20, 2)).unwrap();
        p1.send(&batch(10, 1)).unwrap();
        p1.send(&batch(11, 1)).unwrap();
        p0.send(&batch(0, 3)).unwrap();
        p2.send(&batch(21, 2)).unwrap();
        p0.send(&batch(1, 1)).unwrap();
        drop((p0, p1, p2));
        let tags: Vec<u32> = std::iter::from_fn(|| consumer.next_batch())
            .map(|b| b[0].0)
            .collect();
        assert_eq!(tags, [0, 10, 20, 1, 11, 21]);
    }

    #[test]
    fn merge_waits_for_the_lagging_producer() {
        let (mut handles, mut consumer) = IngestQueue::bounded(2, 1 << 20);
        let mut p1 = handles.pop().unwrap();
        let mut p0 = handles.pop().unwrap();
        p1.send(&batch(100, 1)).unwrap();
        // Producer 0 is slow: deliver its batch from another thread after
        // the consumer is already blocked waiting for it.
        let sender = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            p0.send(&batch(50, 1)).unwrap();
            drop(p0);
        });
        drop(p1);
        assert_eq!(consumer.next_batch().unwrap()[0].0, 50, "p0 first");
        assert_eq!(consumer.next_batch().unwrap()[0].0, 100);
        assert_eq!(consumer.next_batch(), None);
        sender.join().unwrap();
    }

    #[test]
    fn finished_producers_are_skipped_permanently() {
        let (mut handles, mut consumer) = IngestQueue::bounded(3, 1 << 20);
        let mut p2 = handles.pop().unwrap();
        let p1 = handles.pop().unwrap();
        let mut p0 = handles.pop().unwrap();
        drop(p1); // producer 1 sends nothing at all
        p0.send(&batch(0, 1)).unwrap();
        p0.send(&batch(1, 1)).unwrap();
        p2.send(&batch(2, 1)).unwrap();
        drop((p0, p2));
        let tags: Vec<u32> = std::iter::from_fn(|| consumer.next_batch())
            .map(|b| b[0].0)
            .collect();
        assert_eq!(tags, [0, 2, 1]);
    }

    #[test]
    fn send_applies_per_lane_backpressure() {
        let (mut handles, mut consumer) = IngestQueue::bounded(1, 10);
        let mut p = handles.pop().unwrap();
        p.send(&batch(0, 10)).unwrap(); // ring now at capacity
        let blocked = std::thread::spawn(move || {
            p.send(&batch(1, 5)).unwrap(); // must park until the consumer drains
            drop(p);
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!blocked.is_finished(), "send must block on a full ring");
        assert_eq!(consumer.next_batch().unwrap().len(), 10);
        blocked.join().unwrap();
        assert_eq!(consumer.next_batch().unwrap().len(), 5);
        assert_eq!(consumer.next_batch(), None);
    }

    #[test]
    fn a_batch_larger_than_the_ring_streams_through_it() {
        let (mut handles, mut consumer) = IngestQueue::bounded(1, 4);
        let mut p = handles.pop().unwrap();
        // 25× the lane capacity: the descriptor publishes first, then the
        // records stream through as the consumer frees room.
        let sender = std::thread::spawn(move || {
            p.send(&batch(0, 100)).unwrap();
            drop(p);
        });
        assert_eq!(consumer.next_batch().unwrap(), batch(0, 100));
        sender.join().unwrap();
        assert_eq!(consumer.next_batch(), None);
    }

    #[test]
    fn wraparound_at_capacity_boundaries_preserves_contents() {
        // Pow2 and non-pow2 capacities, neither a multiple of the 3-record
        // batches: chunk boundaries and capacity-limited room sweep every
        // offset of the batches many times.
        for capacity in [8usize, 10] {
            let (mut handles, mut consumer) = IngestQueue::bounded(1, capacity);
            let mut p = handles.pop().unwrap();
            let expected: Vec<(u32, u32)> = (0..999u32).map(|i| (i % 16, i)).collect();
            let sender = std::thread::spawn({
                let expected = expected.clone();
                move || {
                    for chunk in expected.chunks(3) {
                        p.send(chunk).unwrap();
                    }
                }
            });
            let mut got = Vec::new();
            while consumer.next_batch_into(&mut got) {}
            sender.join().unwrap();
            assert_eq!(got, expected, "capacity {capacity}");
        }
    }

    #[test]
    fn the_streaming_writer_api_matches_send() {
        let (mut handles, mut consumer) = IngestQueue::bounded(1, 16);
        let mut p = handles.pop().unwrap();
        let packed: Vec<u64> = (0..40u32).map(|i| wire::pack_record(i % 4, i)).collect();
        let expected: Vec<(u32, u32)> = packed.iter().map(|&x| wire::unpack_record(x)).collect();
        let sender = std::thread::spawn(move || {
            assert_eq!(p.begin_batch(40).unwrap(), 0);
            p.write_packed(&packed[..25]).unwrap();
            p.write_packed(&packed[25..]).unwrap();
            assert_eq!(p.begin_batch(1).unwrap(), 1);
            p.write_records(&[(3, 9)]).unwrap();
        });
        assert_eq!(consumer.next_batch().unwrap(), expected);
        assert_eq!(consumer.next_batch(), Some(vec![(3, 9)]));
        sender.join().unwrap();
        assert_eq!(consumer.next_batch(), None);
    }

    #[test]
    fn a_producer_dying_mid_batch_delivers_the_prefix() {
        let (mut handles, mut consumer) = IngestQueue::bounded(1, 16);
        let mut p = handles.pop().unwrap();
        p.begin_batch(10).unwrap();
        p.write_records(&[(0, 1), (0, 2)]).unwrap();
        drop(p); // the reader thread errored out of its socket mid-frame
        assert_eq!(consumer.next_batch(), Some(vec![(0, 1), (0, 2)]));
        assert_eq!(consumer.next_batch(), None);
    }

    #[test]
    fn empty_batches_merge_as_empty() {
        let (mut handles, mut consumer) = IngestQueue::bounded(1, 4);
        let mut p = handles.pop().unwrap();
        p.send(&[]).unwrap();
        p.send(&[(1, 2)]).unwrap();
        drop(p);
        assert_eq!(consumer.next_batch(), Some(vec![]));
        assert_eq!(consumer.next_batch(), Some(vec![(1, 2)]));
        assert_eq!(consumer.next_batch(), None);
    }

    #[test]
    fn control_events_never_use_record_capacity() {
        let (mut handles, mut consumer) = IngestQueue::bounded(1, 8);
        let mut p = handles.pop().unwrap();
        // The lane holds exactly its capacity in records, and no consumer
        // runs: cuts and empty batches up to the descriptor bound must
        // still publish without waiting.
        let (done, published) = std::sync::mpsc::channel();
        let producer = std::thread::spawn(move || {
            p.send(&batch(0, 8)).unwrap();
            for k in 1..LANE_EVENTS as u64 {
                let seq = if k % 2 == 0 {
                    p.send_cut()
                } else {
                    p.send(&[])
                };
                assert_eq!(seq, Ok(k));
            }
            done.send(()).unwrap();
        });
        let waited = published.recv_timeout(std::time::Duration::from_secs(10));
        let timeout = Err(std::sync::mpsc::RecvTimeoutError::Timeout);
        assert_ne!(waited, timeout, "a control event waited on record room");
        producer.join().unwrap();
        let mut out = Vec::new();
        assert_eq!(
            consumer.next_event_into(&mut out),
            Some(IngestEvent::Records(8))
        );
        assert_eq!(out, batch(0, 8));
        for k in 1..LANE_EVENTS {
            let expected = if k % 2 == 0 {
                IngestEvent::EpochCut
            } else {
                IngestEvent::Records(0)
            };
            assert_eq!(
                consumer.next_event_into(&mut out),
                Some(expected),
                "event {k}"
            );
        }
        assert_eq!(consumer.next_event_into(&mut out), None);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn send_after_consumer_drop_errors() {
        let (mut handles, consumer) = IngestQueue::bounded(1, 4);
        let mut p = handles.pop().unwrap();
        drop(consumer);
        assert_eq!(p.send(&batch(0, 1)), Err(QueueClosed));
    }

    #[test]
    fn consumer_drop_unblocks_a_parked_producer() {
        let (mut handles, consumer) = IngestQueue::bounded(1, 4);
        let mut p = handles.pop().unwrap();
        p.send(&batch(0, 4)).unwrap(); // ring full
        let blocked = std::thread::spawn(move || p.send(&batch(1, 4)));
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!blocked.is_finished(), "send must park on a full ring");
        drop(consumer);
        assert_eq!(blocked.join().unwrap(), Err(QueueClosed));
    }

    #[test]
    fn deal_round_robin_covers_the_trace_for_any_producer_count() {
        let trace: Vec<(u32, u32)> = (0..1000u32).map(|i| (i % 16, i)).collect();
        for producers in [1usize, 2, 3, 4, 7] {
            for chunk in [1usize, 3, 333, 2000] {
                let dealt = deal(&trace, producers, chunk);
                assert_eq!(dealt.len(), producers);
                let rounds = dealt.iter().map(Vec::len).max().unwrap();
                let mut merged: Vec<(u32, u32)> = Vec::new();
                for seq in 0..rounds {
                    for lane in &dealt {
                        if let Some(part) = lane.get(seq) {
                            merged.extend_from_slice(part);
                        }
                    }
                }
                assert_eq!(merged, trace, "{producers} producers, chunk {chunk}");
            }
        }
    }
}
