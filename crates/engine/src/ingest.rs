//! The multi-producer ingestion front-end: per-producer lock-free SPSC
//! lanes with a deterministic merge, and the TCP server loop (`catd`)
//! that feeds them from [`wire`]-framed socket connections. [`serve`]
//! and the fleet router's [`crate::router::serve`] run one session
//! skeleton (accept and handshake, one reader thread per connection,
//! drain, join, stats reply); `serve` drains into the system through
//! the same loop as [`MemorySystem::ingest`].
//!
//! This is the layer that turns `cat-engine` from a library you call into
//! a service you stream at — the memory-controller deployment model the
//! paper (and ABACuS/CoMeT) evaluate trackers under — without giving up
//! the determinism contract of `DESIGN.md §7`: stats stay bit-identical
//! for any producer count, arrival interleaving, shard count, or
//! staging-flush boundary. How the merge guarantees that is `DESIGN.md
//! §8`.
//!
//! ## The SPSC lanes
//!
//! Each producer owns a **single-producer/single-consumer ring**: a
//! fixed-capacity slot array of packed records ([`wire::pack_record`] —
//! the same 8-byte layout the wire carries, so the server's decode is a
//! store, not a re-encode) plus a small ring of **batch descriptors**
//! (record counts). Producer and consumer each advance a monotonic
//! cursor with `SeqCst` atomics; no lock is ever taken on the record
//! path. The only mutexes in the module guard parked `Thread` handles,
//! and they are touched exclusively around an actual park/unpark on an
//! empty-to-nonempty or full-to-nonfull transition.
//!
//! A batch's descriptor is published **before** its records, and the
//! records then stream through the ring in free-space-sized chunks — so
//! a batch larger than the whole ring flows through it instead of
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
//! interleaving, and ring capacity are all unobservable.
//!
//! A client that wants the merged stream to equal an original trace deals
//! it round-robin by contiguous chunk ([`deal`]): chunk `k` goes to
//! producer `k % P` as that producer's next batch. The `(seq, producer)`
//! merge inverts that deal for **every** producer count `P`, which is what
//! makes the producer count itself unobservable end to end.
//!
//! ## Backpressure
//!
//! **Ring-full blocks the producer, never the merge.** A producer whose
//! ring has no free slot parks in [`IngestProducer::send`] until the
//! consumer frees space; the consumer never skips or reorders to make
//! room. In [`serve`] the parked sender is that connection's reader
//! thread, so the kernel's TCP flow control pushes the stall back to the
//! remote client — a fast producer cannot balloon the server's memory,
//! and a slow consumer throttles every connection. The bound is per lane
//! (not global) because the merge may *need* the lagging producer's next
//! batch while every other lane is full: a global bound would deadlock
//! exactly there.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{JoinHandle, Thread};

use crate::checkpoint::{CheckpointConfig, Wal};
use crate::wire::{self, bad, Frame, FrameHeader, ServerHello, StatsSnapshot};
use crate::{BatchOutcome, GeometrySlice, MemorySystem};

/// Batch-descriptor flag bit marking an epoch-cut event instead of a
/// record batch (`DESIGN.md §12`). Record counts are bounded far below
/// bit 63 ([`wire::MAX_RECORDS_PER_FRAME`] per frame, ring capacities in
/// the millions), so the flag can never collide with a length.
const CUT_FLAG: u64 = 1 << 63;

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

/// Stores a packed record into the pow2-masked ring slot at monotonic
/// position `pos`.
#[inline]
fn ring_store(ring: &[AtomicU64], mask: u64, pos: u64, value: u64) {
    // cat-lint: allow(atomic-order) -- payload slots are ordered by the SeqCst cursor publication around them (DESIGN.md §8)
    ring[(pos & mask) as usize].store(value, Ordering::Relaxed);
}

/// Loads the packed record at monotonic position `pos`.
#[inline]
fn ring_load(ring: &[AtomicU64], mask: u64, pos: u64) -> u64 {
    // cat-lint: allow(atomic-order) -- payload slots are ordered by the SeqCst cursor publication around them (DESIGN.md §8)
    ring[(pos & mask) as usize].load(Ordering::Relaxed)
}

/// Stores packed records into a *contiguous* run of ring slots — the
/// bulk counterpart of [`ring_store`], with no per-record masking or
/// bounds check (callers split their span at the ring's wrap point).
#[inline]
fn span_store(span: &[AtomicU64], values: impl Iterator<Item = u64>) {
    for (slot, value) in span.iter().zip(values) {
        // cat-lint: allow(atomic-order) -- payload slots are ordered by the SeqCst cursor publication around them (DESIGN.md §8)
        slot.store(value, Ordering::Relaxed);
    }
}

/// Unpacks a contiguous run of ring slots onto the end of `out` — a
/// slice-iterator extend, so the `Vec` reserves once and writes straight
/// through with no per-record masking or bounds check.
#[inline]
fn span_extend(span: &[AtomicU64], out: &mut Vec<(u32, u32)>) {
    out.extend(span.iter().map(|slot| {
        // cat-lint: allow(atomic-order) -- payload slots are ordered by the SeqCst cursor publication around them (DESIGN.md §8)
        wire::unpack_record(slot.load(Ordering::Relaxed))
    }));
}

/// One producer's SPSC lane. The producer thread owns `tail`/`batch_tail`
/// (it is the only writer), the consumer owns `head`/`batch_head`; every
/// cursor is a monotonic count, masked into its ring on access, so
/// full/empty tests are plain subtractions with no wraparound ambiguity.
struct Lane {
    /// Packed record slots ([`wire::pack_record`] layout); pow2 length.
    slots: Box<[AtomicU64]>,
    /// Index mask for `slots` (`slots.len() - 1`).
    slot_mask: u64,
    /// Logical record bound — exactly the capacity the queue was built
    /// with, which may be less than `slots.len()` (the pow2 rounding).
    capacity: u64,
    /// Records written (producer cursor).
    tail: AtomicU64,
    /// Records consumed (consumer cursor).
    head: AtomicU64,
    /// Record counts of begun batches, in sequence order; pow2 length.
    batches: Box<[AtomicU64]>,
    /// Index mask for `batches`.
    batch_mask: u64,
    /// Batches begun (producer cursor).
    batch_tail: AtomicU64,
    /// Batches fully merged (consumer cursor).
    batch_head: AtomicU64,
    /// The producer handle is gone; no further descriptors or records.
    finished: AtomicBool,
    /// Where the producer parks on a full ring.
    producer: Parker,
}

struct Shared {
    lanes: Box<[Lane]>,
    /// The consumer is gone; further sends would wait forever.
    closed: AtomicBool,
    /// Where the consumer parks on empty lanes.
    consumer: Parker,
}

/// One side's parking spot: a parked flag plus the parked thread's handle.
/// The handle's mutex is off the fast path: touched only around an actual
/// park/unpark, never per record.
#[derive(Default)]
struct Parker {
    /// The thread is parked (or committed to parking).
    parked: AtomicBool,
    thread: Mutex<Option<Thread>>, // lock-order: parked_thread
}

impl Parker {
    /// Parks the calling thread until woken, with the lost-wakeup guard:
    /// the parked flag is raised first, `ready` is re-checked after, and
    /// only then does the thread park. `SeqCst` totally orders the flag
    /// raise against the waker's publication, so either the re-check sees
    /// the publication or the waker sees the flag (and the unpark permit
    /// covers the remaining park-vs-unpark race). Spurious returns are
    /// fine — every caller re-checks in a loop.
    fn park(&self, ready: impl Fn() -> bool) {
        // Registry locks tolerate poison throughout: they hold no invariant
        // beyond their `Option`, and the `Drop` impls must be able to wake
        // waiters even while another thread unwinds.
        *self.thread.lock().unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
        self.parked.store(true, Ordering::SeqCst);
        if ready() {
            self.parked.store(false, Ordering::SeqCst);
            return;
        }
        std::thread::park();
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Unparks the thread if it is parked (or committing to park). Callers
    /// publish with a `SeqCst` store first; the cheap flag load keeps the
    /// un-contended fast path mutex-free.
    fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            let waiter = self
                .thread
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(thread) = waiter {
                thread.unpark();
            }
        }
    }
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

/// A bounded multi-producer ingestion queue — per-producer SPSC rings
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
    /// Builds a queue of `producers` SPSC lanes, each bounded at
    /// `capacity` buffered records, returning the producer handles (index
    /// = producer id = merge tie-break order) and the single consumer.
    ///
    /// The slot ring is sized to the next power of two for mask indexing,
    /// but the *logical* bound stays exactly `capacity`. Batches larger
    /// than the capacity stream through the ring chunk by chunk.
    ///
    /// # Panics
    ///
    /// Panics if `producers` or `capacity` is zero.
    pub fn bounded(producers: usize, capacity: usize) -> (Vec<IngestProducer>, IngestConsumer) {
        assert!(producers >= 1, "at least one producer lane");
        assert!(capacity >= 1, "lanes must buffer records");
        let slots_len = capacity.next_power_of_two();
        // Descriptors gate batches, slots gate records: a handful of
        // in-flight batches per ring-full of records is plenty, and tiny
        // test queues still get enough to not serialise on descriptors.
        let batch_len = (slots_len / 8).clamp(8, 1024).next_power_of_two();
        let lanes: Box<[Lane]> = (0..producers)
            .map(|_| Lane {
                slots: (0..slots_len).map(|_| AtomicU64::new(0)).collect(),
                slot_mask: slots_len as u64 - 1,
                capacity: capacity as u64,
                tail: AtomicU64::new(0),
                head: AtomicU64::new(0),
                batches: (0..batch_len).map(|_| AtomicU64::new(0)).collect(),
                batch_mask: batch_len as u64 - 1,
                batch_tail: AtomicU64::new(0),
                batch_head: AtomicU64::new(0),
                finished: AtomicBool::new(false),
                producer: Parker::default(),
            })
            .collect();
        let shared = Arc::new(Shared {
            lanes,
            closed: AtomicBool::new(false),
            consumer: Parker::default(),
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
/// and parks when its ring is full. Dropping the handle finishes the
/// lane. Methods take `&mut self` to enforce the single-producer half of
/// the SPSC contract in the type system.
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
    /// sequence number it was tagged with (0, 1, 2, …). Parks while the
    /// ring is full; a batch larger than the whole capacity streams
    /// through the ring chunk by chunk rather than deadlocking.
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
    /// than the ring stream through it, and lets the consumer start
    /// merging a batch while it is still being written.
    ///
    /// # Errors
    ///
    /// [`QueueClosed`] if the consumer has been dropped.
    pub fn begin_batch(&mut self, len: usize) -> Result<u64, QueueClosed> {
        self.publish_descriptor(len as u64)
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
        self.publish_descriptor(CUT_FLAG)
    }

    /// The descriptor-publication loop shared by [`begin_batch`]
    /// (`desc` = record count) and [`send_cut`] (`desc` = [`CUT_FLAG`]).
    ///
    /// [`begin_batch`]: Self::begin_batch
    /// [`send_cut`]: Self::send_cut
    fn publish_descriptor(&mut self, desc: u64) -> Result<u64, QueueClosed> {
        let lane = &self.shared.lanes[self.id];
        loop {
            if self.shared.closed.load(Ordering::SeqCst) {
                return Err(QueueClosed);
            }
            let tail = lane.batch_tail.load(Ordering::SeqCst);
            let head = lane.batch_head.load(Ordering::SeqCst);
            if tail - head < lane.batches.len() as u64 {
                ring_store(&lane.batches, lane.batch_mask, tail, desc);
                lane.batch_tail.store(tail + 1, Ordering::SeqCst);
                self.shared.consumer.wake();
                let seq = self.sent;
                self.sent += 1;
                return Ok(seq);
            }
            lane.producer.park(|| {
                self.shared.closed.load(Ordering::SeqCst)
                    || lane.batch_head.load(Ordering::SeqCst) != head
            });
        }
    }

    /// Streams `records` into the ring as (part of) the batch begun by
    /// the last [`begin_batch`](Self::begin_batch), packing them into the
    /// slot layout on the way.
    ///
    /// # Errors
    ///
    /// [`QueueClosed`] if the consumer has been dropped.
    pub fn write_records(&mut self, records: &[(u32, u32)]) -> Result<(), QueueClosed> {
        self.write_slots(records.len(), |span, off, take| {
            span_store(
                span,
                records[off..off + take]
                    .iter()
                    .map(|&(bank, row)| wire::pack_record(bank, row)),
            );
        })
    }

    /// Streams already-packed records ([`wire::pack_record`] layout —
    /// which is byte-identical to the wire payload, so the server's
    /// reader threads call this without any re-encoding).
    ///
    /// # Errors
    ///
    /// [`QueueClosed`] if the consumer has been dropped.
    pub fn write_packed(&mut self, packed: &[u64]) -> Result<(), QueueClosed> {
        self.write_slots(packed.len(), |span, off, take| {
            span_store(span, packed[off..off + take].iter().copied());
        })
    }

    /// The common ring-write loop: chunk `total` records by free space
    /// *and* the ring's wrap point (so every chunk is one contiguous slot
    /// span), parking on a full ring. `store(span, offset, take)` writes
    /// source records `offset..offset + take` into the slot span.
    fn write_slots(
        &self,
        total: usize,
        mut store: impl FnMut(&[AtomicU64], usize, usize),
    ) -> Result<(), QueueClosed> {
        let lane = &self.shared.lanes[self.id];
        let mut written = 0usize;
        while written < total {
            if self.shared.closed.load(Ordering::SeqCst) {
                return Err(QueueClosed);
            }
            let tail = lane.tail.load(Ordering::SeqCst);
            let head = lane.head.load(Ordering::SeqCst);
            let free = lane.capacity - (tail - head);
            if free == 0 {
                lane.producer.park(|| {
                    self.shared.closed.load(Ordering::SeqCst)
                        || lane.head.load(Ordering::SeqCst) != head
                });
                continue;
            }
            let start = (tail & lane.slot_mask) as usize;
            let take = (total - written)
                .min(free as usize)
                .min(lane.slots.len() - start);
            store(&lane.slots[start..start + take], written, take);
            lane.tail.store(tail + take as u64, Ordering::SeqCst);
            self.shared.consumer.wake();
            written += take;
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
        lane.finished.store(true, Ordering::SeqCst);
        self.shared.consumer.wake();
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

    /// Appends the next event in `(sequence, producer)` order — a record
    /// batch appended to `out`, or an epoch cut — blocking until it is
    /// available; `None` once every producer has finished and drained.
    /// Waits for a lagging producer rather than reordering around it —
    /// that wait *is* the determinism.
    ///
    /// This is the chunk-amortized drain: [`MemorySystem::ingest`] hands
    /// it the staging buffer and whole batches are copied out of the ring
    /// with no intermediate `Vec` per batch.
    pub fn next_event_into(&mut self, out: &mut Vec<(u32, u32)>) -> Option<IngestEvent> {
        let lanes = self.shared.lanes.len();
        let mut skipped = 0;
        while skipped < lanes {
            let lane = &self.shared.lanes[self.turn];
            let head = lane.batch_head.load(Ordering::SeqCst);
            if lane.batch_tail.load(Ordering::SeqCst) != head {
                let desc = ring_load(&lane.batches, lane.batch_mask, head);
                let event = if desc & CUT_FLAG != 0 {
                    IngestEvent::EpochCut
                } else {
                    let before = out.len();
                    self.copy_batch(lane, desc, out);
                    IngestEvent::Records(out.len() - before)
                };
                lane.batch_head.store(head + 1, Ordering::SeqCst);
                lane.producer.wake();
                self.turn = (self.turn + 1) % lanes;
                return Some(event);
            }
            if lane.finished.load(Ordering::SeqCst) {
                // Re-check: a descriptor published just before the finish
                // flag must not be skipped.
                if lane.batch_tail.load(Ordering::SeqCst) != head {
                    continue;
                }
                self.turn = (self.turn + 1) % lanes;
                skipped += 1;
                continue;
            }
            // The lane is empty but live: wait for it — no reordering
            // around a lagging producer.
            self.shared.consumer.park(|| {
                lane.batch_tail.load(Ordering::SeqCst) != head
                    || lane.finished.load(Ordering::SeqCst)
            });
            skipped = 0;
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

    /// Copies one `len`-record batch out of `lane`'s slot ring into
    /// `out`, waiting for records the producer is still writing. If the
    /// producer vanishes mid-batch (a reader thread erroring out of its
    /// socket), the prefix that did arrive is delivered — the session is
    /// failing anyway, and a partial batch must not hang the merge.
    fn copy_batch(&self, lane: &Lane, len: u64, out: &mut Vec<(u32, u32)>) {
        let mut head = lane.head.load(Ordering::SeqCst);
        let mut remaining = len;
        while remaining > 0 {
            let tail = lane.tail.load(Ordering::SeqCst);
            let avail = (tail - head).min(remaining);
            if avail == 0 {
                if lane.finished.load(Ordering::SeqCst) && lane.tail.load(Ordering::SeqCst) == head
                {
                    return; // truncated batch: deliver the prefix
                }
                self.shared.consumer.park(|| {
                    lane.tail.load(Ordering::SeqCst) != head || lane.finished.load(Ordering::SeqCst)
                });
                continue;
            }
            // At most two contiguous spans (the ring's wrap point), each
            // a bulk slice extend.
            let start = (head & lane.slot_mask) as usize;
            let first = (avail as usize).min(lane.slots.len() - start);
            span_extend(&lane.slots[start..start + first], out);
            let wrapped = avail as usize - first;
            if wrapped > 0 {
                span_extend(&lane.slots[..wrapped], out);
            }
            head += avail;
            lane.head.store(head, Ordering::SeqCst);
            lane.producer.wake();
            remaining -= avail;
        }
    }
}

impl Drop for IngestConsumer {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        for lane in self.shared.lanes.iter() {
            lane.producer.wake();
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
    /// Per-connection ring bound, in records (the backpressure
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
/// (the wire layout *is* the ring-slot layout — [`wire::pack_record`]),
/// validated, and stored straight into the lane. No `Vec<(u32, u32)>` is
/// ever materialised on the server's ingest path.
///
/// Record banks *and rows* are validated against the system geometry
/// **at the connection** — a malformed client gets its connection errored
/// instead of panicking the drain thread.
///
/// Backpressure: each connection's reader thread parks once its ring
/// lane is full, which stalls the socket via TCP flow control.
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
/// slice → ring lane. Returns the stream (for the stats reply) and
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
    // and their packed-u64 view. The packed view IS the ring-slot layout,
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
                    wire::check_records(&packed, &owned)
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
        // 25× the ring capacity: the descriptor publishes first, then the
        // records stream through as the consumer frees slots.
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
        // Pow2 and non-pow2 capacities: the slot ring is pow2-sized but
        // the logical bound is exact, so cursors sweep the seam between
        // mask wraparound and capacity-limited free space many times.
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
