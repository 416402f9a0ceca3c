//! [`MemorySystem`] — the system-level front-end over per-slice
//! [`BankEngine`]s.
//!
//! ABACuS and CoMeT evaluate mitigation trackers as *memory-system*
//! components sitting behind a channel/rank/bank decode, and every consumer
//! in this repo used to hand-roll exactly that layer: decode an address,
//! flatten it to a global bank id, feed an engine. `MemorySystem` owns that
//! path — [`AddressMapping`] decode, per-slice routing, the one epoch
//! clock, the bucketing scratch, streaming ingestion — behind a batched
//! `process`/`report` API at whole-system scope.
//!
//! ## Batch datapath
//!
//! Every batch (explicit via [`MemorySystem::process`], or an internal
//! flush of the staging buffer behind [`MemorySystem::push`]) takes the
//! same **cut-aware** path: the epoch boundary positions inside the batch
//! are computed once up front (`crate::epoch_cuts`), then one stable
//! count-then-place pass over the owned bank range buckets the staged
//! `(bank, row)` records into runs — per epoch segment, each touched
//! bank's rows in stream order, banks ascending, with a cut marker per
//! boundary. Engines own ascending bank ranges, so each engine replays
//! its contiguous share of every segment's runs directly, one
//! [`SchemeInstance::run`] per bank per segment, with no copy or sort of
//! its own.
//!
//! Event streams — the live ingestion merge ([`MemorySystem::ingest`],
//! `catd`) and a trace log's tail on recovery — reach the batch path
//! through one drain: records merge into the staging buffer, stream epoch
//! cuts fire `end_epoch` in place, and a checkpointing drain logs both
//! ahead of processing and publishes images at cuts (`DESIGN.md §11`).
//!
//! [`with_shards`](MemorySystem::with_shards) decides only where the
//! replay runs. A shard is an engine slice: one shard replays every engine
//! on the calling thread; `n` shards refine the engine split to at least
//! `n` engines and replay contiguous engine groups on `n` persistent
//! workers, which take the engines by value and share the runs of each
//! bucketed chunk (a batch is bucketed in chunks of whole segments, at
//! most 8 Mi accesses).
//!
//! ## Equivalence
//!
//! Routing through per-slice engines — on any shard count, batched or
//! streaming — is bit-identical to one system-wide engine (asserted by
//! `tests/equivalence.rs`; the invariants are spelled out in
//! `DESIGN.md §7`):
//!
//! * the global bank order is channel-major, so per-slice engines with a
//!   [bank base](BankEngine::with_bank_base) hold exactly the banks (and
//!   PRA seeds) of the flat engine's contiguous ranges;
//! * per-bank access order is preserved by the stable bucketing pass;
//! * epoch boundaries are positions in the *system-wide* access stream:
//!   the cut list is computed once per batch and every bank receives
//!   `on_epoch_end` at the same point of its own subsequence, whichever
//!   engine replays it.

use std::io;

use cat_core::{Refreshes, SchemeInstance, SchemeSpec, SchemeStats};

use crate::checkpoint::Wal;
use crate::ingest::{Checked, IngestConsumer, IngestEvent};
use crate::shard::{self, Bucketer, ShardWorkers};
use crate::wire::{bad, check_records};
use crate::{
    epoch_cuts, AddressMapping, BankEngine, BatchOutcome, EngineFootprint, EngineReport,
    GeometrySlice, MemGeometry, Partition,
};

/// A whole memory system: address decode, per-slice [`BankEngine`]s,
/// global epoch accounting, streaming ingestion, and optional shard
/// workers replaying the engines in parallel.
///
/// ```
/// use cat_core::SchemeSpec;
/// use cat_engine::{MemGeometry, MemorySystem};
///
/// let geometry = MemGeometry {
///     channels: 2,
///     ranks_per_channel: 1,
///     banks_per_rank: 8,
///     rows_per_bank: 4096,
///     lines_per_row: 256,
///     line_bytes: 64,
/// };
/// let spec = SchemeSpec::Sca { counters: 64, threshold: 256 };
/// let mut system = MemorySystem::new(&geometry, spec).with_epoch_length(10_000);
/// // Route decoded (global bank, row) pairs — or raw addresses via decode().
/// let batch: Vec<(u32, u32)> = (0..20_000).map(|i| (i % 16, 7)).collect();
/// let out = system.process(&batch);
/// assert_eq!(out.epochs, 2);
/// assert!(system.stats().refresh_events > 0);
/// ```
pub struct MemorySystem {
    pub(crate) geometry: MemGeometry,
    /// The spec every bank was instantiated from (announced to ingestion
    /// clients in the wire handshake).
    pub(crate) spec: SchemeSpec,
    mapping: AddressMapping,
    /// The bank range this system owns: the full geometry by default, a
    /// proper sub-range for a fleet backend built by
    /// [`for_slice`](Self::for_slice). Every record is validated against
    /// it at the push.
    pub(crate) owned: GeometrySlice,
    /// One engine per slice of the owned range, in ascending bank order
    /// (per-channel by default — the N-slices-in-one-process case of the
    /// partitioned datapath, `DESIGN.md §12`).
    pub(crate) engines: Vec<BankEngine>,
    /// The slice each engine owns, parallel to `engines`.
    engine_slices: Vec<GeometrySlice>,
    /// The construction-time split of the owned range, which
    /// [`with_shards`](Self::with_shards) refines: the engine layout is a
    /// function of the shard count alone, never of earlier calls.
    split: Vec<GeometrySlice>,
    pub(crate) epoch_len: Option<u64>,
    pub(crate) accesses: u64,
    pub(crate) epochs: u64,
    /// Persistent shard workers; `None` replays every engine inline.
    workers: Option<ShardWorkers>,
    /// The batch path's bucketing scratch, over the owned range.
    pub(crate) bucketer: Bucketer,
    /// Global cut-position scratch, reused across batches.
    cut_scratch: Vec<usize>,
    /// Streaming staging buffer (decoded, not yet processed accesses).
    pub(crate) staged: Vec<(u32, u32)>,
    /// Staging capacity at which `push` flushes automatically.
    stream_capacity: usize,
    /// Outcomes of automatic flushes since the last explicit `flush()`.
    staged_outcome: BatchOutcome,
}

impl MemorySystem {
    /// Default [streaming](Self::push) staging capacity, in accesses
    /// (overridable via
    /// [`with_stream_capacity`](Self::with_stream_capacity)): large enough
    /// to amortise the per-batch routing work, small enough to stay
    /// cache-resident.
    pub const DEFAULT_STREAM_CAPACITY: usize = 8192;

    /// Builds a system for `geometry`, instantiating `spec` on every bank.
    /// The engines are laid out per channel — the default partition; see
    /// [`partitioned`](Self::partitioned) for an explicit slice layout and
    /// [`for_slice`](Self::for_slice) for a fleet backend owning a
    /// sub-range.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`MemGeometry::validate`] or `spec` is
    /// invalid for the bank geometry.
    pub fn new(geometry: impl Into<MemGeometry>, spec: SchemeSpec) -> Self {
        let geometry = geometry.into();
        // AddressMapping::new rejects invalid geometries (hard, named
        // panic), so the slice constructions below cannot fail.
        let _ = AddressMapping::new(geometry);
        // cat-lint: allow(panic-path) -- construction-time: geometry was just validated above, not peer-reachable
        let owned = GeometrySlice::full(geometry).expect("geometry validated above");
        Self::build(owned, Self::engine_split(&owned), spec)
    }

    /// Builds a system whose engines follow an explicit [`Partition`] —
    /// the N-slices-in-one-process case of the partitioned datapath. With
    /// [`Partition::per_channel`] this is exactly [`new`](Self::new); any
    /// other valid partition is bit-identical for stats by the `§7`
    /// contract, and is the reference a `catd` fleet with the same slice
    /// layout must match *including footprints* (`DESIGN.md §12`).
    ///
    /// # Panics
    ///
    /// Panics if `spec` is invalid for the bank geometry.
    pub fn partitioned(partition: &Partition, spec: SchemeSpec) -> Self {
        let geometry = *partition.geometry();
        let _ = AddressMapping::new(geometry);
        // cat-lint: allow(panic-path) -- construction-time: a Partition is validated at its own construction, not peer-reachable
        let owned = GeometrySlice::full(geometry).expect("partition geometry is validated");
        Self::build(owned, partition.slices().to_vec(), spec)
    }

    /// Builds a fleet-backend system owning only `slice` of the geometry:
    /// pushes outside the slice are rejected, stats and footprints cover
    /// the slice's banks only, and every bank keeps its **global** index
    /// (PRA seed, checkpoint identity). The slice is split into
    /// per-channel engines where it spans whole channels, or served by a
    /// single engine when it sits inside one channel.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is invalid for the bank geometry.
    pub fn for_slice(slice: &GeometrySlice, spec: SchemeSpec) -> Self {
        Self::build(*slice, Self::engine_split(slice), spec)
    }

    /// Splits an owned range at channel boundaries: slices no larger than
    /// a channel stay whole (alignment keeps them inside one channel),
    /// larger slices cover whole channels and get one engine each.
    fn engine_split(owned: &GeometrySlice) -> Vec<GeometrySlice> {
        let geometry = *owned.geometry();
        let bpc = geometry.banks_per_channel();
        if owned.banks() <= bpc {
            return vec![*owned];
        }
        (0..owned.banks() / bpc)
            .map(|i| {
                let start = owned.start_bank() + i * bpc;
                // cat-lint: allow(panic-path) -- construction-time: channel sub-ranges of a valid slice are valid slices, not peer-reachable
                GeometrySlice::new(geometry, start, bpc).expect("channel sub-slice is aligned")
            })
            .collect()
    }

    /// The shared constructor core: one engine per slice of `split`, each
    /// seeded with its slice's first **global** bank as the bank base.
    fn build(owned: GeometrySlice, split: Vec<GeometrySlice>, spec: SchemeSpec) -> Self {
        let geometry = *owned.geometry();
        let mut system = MemorySystem {
            geometry,
            spec,
            mapping: AddressMapping::new(geometry),
            owned,
            engines: Vec::new(),
            engine_slices: Vec::new(),
            split: split.clone(),
            epoch_len: None,
            accesses: 0,
            epochs: 0,
            workers: None,
            bucketer: Bucketer::default(),
            cut_scratch: Vec::new(),
            staged: Vec::new(),
            stream_capacity: Self::DEFAULT_STREAM_CAPACITY,
            staged_outcome: BatchOutcome::default(),
        };
        system.carve(Vec::new(), split);
        system
    }

    /// Lays the engines out over `slices` (ascending, tiling the owned
    /// range), taking every bank's state from `from`: engines over the
    /// same owned range in any layout. A source engine whose span equals a
    /// target slice moves over whole, directory high-water mark included;
    /// every other one moves record by record, each `Bank` record put
    /// into the target engine that owns its global bank, whose access
    /// count grows by the record's activations. The primitive behind
    /// [`with_shards`](Self::with_shards) and cross-layout checkpoint
    /// restore (`DESIGN.md §11`).
    pub(crate) fn carve(&mut self, from: Vec<BankEngine>, slices: Vec<GeometrySlice>) {
        let (spec, rows, epochs) = (self.spec, self.geometry.rows_per_bank, self.epochs);
        let mut engines: Vec<BankEngine> = slices
            .iter()
            .map(|s| {
                let mut engine = BankEngine::with_bank_base(spec, s.banks(), rows, s.start_bank());
                engine.epochs = epochs;
                engine
            })
            .collect();
        for source in from {
            let base = source.banks.base();
            match slices.binary_search_by_key(&base, GeometrySlice::start_bank) {
                Ok(i) if slices[i].end_bank() == source.end_bank() => engines[i] = source,
                _ => {
                    for (local, record) in source.banks.into_records() {
                        let bank = base + local as u32;
                        let target = &mut engines[slices.partition_point(|s| s.end_bank() <= bank)];
                        target.accesses += record.activations;
                        let at = (bank - target.banks.base()) as usize;
                        target.banks.put(at, record);
                    }
                }
            }
        }
        self.engines = engines;
        self.engine_slices = slices;
    }

    /// Enables access-count epoch accounting: every `accesses_per_epoch`
    /// *system-wide* accesses, every bank receives an `on_epoch_end`.
    ///
    /// # Panics
    ///
    /// Panics if `accesses_per_epoch` is zero.
    pub fn with_epoch_length(mut self, accesses_per_epoch: u64) -> Self {
        assert!(accesses_per_epoch > 0, "epoch must contain accesses");
        self.epoch_len = Some(accesses_per_epoch);
        self
    }

    /// Replays batches on `shards` persistent worker threads (1 = inline in
    /// the calling thread, the default). Results are bit-identical for
    /// every shard count.
    ///
    /// A shard is an engine slice. With one shard the engines follow the
    /// construction split. With `n > 1` the split is refined by halving
    /// the largest slice (lowest bank first) until there are at least `n`
    /// engines or every engine is one bank, and `n` workers each replay a
    /// contiguous group of engines. Calling this on a system that already
    /// holds state re-carves that state onto the new layout: an engine
    /// whose slice survives moves whole, every other bank as its record.
    ///
    /// ```
    /// use cat_core::SchemeSpec;
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
    /// let spec = SchemeSpec::Sca { counters: 16, threshold: 64 };
    /// let batch: Vec<(u32, u32)> = (0..40_000).map(|i| (i % 16, 9)).collect();
    /// let mut serial = MemorySystem::new(&geometry, spec).with_epoch_length(700);
    /// let mut sharded = MemorySystem::new(&geometry, spec)
    ///     .with_epoch_length(700)
    ///     .with_shards(4);
    /// serial.process(&batch);
    /// sharded.process(&batch);
    /// assert_eq!(sharded.engine_slices().len(), 4); // two channels, halved
    /// assert_eq!(sharded.stats(), serial.stats()); // bit-identical
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        self.workers = None;
        let slices = refine(&self.split, shards);
        let engines = std::mem::take(&mut self.engines);
        self.carve(engines, slices);
        if shards > 1 && self.engines.len() > 1 {
            // A host that cannot spawn the workers replays inline on the
            // same layout: bit-identical, only slower.
            self.workers = ShardWorkers::new(shards, self.engines.len()).ok();
        }
        self
    }

    /// Sets the staging capacity of the [streaming](Self::push) front-end:
    /// `push` flushes automatically once this many accesses are staged.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_stream_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "staging buffer must hold accesses");
        self.stream_capacity = capacity;
        self
    }

    /// The system geometry.
    pub fn geometry(&self) -> &MemGeometry {
        &self.geometry
    }

    /// The scheme spec every bank was instantiated from.
    pub fn spec(&self) -> SchemeSpec {
        self.spec
    }

    /// Accesses per automatic epoch, if
    /// [`with_epoch_length`](Self::with_epoch_length) was configured.
    pub fn epoch_length(&self) -> Option<u64> {
        self.epoch_len
    }

    /// The address mapping (for callers that need full [`crate::Location`]
    /// decode, e.g. the timing simulator's channel queues).
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Banks this system owns (the whole geometry unless it was built
    /// [`for_slice`](Self::for_slice)).
    pub fn bank_count(&self) -> usize {
        self.owned.banks() as usize
    }

    /// The bank range this system owns — the full geometry by default, a
    /// proper sub-range for a fleet backend. Advertised to ingestion
    /// clients in the wire handshake, which refuses out-of-slice banks at
    /// the connection.
    pub fn slice(&self) -> &GeometrySlice {
        &self.owned
    }

    /// The slice each engine owns, in ascending bank (= engine) order.
    pub fn engine_slices(&self) -> &[GeometrySlice] {
        &self.engine_slices
    }

    /// System-wide accesses processed so far (staged accesses count once
    /// they flush).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Epoch boundaries processed so far (batched and manual).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Decodes a physical byte address to `(global bank, row)` — the batch
    /// entry format of [`process`](Self::process).
    #[inline]
    pub fn decode(&self, addr: u64) -> (u32, u32) {
        self.mapping.decode_bank_row(addr)
    }

    /// Stages one physical-address activation on the streaming front-end;
    /// the staging buffer flushes through the cut-aware batch path
    /// whenever it reaches the [stream
    /// capacity](Self::with_stream_capacity). Call
    /// [`flush`](Self::flush) after the last push — staged accesses are
    /// invisible to the stats accessors (and are discarded on drop) until
    /// they flush.
    ///
    /// ```
    /// use cat_core::SchemeSpec;
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
    /// let spec = SchemeSpec::Sca { counters: 16, threshold: 64 };
    /// let mut system = MemorySystem::new(&geometry, spec).with_epoch_length(500);
    /// for i in 0..2_000u64 {
    ///     system.push((i % 1024) << 14);
    /// }
    /// let out = system.flush();
    /// assert_eq!(out.accesses, 2_000);
    /// assert_eq!(out.epochs, 4);
    /// assert_eq!(system.accesses(), 2_000);
    /// ```
    #[inline]
    pub fn push(&mut self, addr: u64) {
        let (bank, row) = self.decode(addr);
        self.push_decoded(bank, row);
    }

    /// [`push`](Self::push) for a pre-decoded `(global bank, row)`
    /// activation (callers that decode once and replay many times).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is outside the [owned slice](Self::slice) — at
    /// the offending call, not at the (arbitrarily later) flush that
    /// would otherwise trip over it deep inside the bucketing pass.
    #[inline]
    pub fn push_decoded(&mut self, bank: u32, row: u32) {
        assert!(
            self.owned.contains(bank),
            "global bank {bank} out of range for a system owning {}",
            self.owned
        );
        self.staged.push((bank, row));
        if self.staged.len() >= self.stream_capacity {
            self.flush_staged();
        }
    }

    /// Stages every address of `addrs` in order (see [`push`](Self::push)).
    pub fn push_iter(&mut self, addrs: impl IntoIterator<Item = u64>) {
        for addr in addrs {
            self.push(addr);
        }
    }

    /// Accesses currently staged and not yet processed.
    pub fn pending(&self) -> usize {
        self.staged.len()
    }

    /// Drains a multi-producer ingestion merge to completion: every batch
    /// the consumer emits is appended straight to the staging buffer in
    /// merge order ([`IngestConsumer::next_event_into`] — no intermediate
    /// `Vec` per batch), flushing through the cut-aware batch path once
    /// the stage reaches the [stream
    /// capacity](Self::with_stream_capacity); an epoch-cut event fires
    /// [`end_epoch`](Self::end_epoch) at its stream position. The flush
    /// boundary is batch-granular, which the §7 contract makes
    /// unobservable. Returns the aggregate outcome of everything pushed
    /// since the last explicit [`flush`](Self::flush), exactly like
    /// `flush` itself.
    ///
    /// Blocks until every producer has finished — the deterministic merge
    /// waits for lagging producers rather than reordering around them
    /// (`DESIGN.md §8`). The TCP front-end ([`crate::ingest::serve`]) and
    /// crash recovery ([`crate::checkpoint::resume_from_dir`]) run this
    /// same drain.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] if a batch contains a bank outside
    /// the [owned slice](Self::slice) or a row past its bank's last (the
    /// batch is dropped; the TCP server refuses such records at the
    /// connection), or if an epoch-cut event arrives while the system
    /// runs its own access-count epoch clock (the wire handshake refuses
    /// that mix up front).
    pub fn ingest(&mut self, consumer: &mut IngestConsumer) -> io::Result<BatchOutcome> {
        self.drain(
            |out| Ok(consumer.next_event_into(out)),
            None,
            Checked::ByConsumer,
        )
    }

    /// The one loop that applies an event stream — the live merge or a
    /// trace-log tail — to the system. With a write-ahead log
    /// (`DESIGN.md §11`) every batch and stream cut is logged before it
    /// is applied and images publish at cuts; without one, the stage
    /// flushes at stream capacity. `checked` says whether the source
    /// range-checked the records (a served connection) or the drain must
    /// (every in-process source).
    pub(crate) fn drain(
        &mut self,
        mut next: impl FnMut(&mut Vec<(u32, u32)>) -> io::Result<Option<IngestEvent>>,
        mut wal: Option<&mut Wal<'_>>,
        checked: Checked,
    ) -> io::Result<BatchOutcome> {
        let owned = self.owned;
        loop {
            let before = self.staged.len();
            match next(&mut self.staged)? {
                None => break,
                Some(IngestEvent::EpochCut) => {
                    if self.epoch_len.is_some() {
                        return Err(bad(
                            "stream epoch cut for a system with its own epoch clock",
                        ));
                    }
                    if let Some(wal) = wal.as_deref_mut() {
                        wal.log.append_cut()?;
                    }
                    // A router-driven system-wide boundary: everything
                    // staged ahead of it flushes first (end_epoch does
                    // that), then every bank sees on_epoch_end — exactly
                    // where the single-host epoch clock would fire it.
                    self.end_epoch();
                    self.staged_outcome.epochs += 1;
                    if let Some(wal) = wal.as_deref_mut() {
                        wal.at_cut(self, true)?;
                    }
                }
                Some(IngestEvent::Records(_)) => {
                    // The wire's range rule, once per merged batch of an
                    // unchecked source: fail at the drain, not in a later
                    // bucketing pass or a scheme's row assert.
                    if checked == Checked::ByConsumer {
                        let fresh = self.staged[before..].iter().copied();
                        if let Err(e) = check_records(fresh, &owned) {
                            self.staged.truncate(before);
                            return Err(e);
                        }
                    }
                    match wal.as_deref_mut() {
                        Some(wal) => self.drain_logged(wal, before)?,
                        None if self.staged.len() >= self.stream_capacity => self.flush_staged(),
                        None => {}
                    }
                }
            }
        }
        let out = self.flush();
        if let Some(wal) = wal {
            wal.publish(self)?;
        }
        Ok(out)
    }

    /// The logged step of [`drain`](Self::drain) for the batch merged into
    /// `staged[from..]`: log it, then process the stage cut by cut
    /// (`crate::epoch_cuts`; without an epoch clock the batch end is the
    /// cut) and offer each cut to the log. A publish rotates the log past
    /// the stage's unprocessed rest, so the rest is logged again.
    fn drain_logged(&mut self, wal: &mut Wal<'_>, from: usize) -> io::Result<()> {
        wal.log.append(&self.staged[from..])?;
        if self.staged.len() == from {
            return Ok(());
        }
        let staged = std::mem::take(&mut self.staged);
        let mut cuts = Vec::new();
        epoch_cuts(staged.len(), self.accesses, self.epoch_len, &mut cuts);
        let boundaries = cuts.len();
        if cuts.last() != Some(&staged.len()) {
            cuts.push(staged.len());
        }
        let mut done = 0;
        for (i, cut) in cuts.into_iter().enumerate() {
            let out = self.process_batch(&staged[done..cut]);
            self.staged_outcome.merge(&out);
            done = cut;
            // Without an epoch clock the batch end is the one cut.
            let is_cut = i < boundaries || self.epoch_len.is_none();
            if is_cut && wal.at_cut(self, i < boundaries)? && cut < staged.len() {
                wal.log.append(&staged[cut..])?;
            }
        }
        self.staged = staged;
        self.staged.clear();
        Ok(())
    }

    /// Flushes the staging buffer and returns the aggregate
    /// [`BatchOutcome`] of **everything pushed since the last `flush`**
    /// (automatic capacity flushes included).
    pub fn flush(&mut self) -> BatchOutcome {
        self.flush_staged();
        std::mem::take(&mut self.staged_outcome)
    }

    /// Runs the staged accesses through the batch path, accumulating the
    /// outcome for the next explicit [`flush`](Self::flush).
    fn flush_staged(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.staged);
        let out = self.process_batch(&staged);
        self.staged = staged;
        self.staged.clear();
        self.staged_outcome.merge(&out);
    }

    /// Processes a batch of `(global bank, row)` activations in order
    /// through the cut-aware batch path (see the module docs): epoch
    /// boundaries (if configured) fire at the right system-wide positions
    /// and each touched bank replays one run per epoch segment, on the
    /// shard workers when [`with_shards`](Self::with_shards) asked for them.
    ///
    /// Any [staged](Self::push) accesses are flushed first so the stream
    /// order is preserved (their outcome stays accumulated for the next
    /// [`flush`](Self::flush); the returned outcome covers only `batch`).
    ///
    /// # Panics
    ///
    /// Panics if a bank of `batch` is outside the [owned slice](Self::slice),
    /// before any access of that bank's bucketing chunk is applied.
    pub fn process(&mut self, batch: &[(u32, u32)]) -> BatchOutcome {
        self.flush_staged();
        self.process_batch(batch)
    }

    /// The cut-aware batch core: computes the global cut list once,
    /// buckets the batch once, and replays every engine's runs — inline or
    /// on the shard workers.
    fn process_batch(&mut self, batch: &[(u32, u32)]) -> BatchOutcome {
        let mut cuts = std::mem::take(&mut self.cut_scratch);
        epoch_cuts(batch.len(), self.accesses, self.epoch_len, &mut cuts);
        let before = shard::refresh_totals(&self.engines);
        let (origin, banks) = (self.owned.start_bank(), self.owned.banks() as usize);
        let (engines, workers) = (&mut self.engines, &mut self.workers);
        self.bucketer
            .run(batch, &cuts, origin, banks, |runs| match workers {
                Some(workers) => workers.replay(engines, runs, origin),
                None => shard::replay(engines, runs, origin),
            });
        let after = shard::refresh_totals(&self.engines);
        let out = BatchOutcome {
            accesses: batch.len() as u64,
            epochs: cuts.len() as u64,
            refresh_events: after.0 - before.0,
            refreshed_rows: after.1 - before.1,
        };
        self.accesses += out.accesses;
        self.epochs += out.epochs;
        self.cut_scratch = cuts;
        out
    }

    /// Drives one activation through global bank `bank` and returns the
    /// refreshes the scheme requests. Fires no epoch boundaries — see
    /// [`BankEngine::activate`]. Any [staged](Self::push) accesses are
    /// flushed first so the stream order is preserved.
    ///
    /// # Panics
    ///
    /// Panics if the system was configured with
    /// [`with_epoch_length`](Self::with_epoch_length) (single accesses and
    /// access-count epochs cannot be mixed) or `bank` is out of range.
    #[inline]
    pub fn activate_global(&mut self, bank: u32, row: u32) -> Refreshes {
        assert!(
            self.epoch_len.is_none(),
            "MemorySystem::activate_global/activate_in_channel cannot be mixed with \
             access-count epoch accounting (with_epoch_length): the access would shift \
             the batched epoch phase. Drive epochs from your own clock via end_epoch() \
             instead."
        );
        if !self.staged.is_empty() {
            self.flush_staged();
        }
        assert!(
            self.owned.contains(bank),
            "global bank {bank} out of range for a system owning {}",
            self.owned
        );
        self.accesses += 1;
        let idx = self.engine_slices.partition_point(|s| s.end_bank() <= bank);
        let local = bank - self.engine_slices[idx].start_bank();
        self.engines[idx].activate(local as usize, row)
    }

    /// [`activate_global`](Self::activate_global) addressed as
    /// `(channel, bank-in-channel)` — the coordinates the per-channel
    /// memory controllers use.
    ///
    /// # Panics
    ///
    /// Panics if `channel` or `bank` is out of range for the geometry —
    /// a bank past the channel's last would otherwise silently drive a
    /// bank of the next channel — and under the conditions of
    /// [`activate_global`](Self::activate_global).
    #[inline]
    pub fn activate_in_channel(&mut self, channel: usize, bank: usize, row: u32) -> Refreshes {
        let channels = self.geometry.channels as usize;
        let bpc = self.geometry.banks_per_channel() as usize;
        assert!(
            channel < channels && bank < bpc,
            "channel {channel} bank {bank} out of range for {channels} channels \
             of {bpc} banks"
        );
        self.activate_global((channel * bpc + bank) as u32, row)
    }

    /// Signals an auto-refresh epoch boundary to every bank of every
    /// engine. Any [staged](Self::push) accesses are flushed first so the
    /// boundary lands after them in the stream, exactly where the caller
    /// issued it.
    ///
    /// # Panics
    ///
    /// Panics if the system was configured with
    /// [`with_epoch_length`](Self::with_epoch_length): the automatic clock
    /// keeps firing at its own access-count positions regardless, so a
    /// manual boundary would silently interleave two epoch clocks (the
    /// same mixing every other entry point rejects).
    pub fn end_epoch(&mut self) {
        assert!(
            self.epoch_len.is_none(),
            "MemorySystem::end_epoch cannot be mixed with access-count epoch accounting \
             (with_epoch_length): the automatic boundaries would keep firing at their \
             own positions alongside the manual one"
        );
        self.flush_staged();
        self.epochs += 1;
        for engine in &mut self.engines {
            engine.end_epoch();
        }
    }

    /// Scheme statistics aggregated across all owned banks, in global
    /// bank order.
    pub fn stats(&self) -> SchemeStats {
        let mut total = SchemeStats::default();
        for engine in &self.engines {
            total.merge(&engine.stats());
        }
        total
    }

    /// Per-bank scheme statistics of the owned banks in global bank order
    /// (banks without a scheme are skipped).
    pub fn per_bank_stats(&self) -> Vec<SchemeStats> {
        self.engines
            .iter()
            .flat_map(BankEngine::per_bank_stats)
            .collect()
    }

    /// Row activations observed per owned bank, in global bank order.
    pub fn activations_per_bank(&self) -> Vec<u64> {
        self.engines
            .iter()
            .flat_map(BankEngine::activations_per_bank)
            .collect()
    }

    /// The attached scheme instances in global bank order (banks without a
    /// scheme are skipped).
    pub fn schemes(&self) -> impl Iterator<Item = &SchemeInstance> {
        self.engines.iter().flat_map(BankEngine::schemes)
    }

    /// The per-slice engines, in ascending bank order (diagnostics) —
    /// per-channel unless the system was built over another partition or
    /// refined by [`with_shards`](Self::with_shards).
    pub fn engines(&self) -> &[BankEngine] {
        &self.engines
    }

    /// Resident-memory snapshot across every engine's sparse bank storage,
    /// plus the system's own bucketing scratch.
    pub fn footprint(&self) -> EngineFootprint {
        let mut total = EngineFootprint {
            accounting_bytes: self.bucketer.heap_bytes(),
            ..EngineFootprint::default()
        };
        for engine in &self.engines {
            total.merge(&engine.footprint());
        }
        total
    }

    /// Snapshot of everything the simulator layers report, at system scope.
    pub fn report(&self) -> EngineReport {
        EngineReport {
            accesses: self.accesses,
            epochs: self.epochs,
            activations_per_bank: self.activations_per_bank(),
            scheme_stats: self.stats(),
            per_bank_stats: self.per_bank_stats(),
            footprint: self.footprint(),
        }
    }
}

/// The engine layout for `shards` shards: `split`, refined by halving the
/// largest slice (lowest bank first) until there are at least `shards`
/// slices or every slice is one bank.
fn refine(split: &[GeometrySlice], shards: usize) -> Vec<GeometrySlice> {
    let mut slices = split.to_vec();
    loop {
        let largest = slices.iter().map(GeometrySlice::banks).max().unwrap_or(1);
        if slices.len() >= shards || largest == 1 {
            return slices;
        }
        // One pass halves the largest slices in bank order, as many as
        // are still wanted — the same result as halving one at a time.
        let mut wanted = shards - slices.len();
        let mut refined = Vec::with_capacity(slices.len() + wanted);
        for s in slices {
            if s.banks() < largest || wanted == 0 {
                refined.push(s);
                continue;
            }
            wanted -= 1;
            let half = largest / 2;
            for start in [s.start_bank(), s.start_bank() + half] {
                // cat-lint: allow(panic-path) -- construction-time: halves of an aligned power-of-two slice are aligned, not peer-reachable
                refined.push(GeometrySlice::new(*s.geometry(), start, half).expect("aligned half"));
            }
        }
        slices = refined;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::clocked;

    fn geometry() -> MemGeometry {
        MemGeometry {
            channels: 2,
            ranks_per_channel: 1,
            banks_per_rank: 8,
            rows_per_bank: 4096,
            lines_per_row: 16,
            line_bytes: 64,
        }
    }

    fn batch(n: u64) -> Vec<(u32, u32)> {
        (0..n)
            .map(|i| {
                let bank = (i % 16) as u32;
                let row = if i % 3 == 0 {
                    99
                } else {
                    (i.wrapping_mul(2_654_435_761) % 4096) as u32
                };
                (bank, row)
            })
            .collect()
    }

    #[test]
    fn routes_match_flat_engine() {
        // The exhaustive per-spec sweep lives in tests/equivalence.rs.
        let spec = SchemeSpec::Sca {
            counters: 16,
            threshold: 64,
        };
        let trace = batch(40_000);
        let mut flat = BankEngine::new(spec, 16, 4096);
        clocked(&mut flat, &trace, 9_000);
        for shards in [1usize, 4] {
            let mut system = MemorySystem::new(geometry(), spec)
                .with_epoch_length(9_000)
                .with_shards(shards);
            system.process(&trace);
            assert_eq!(system.stats(), flat.stats(), "{shards} shards");
            assert_eq!(system.per_bank_stats(), flat.per_bank_stats());
            assert_eq!(system.activations_per_bank(), flat.activations_per_bank());
            assert_eq!(system.epochs(), flat.epochs());
            assert_eq!(system.accesses(), flat.accesses());
        }
        assert!(flat.stats().refresh_events > 0);
    }

    #[test]
    fn small_epochs_replay_once_per_engine_and_stay_identical() {
        // Epoch length far below the batch size: the cut-aware path must
        // fire every boundary inside one replay per engine and still
        // match the flat engine bit for bit.
        let spec = SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: 128,
        };
        let trace = batch(30_000);
        let mut flat = BankEngine::new(spec, 16, 4096);
        clocked(&mut flat, &trace, 97);
        for shards in [1usize, 3, 8] {
            let mut system = MemorySystem::new(geometry(), spec)
                .with_epoch_length(97)
                .with_shards(shards);
            system.process(&trace);
            assert_eq!(system.stats(), flat.stats(), "{shards} shards");
            assert_eq!(system.per_bank_stats(), flat.per_bank_stats());
            assert_eq!(system.epochs(), flat.epochs());
        }
        assert_eq!(flat.epochs(), 30_000 / 97);
    }

    #[test]
    fn shards_refine_the_construction_split() {
        // One shard keeps the per-channel split; n shards halve the
        // largest slice, lowest bank first, until there are at least n
        // engines or every engine is one bank. The layout depends on the
        // shard count alone.
        let spans = |shards: usize| {
            MemorySystem::new(geometry(), SchemeSpec::None)
                .with_shards(shards)
                .engine_slices()
                .iter()
                .map(|s| (s.start_bank(), s.banks()))
                .collect::<Vec<_>>()
        };
        assert_eq!(spans(1), [(0, 8), (8, 8)]);
        assert_eq!(spans(2), [(0, 8), (8, 8)]);
        assert_eq!(spans(3), [(0, 4), (4, 4), (8, 8)]);
        assert_eq!(spans(4), [(0, 4), (4, 4), (8, 4), (12, 4)]);
        assert_eq!(spans(64).len(), 16);
        let back = MemorySystem::new(geometry(), SchemeSpec::None)
            .with_shards(4)
            .with_shards(1);
        assert_eq!(back.engine_slices().len(), 2);
    }

    #[test]
    fn decode_and_addr_batches_route_by_address() {
        let mut system = MemorySystem::new(geometry(), SchemeSpec::None);
        let addr = system.mapping().encode_line(1, 0, 3, 42, 0);
        assert_eq!(system.decode(addr), (11, 42));
        system.push_iter([addr, addr, addr]);
        system.flush();
        assert_eq!(system.activations_per_bank()[11], 3);
        assert_eq!(system.accesses(), 3);
    }

    #[test]
    fn streaming_push_matches_batched_process() {
        let spec = SchemeSpec::Sca {
            counters: 16,
            threshold: 64,
        };
        let trace = batch(20_000);
        let mut batched = MemorySystem::new(geometry(), spec).with_epoch_length(777);
        batched.process(&trace);
        for capacity in [64usize, 1_000, 50_000] {
            let mut streamed = MemorySystem::new(geometry(), spec)
                .with_epoch_length(777)
                .with_stream_capacity(capacity);
            for &(bank, row) in &trace {
                streamed.push_decoded(bank, row);
            }
            let out = streamed.flush();
            assert_eq!(out.accesses, 20_000, "capacity {capacity}");
            assert_eq!(out.epochs, 20_000 / 777);
            assert_eq!(streamed.stats(), batched.stats(), "capacity {capacity}");
            assert_eq!(streamed.per_bank_stats(), batched.per_bank_stats());
            assert_eq!(streamed.epochs(), batched.epochs());
            assert_eq!(streamed.pending(), 0);
        }
    }

    #[test]
    fn push_stages_until_capacity_then_flushes() {
        let mut system = MemorySystem::new(geometry(), SchemeSpec::None).with_stream_capacity(100);
        for (bank, row) in batch(99) {
            system.push_decoded(bank, row);
        }
        assert_eq!(system.pending(), 99);
        assert_eq!(system.accesses(), 0, "staged accesses are not processed");
        system.push_decoded(0, 1);
        assert_eq!(system.pending(), 0, "capacity flush");
        assert_eq!(system.accesses(), 100);
        let out = system.flush();
        assert_eq!(out.accesses, 100, "flush reports the auto-flushed batch");
        assert_eq!(system.flush().accesses, 0, "outcome is consumed");
    }

    #[test]
    fn push_iter_decodes_like_process() {
        let spec = SchemeSpec::Sca {
            counters: 16,
            threshold: 16,
        };
        let mut a = MemorySystem::new(geometry(), spec);
        let mut b = MemorySystem::new(geometry(), spec);
        let addrs: Vec<u64> = (0..5_000u64)
            .map(|i| {
                a.mapping()
                    .encode_line((i % 2) as u32, 0, (i % 8) as u32, 1234, 0)
            })
            .collect();
        let decoded: Vec<(u32, u32)> = addrs.iter().map(|&addr| a.decode(addr)).collect();
        a.process(&decoded);
        b.push_iter(addrs.iter().copied());
        b.flush();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.activations_per_bank(), b.activations_per_bank());
    }

    #[test]
    fn process_flushes_staged_accesses_first() {
        // Order: 100 pushed accesses must reach the banks before the
        // processed batch, exactly as if both had gone through one stream.
        let spec = SchemeSpec::Sca {
            counters: 16,
            threshold: 64,
        };
        let trace = batch(10_000);
        let mut reference = MemorySystem::new(geometry(), spec).with_epoch_length(333);
        reference.process(&trace);
        let mut mixed = MemorySystem::new(geometry(), spec)
            .with_epoch_length(333)
            .with_stream_capacity(1 << 20);
        for &(bank, row) in &trace[..100] {
            mixed.push_decoded(bank, row);
        }
        let out = mixed.process(&trace[100..]);
        assert_eq!(out.accesses, 9_900);
        assert_eq!(mixed.flush().accesses, 100);
        assert_eq!(mixed.stats(), reference.stats());
        assert_eq!(mixed.epochs(), reference.epochs());
    }

    #[test]
    fn single_access_path_reaches_the_right_channel() {
        let spec = SchemeSpec::Sca {
            counters: 16,
            threshold: 4,
        };
        let mut system = MemorySystem::new(geometry(), spec);
        let mut rows = 0u64;
        for _ in 0..16 {
            rows += system.activate_in_channel(1, 2, 123).total_rows();
        }
        system.end_epoch();
        assert!(rows > 0);
        assert_eq!(system.activations_per_bank()[10], 16);
        assert_eq!(system.epochs(), 1);
        assert_eq!(system.report().accesses, 16);
    }

    #[test]
    #[should_panic(expected = "channel 0 bank 8 out of range")]
    fn activate_in_channel_rejects_a_bank_past_the_channel() {
        // Bank 8 of channel 0 would otherwise alias channel 1, bank 0.
        let mut system = MemorySystem::new(geometry(), SchemeSpec::None);
        let _ = system.activate_in_channel(0, 8, 1);
    }

    #[test]
    fn end_epoch_flushes_staged_accesses_first() {
        // A manually-clocked boundary must land after everything pushed
        // before it: SCA counters reset on epoch end, so if the boundary
        // fired first, the staged hammering would survive the reset and
        // trigger a refresh the reference order does not produce.
        let spec = SchemeSpec::Sca {
            counters: 16,
            threshold: 64,
        };
        let mut reference = MemorySystem::new(geometry(), spec);
        for _ in 0..60 {
            let _ = reference.activate_global(3, 50);
        }
        reference.end_epoch();
        for _ in 0..60 {
            let _ = reference.activate_global(3, 50);
        }
        let mut streamed = MemorySystem::new(geometry(), spec).with_stream_capacity(1 << 20);
        for _ in 0..60 {
            streamed.push_decoded(3, 50);
        }
        streamed.end_epoch();
        assert_eq!(streamed.pending(), 0, "end_epoch must flush the stage");
        for _ in 0..60 {
            streamed.push_decoded(3, 50);
        }
        streamed.flush();
        assert_eq!(streamed.stats(), reference.stats());
        assert_eq!(streamed.epochs(), 1);
        assert_eq!(streamed.stats().refresh_events, 0, "reset must intervene");
    }

    #[test]
    fn activate_flushes_staged_accesses_first() {
        let spec = SchemeSpec::Sca {
            counters: 16,
            threshold: 4,
        };
        let mut system = MemorySystem::new(geometry(), spec).with_stream_capacity(1 << 20);
        system.push_decoded(3, 50);
        system.push_decoded(3, 50);
        let _ = system.activate_global(3, 50);
        assert_eq!(system.pending(), 0);
        assert_eq!(system.activations_per_bank()[3], 3);
        assert_eq!(system.accesses(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot be mixed with access-count epoch accounting")]
    fn activate_on_epoch_configured_system_is_rejected() {
        let mut system = MemorySystem::new(geometry(), SchemeSpec::None).with_epoch_length(100);
        let _ = system.activate_global(0, 1);
    }

    #[test]
    #[should_panic(expected = "global bank 16 out of range")]
    fn push_of_out_of_range_bank_fails_at_the_push() {
        let mut system = MemorySystem::new(geometry(), SchemeSpec::None);
        system.push_decoded(16, 0);
    }

    #[test]
    #[should_panic(expected = "bank 16 out of range for banks 0..16")]
    fn process_of_out_of_range_bank_names_the_bank() {
        let mut system = MemorySystem::new(geometry(), SchemeSpec::None);
        system.process(&[(3, 0), (16, 0)]);
    }

    #[test]
    #[should_panic(expected = "end_epoch cannot be mixed")]
    fn manual_epoch_on_epoch_configured_system_is_rejected() {
        let mut system = MemorySystem::new(geometry(), SchemeSpec::None).with_epoch_length(100);
        system.end_epoch();
    }

    #[test]
    fn flush_of_an_empty_stage_is_a_no_op() {
        // flush() with nothing staged: default outcome, no accesses
        // counted, no epoch fired, and the scheme state untouched — also
        // repeatedly, and interleaved with real flushes.
        let spec = SchemeSpec::Sca {
            counters: 16,
            threshold: 64,
        };
        let mut system = MemorySystem::new(geometry(), spec).with_epoch_length(100);
        assert_eq!(system.flush(), BatchOutcome::default());
        assert_eq!(system.flush(), BatchOutcome::default());
        assert_eq!(system.accesses(), 0);
        assert_eq!(system.epochs(), 0);
        assert_eq!(system.stats(), MemorySystem::new(geometry(), spec).stats());

        system.push_decoded(3, 50);
        let out = system.flush();
        assert_eq!(out.accesses, 1);
        assert_eq!(
            system.flush(),
            BatchOutcome::default(),
            "stage is empty again"
        );
        assert_eq!(system.accesses(), 1);
    }

    #[test]
    fn stream_capacity_one_matches_one_big_batch() {
        // The degenerate staging capacity — every push is its own flush —
        // must still be bit-identical to processing the whole trace in one
        // batch (the determinism contract's flush-boundary invariant at
        // its extreme).
        let spec = SchemeSpec::Sca {
            counters: 16,
            threshold: 64,
        };
        let trace = batch(5_000);
        let mut batched = MemorySystem::new(geometry(), spec).with_epoch_length(777);
        batched.process(&trace);
        let mut streamed = MemorySystem::new(geometry(), spec)
            .with_epoch_length(777)
            .with_stream_capacity(1);
        for &(bank, row) in &trace {
            streamed.push_decoded(bank, row);
            assert_eq!(streamed.pending(), 0, "capacity 1 flushes every push");
        }
        let out = streamed.flush();
        assert_eq!(out.accesses, 5_000, "auto-flushes accumulate the outcome");
        assert_eq!(out.epochs, 5_000 / 777);
        assert_eq!(streamed.stats(), batched.stats());
        assert_eq!(streamed.per_bank_stats(), batched.per_bank_stats());
        assert_eq!(streamed.epochs(), batched.epochs());
        assert_eq!(streamed.accesses(), batched.accesses());
    }

    #[test]
    fn epochs_fire_at_system_wide_positions_across_batches() {
        let mut system = MemorySystem::new(geometry(), SchemeSpec::None).with_epoch_length(3_000);
        let trace = batch(10_000);
        let mut epochs = 0;
        for chunk in trace.chunks(1_700) {
            epochs += system.process(chunk).epochs;
        }
        assert_eq!(epochs, 3);
        assert_eq!(system.epochs(), 3);
        assert_eq!(system.accesses(), 10_000);
    }
}
