//! Epoch-consistent checkpoint/restore of [`MemorySystem`] state
//! (`DESIGN.md §11`).
//!
//! A checkpoint is a versioned, length-prefixed little-endian image of the
//! *complete* mutable state behind a [`MemorySystem`] — the one checkpoint
//! scope: every materialized scheme instance's counters, tree shape and
//! PRNG state (via the schemes' `save_state` word streams), the sparse
//! bank stores' occupancy **and** their touch-order-dependent
//! block-directory capacities, the epoch position, and the scratch-buffer
//! high-water marks. Restoring an image into a freshly built system of the same
//! configuration therefore reproduces not just bit-identical stats for
//! the rest of the run but a bit-identical [`crate::EngineFootprint`] —
//! the kill-and-resume differential suite asserts both. A lone
//! [`BankEngine`]'s banks checkpoint as a one-engine system
//! ([`MemorySystem::partitioned`] over `Partition::uniform(geometry, 1)`).
//!
//! Checkpoints are taken **only at epoch cuts** (positions in the global
//! access stream that are multiples of the epoch length, vacuously any
//! inter-batch position when no epoch clock is configured), with the
//! staging buffer empty. Between batches the system owns all of its
//! engines — the shard workers have handed them back — so a cut image is
//! consistent by construction, with no quiescing machinery. Engine
//! sections name their own bank range and restore re-carves them, whole
//! or bank record by record, so an image restores into any shard count.
//!
//! Decode goes through [`crate::wire`]'s bounded cursor: magic + version
//! are checked first, every count is validated against the bytes actually
//! remaining *before* anything is allocated, capacities are bounded by
//! hard caps, and the image carries a trailing FNV-1a integrity hash so
//! torn or bit-flipped files surface as typed [`io::Error`]s instead of
//! panics or silently wrong state.
//!
//! The on-disk recovery protocol of the `catd` front-end pairs the
//! checkpoint image with a bounded **trace log**: the system drain
//! (`MemorySystem::drain`, the one loop behind live ingestion) appends
//! every merged batch and stream cut to the log, and syncs it, *before*
//! processing it, and taking a checkpoint rotates the log. Crash recovery
//! ([`resume_from_dir`]) restores the newest image, then runs the log's
//! tail past the checkpoint position through that same drain — the
//! rename-then-reset window is covered by skipping, in stream order,
//! exactly the records and cut markers the image already contains.

use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use cat_core::{StateError, StateReader};

use crate::ingest::{Checked, IngestEvent};
use crate::wire::{
    bad, put_magic, put_records, put_slice, put_spec, put_u32, put_u64, unpack_record, ByteReader,
};
use crate::{BankEngine, MemorySystem};

/// Checkpoint image magic, the first four bytes of every image
/// ("CAT Checkpoint").
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"CATC";

/// Checkpoint format version. Bump on any incompatible layout change;
/// images of another version are refused instead of misparsed.
///
/// Version 2 added the owned [`crate::GeometrySlice`] (start bank + bank
/// count) to the system section, so a fleet backend's image is pinned to
/// its slice and cannot be restored into a backend serving a different
/// partition. Version 3 dropped a system-level scratch capacity from the
/// system section. Version 4 dropped the scope byte (the image always
/// captures a [`MemorySystem`]) and moved the spec string from every
/// engine section into the system section, which now also fixes the row
/// count and the epoch clock for its engine sections. Version 5 replaced
/// the engine section's four sort-scratch capacities with the four marks
/// of the bucketing scratch, and added the system's own bucketing marks
/// to the system section. Version 6 made an engine section one list of
/// bank records — bank, activation count, scheme state — in place of the
/// separate activation and scheme lists, and dropped the engine's
/// bucketing marks (only the system buckets). Version 7 stores a CAT tree
/// as its leaves in ascending row order, one counter index each, in place
/// of the root table, the intermediate-node array and its free list.
pub const CHECKPOINT_VERSION: u16 = 7;

/// Hard cap on a checkpoint image/file size — bounds what [`resume_from_dir`]
/// will read into memory.
pub const MAX_CHECKPOINT_BYTES: u64 = 1 << 30;

/// Checkpoint image filename inside a checkpoint directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Trace-log filename inside a checkpoint directory.
pub const TRACE_LOG_FILE: &str = "trace.log";

/// Hard cap on one bank's scheme-state word count — bounds the per-bank
/// allocation a forged length prefix can force.
const MAX_STATE_WORDS: u64 = 1 << 22;

/// Hard cap on a saved scratch-capacity high-water mark, in elements —
/// bounds the `reserve_exact` a forged capacity field can force.
const MAX_SCRATCH_CAP: u64 = 1 << 24;

/// Temporary filename a checkpoint is written to before the atomic rename.
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// Trace-log magic ("CAT Log").
const LOG_MAGIC: [u8; 4] = *b"CATL";
/// Trace-log format version. Version 2 added the base epoch count to the
/// header and the in-stream cut marker word.
const LOG_VERSION: u16 = 2;
/// Log header bytes: magic + version + base access count + base epochs.
const LOG_HEADER_BYTES: u64 = 4 + 2 + 8 + 8;
/// In-stream epoch-cut marker: a word whose bank half is `u32::MAX`,
/// which no validated record can carry (banks are bounded by the
/// geometry, itself capped well below `u32::MAX`). Clockless systems
/// driven by a router's epoch clock persist each wire-delivered cut as
/// one marker word, so log replay reproduces the epoch boundaries at the
/// exact stream positions they fired.
const CUT_MARKER: u64 = u32::MAX as u64;

fn state_err(e: StateError) -> io::Error {
    let kind = match e {
        StateError::Unsupported(_) => io::ErrorKind::Unsupported,
        StateError::Exhausted | StateError::Invalid(_) => io::ErrorKind::InvalidData,
    };
    io::Error::new(kind, format!("scheme state: {e}"))
}

/// `true` when `accesses` sits on an epoch cut (vacuously true without an
/// epoch clock — any inter-batch position is consistent then).
fn aligned(accesses: u64, epoch_len: Option<u64>) -> bool {
    match epoch_len {
        None => true,
        Some(n) => accesses.is_multiple_of(n),
    }
}

// ---------------------------------------------------------------------------
// Integrity seal
// ---------------------------------------------------------------------------

/// FNV-1a 64 over `bytes` — an *integrity* hash (torn writes, bit rot,
/// truncation), not an authentication code.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the integrity hash of everything written so far.
fn seal(buf: &mut Vec<u8>) {
    put_u64(buf, fnv1a(buf));
}

/// Verifies and strips the trailing integrity hash, returning the body.
fn verify_sealed(image: &[u8]) -> io::Result<&[u8]> {
    if image.len() < 8 {
        return Err(bad(format!("{}-byte checkpoint image", image.len())));
    }
    if image.len() as u64 > MAX_CHECKPOINT_BYTES {
        return Err(bad(format!(
            "{}-byte checkpoint image exceeds the {MAX_CHECKPOINT_BYTES}-byte cap",
            image.len()
        )));
    }
    let (body, tail) = image.split_at(image.len() - 8);
    if fnv1a(body) != ByteReader::new(tail).u64("integrity hash")? {
        return Err(bad("checkpoint integrity hash mismatch"));
    }
    Ok(body)
}

fn read_epoch_len(r: &mut ByteReader<'_>) -> io::Result<Option<u64>> {
    match (r.u8("epoch flag")?, r.u64("epoch length")?) {
        (0, 0) => Ok(None),
        (0, _) => Err(bad("epoch length set with a cleared epoch flag")),
        (1, 0) => Err(bad("zero epoch length with a set epoch flag")),
        (1, n) => Ok(Some(n)),
        (other, _) => Err(bad(format!("epoch flag {other} is neither 0 nor 1"))),
    }
}

// ---------------------------------------------------------------------------
// Engine section
// ---------------------------------------------------------------------------

/// Appends one engine's complete state. The system section fixes the
/// spec, the row count and the epoch clock, and writes the engine's bank
/// range ahead of this body. Layout (all little-endian):
///
/// ```text
/// u64 accesses, epochs
/// u64 block_cap                bank block-directory capacity (high-water)
/// u64 records                  then per touched bank ascending:
///                                u64 bank, u64 activations (>= 1),
///                                u64 nwords, nwords × u64 scheme state
///                                (nwords is 0 exactly when the spec is none)
/// ```
fn encode_engine_section(e: &BankEngine, out: &mut Vec<u8>) -> io::Result<()> {
    put_u64(out, e.accesses);
    put_u64(out, e.epochs);
    put_u64(out, e.banks.block_capacity() as u64);
    put_u64(out, e.banks.touched() as u64);
    let mut words: Vec<u64> = Vec::new();
    for (bank, record) in e.banks.records() {
        words.clear();
        if let Some(scheme) = &record.scheme {
            scheme.save_state(&mut words).map_err(state_err)?;
        }
        if words.len() as u64 > MAX_STATE_WORDS {
            return Err(bad(format!(
                "bank {bank} scheme state of {} words exceeds the {MAX_STATE_WORDS}-word cap",
                words.len()
            )));
        }
        put_u64(out, bank as u64);
        put_u64(out, record.activations);
        put_u64(out, words.len() as u64);
        for &w in &words {
            put_u64(out, w);
        }
    }
    Ok(())
}

/// Reads a saved scratch-capacity high-water mark, bounded by
/// [`MAX_SCRATCH_CAP`] so a forged field cannot force a huge allocation.
fn read_scratch_cap(r: &mut ByteReader<'_>, what: &str) -> io::Result<usize> {
    let cap = r.u64(what)?;
    if cap > MAX_SCRATCH_CAP {
        return Err(bad(format!(
            "{what} of {cap} exceeds the {MAX_SCRATCH_CAP}-element cap"
        )));
    }
    Ok(cap as usize)
}

/// Reads one engine section into `e`, a freshly built engine over the
/// section's bank range (the caller reads and checks that range first).
/// Validates every structural invariant.
fn decode_engine_section(r: &mut ByteReader<'_>, e: &mut BankEngine) -> io::Result<()> {
    let accesses = r.u64("access count")?;
    let epochs = r.u64("epoch count")?;
    let banks = e.bank_count();

    // Reserve the saved directory high-water mark, then re-touch in
    // ascending bank order — that reproduces the bank store's heap layout
    // bit-for-bit (a block's record capacity depends only on its record
    // count, the directory only on the reserved cap). The
    // directory holds at most ceil(banks/64) blocks, but Vec growth
    // (doubling, minimum first allocation) can leave its capacity up to
    // 2× that — or 8 for tiny stores — so bound forged values there.
    let cap_bound = banks.div_ceil(64).saturating_mul(2).max(8);
    let block_cap = r.u64("bank block capacity")? as usize;
    if block_cap > cap_bound {
        return Err(bad(format!(
            "bank directory capacity {block_cap} exceeds the {cap_bound}-block bound"
        )));
    }
    let records = r.u64("bank record count")? as usize;
    if records > banks || records.saturating_mul(24) > r.remaining() {
        return Err(bad(format!("{records} bank records exceed the image")));
    }
    e.banks.reserve_block_capacity(block_cap);
    let has_scheme = e.banks.has_scheme();
    let mut words: Vec<u64> = Vec::new();
    let mut prev: Option<usize> = None;
    let mut activated = 0u64;
    for _ in 0..records {
        let bank = r.u64("bank")?;
        if bank >= banks as u64 {
            return Err(bad(format!("bank {bank} out of range for {banks} banks")));
        }
        let bank = bank as usize;
        if let Some(p) = prev.filter(|&p| bank <= p) {
            return Err(bad(format!("bank {bank} not strictly ascending after {p}")));
        }
        prev = Some(bank);
        let count = r.u64("activation count")?;
        if count == 0 {
            return Err(bad(format!("zero activation count for bank {bank}")));
        }
        activated = activated.saturating_add(count);
        let nwords = r.u64("scheme state length")?;
        if (nwords == 0) == has_scheme {
            let want = if has_scheme { "a scheme" } else { "no scheme" };
            return Err(bad(format!(
                "bank {bank} records {nwords} scheme state words, but its spec attaches {want}"
            )));
        }
        if nwords > MAX_STATE_WORDS {
            return Err(bad(format!(
                "bank {bank} scheme state of {nwords} words exceeds the {MAX_STATE_WORDS}-word cap"
            )));
        }
        if nwords.saturating_mul(8) > r.remaining() as u64 {
            return Err(bad(format!(
                "bank {bank} scheme state of {nwords} words exceeds the image"
            )));
        }
        words.clear();
        for _ in 0..nwords {
            words.push(r.u64("scheme state word")?);
        }
        // Each bank is materialized fresh from the (already validated)
        // spec, then its saved word stream is applied with full
        // structural checks.
        let record = e.banks.touch(bank);
        record.activations = count;
        if let Some(scheme) = &mut record.scheme {
            let mut sr = StateReader::new(&words);
            scheme.restore_state(&mut sr).map_err(state_err)?;
            sr.finish().map_err(state_err)?;
        }
    }
    // Every access activates exactly one bank, so the counts must sum to
    // the access count — a re-carve recomputes accesses from them.
    if activated != accesses {
        return Err(bad(format!(
            "activation counts sum to {activated}, engine counted {accesses} accesses"
        )));
    }

    e.accesses = accesses;
    e.epochs = epochs;
    Ok(())
}

// ---------------------------------------------------------------------------
// System section
// ---------------------------------------------------------------------------

/// Appends one system's complete state. Layout (all little-endian):
///
/// ```text
/// u16 spec_len + spec string   canonical SchemeSpec form, validated on restore
/// u32 × 6                      geometry, validated on restore
/// u32 start, banks             owned slice, validated on restore
/// u8 flag + u64 epoch_len      epoch clock, validated on restore
/// u64 accesses, epochs
/// u64 staged_cap               staging buffer capacity (high-water)
/// u64 × 4                      bucketing scratch capacities: tally,
///                                touched, rows, runs (high-water marks)
/// u32 engines                  then per engine in slice order:
///                                u32 banks, u32 base, engine section
/// ```
fn encode_system_section(s: &MemorySystem, out: &mut Vec<u8>) -> io::Result<()> {
    put_spec(out, &s.spec.to_string())?;
    put_slice(out, &s.geometry, s.owned.start_bank(), s.owned.banks());
    out.push(u8::from(s.epoch_len.is_some()));
    put_u64(out, s.epoch_len.unwrap_or(0));
    put_u64(out, s.accesses);
    put_u64(out, s.epochs);
    put_u64(out, s.staged.capacity() as u64);
    for mark in s.bucketer.marks() {
        put_u64(out, mark as u64);
    }
    put_u32(out, s.engines.len() as u32);
    for engine in &s.engines {
        put_u32(out, engine.banks.capacity() as u32);
        put_u32(out, engine.banks.base());
        encode_engine_section(engine, out)?;
    }
    Ok(())
}

/// Restores one system section onto a freshly built system of the same
/// configuration. The saved engine sections must tile the owned range in
/// ascending order; `MemorySystem::carve` then moves them, whole or
/// record by record, onto the target's engine layout, so the image may
/// come from any shard count. On error the target may be partially
/// mutated and must be discarded.
fn decode_system_section(s: &mut MemorySystem, r: &mut ByteReader<'_>) -> io::Result<()> {
    if s.accesses != 0 || s.epochs != 0 || !s.staged.is_empty() {
        return Err(bad("restore target is not freshly built"));
    }
    let saved = r.spec()?;
    let own = s.spec.to_string();
    if saved != own {
        return Err(bad(format!(
            "checkpoint spec `{saved}` does not match system spec `{own}`"
        )));
    }
    let (geometry, slice_start, slice_banks) = r.slice()?;
    if geometry != s.geometry {
        return Err(bad(format!(
            "checkpoint geometry {geometry:?} does not match system geometry {:?}",
            s.geometry
        )));
    }
    if slice_start != s.owned.start_bank() || slice_banks != s.owned.banks() {
        return Err(bad(format!(
            "checkpoint owns banks {slice_start}..{}, system owns {}",
            u64::from(slice_start) + u64::from(slice_banks),
            s.owned
        )));
    }
    let epoch_len = read_epoch_len(r)?;
    if epoch_len != s.epoch_len {
        return Err(bad(format!(
            "checkpoint epoch length {epoch_len:?}, system configured with {:?}",
            s.epoch_len
        )));
    }
    let accesses = r.u64("access count")?;
    let epochs = r.u64("epoch count")?;
    if !aligned(accesses, epoch_len) {
        return Err(bad(format!(
            "checkpoint position {accesses} is not an epoch cut of {epoch_len:?}"
        )));
    }
    let staged = read_scratch_cap(r, "staging buffer capacity")?;
    s.staged.reserve_exact(staged);
    let mut marks = [0usize; 4];
    for (mark, what) in marks.iter_mut().zip(["tally", "touched", "rows", "runs"]) {
        *mark = read_scratch_cap(r, &format!("bucketing {what} capacity"))?;
    }
    s.bucketer.reserve(marks);
    let owned = s.owned;
    let count = r.u32("engine count")?;
    if count == 0 || count > owned.banks() {
        return Err(bad(format!(
            "{count} engine sections for a system owning {owned}"
        )));
    }
    let rows = s.geometry.rows_per_bank;
    let mut saved = Vec::new();
    let mut next = u64::from(owned.start_bank());
    for _ in 0..count {
        let banks = r.u32("bank count")?;
        let base = r.u32("bank base")?;
        let (start, end) = (u64::from(base), u64::from(base) + u64::from(banks));
        if start != next || banks == 0 || end > u64::from(owned.end_bank()) {
            return Err(bad(format!(
                "engine section over banks {start}..{end} does not continue \
                 the owned {owned} at bank {next}"
            )));
        }
        let mut engine = BankEngine::with_bank_base(s.spec, banks, rows, base);
        decode_engine_section(r, &mut engine)?;
        if engine.epochs != epochs {
            return Err(bad(format!(
                "engine counted {} epochs, system counted {epochs}",
                engine.epochs
            )));
        }
        next += engine.bank_count() as u64;
        saved.push(engine);
    }
    if next != u64::from(owned.end_bank()) {
        return Err(bad(format!(
            "engine sections stop at bank {next}, short of the owned {owned}"
        )));
    }
    let engine_accesses = saved
        .iter()
        .fold(0u64, |sum, e| sum.saturating_add(e.accesses));
    if engine_accesses != accesses {
        return Err(bad(format!(
            "engines sum to {engine_accesses} accesses, system counted {accesses}"
        )));
    }
    s.accesses = accesses;
    s.epochs = epochs;
    let layout = s.engine_slices().to_vec();
    s.carve(saved, layout);
    Ok(())
}

impl MemorySystem {
    /// Serializes this system's complete state as a sealed checkpoint
    /// image (see the [module docs](self) for the format).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] if accesses are still staged
    /// (call [`flush`](MemorySystem::flush) first) or the system is not at
    /// an epoch cut; [`io::ErrorKind::Unsupported`] for PRA backends
    /// without PRNG state capture.
    pub fn checkpoint(&self) -> io::Result<Vec<u8>> {
        if !self.staged.is_empty() {
            return Err(bad(format!(
                "{} staged accesses pending: flush() before checkpointing",
                self.staged.len()
            )));
        }
        if !aligned(self.accesses, self.epoch_len) {
            return Err(bad(format!(
                "checkpoint off the epoch cut: {} accesses with {:?}-access epochs",
                self.accesses, self.epoch_len
            )));
        }
        let mut out = Vec::new();
        put_magic(&mut out, CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        encode_system_section(self, &mut out)?;
        seal(&mut out);
        Ok(out)
    }

    /// Restores a [`checkpoint`](Self::checkpoint) image onto this system,
    /// which must be freshly built with the same geometry, spec and epoch
    /// configuration. After a successful restore the system is bit-equal —
    /// stats, behaviour *and* footprint — to the system the image was
    /// taken from. The shard count may differ: restore re-carves the saved
    /// engines onto this system's layout, and the state is then the same
    /// bank for bank, with footprint equality in the split-invariant
    /// fields (`materialized_banks`, `scheme_bytes`).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on a corrupted or truncated image, a
    /// configuration mismatch, or a non-fresh target. On error the system
    /// may hold partial state and must be discarded.
    pub fn restore(&mut self, image: &[u8]) -> io::Result<()> {
        let body = verify_sealed(image)?;
        let mut r = ByteReader::new(body);
        r.magic("checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
        decode_system_section(self, &mut r)?;
        r.finish()
    }
}

// ---------------------------------------------------------------------------
// On-disk recovery protocol (checkpoint directory + trace log)
// ---------------------------------------------------------------------------

/// Configuration of the `catd` checkpointing front-end: where images and
/// the trace log live, and how often a periodic checkpoint is taken.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory holding [`CHECKPOINT_FILE`] and [`TRACE_LOG_FILE`]
    /// (created if absent).
    pub dir: PathBuf,
    /// Take a periodic checkpoint at every epoch cut whose epoch count is
    /// a multiple of this (≥ 1; meaningful only with an epoch clock —
    /// without one, only client-requested checkpoints fire).
    pub every_epochs: u64,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` at every epoch cut.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every_epochs: 1,
        }
    }
}

/// What [`resume_from_dir`] reconstructed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveredState {
    /// Accesses the system holds after recovery (image + replay).
    pub accesses: u64,
    /// Epoch boundaries the system has fired after recovery.
    pub epochs: u64,
    /// Whether a checkpoint image was found and restored.
    pub from_checkpoint: bool,
    /// Trace-log records replayed past the checkpoint position.
    pub replayed: u64,
}

/// Atomically publishes a checkpoint image into `dir`: write to a
/// temporary file, sync, rename over [`CHECKPOINT_FILE`]. A crash leaves
/// either the old image or the new one, never a torn file.
fn write_checkpoint_file(dir: &Path, image: &[u8]) -> io::Result<()> {
    let tmp = dir.join(CHECKPOINT_TMP);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(image)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join(CHECKPOINT_FILE))
}

/// The append-only record log pairing a checkpoint image: `CATL` magic +
/// version + the access position and epoch count it starts at, then
/// 8-byte words, each a packed record ([`crate::wire::pack_record`] layout) or a
/// [`CUT_MARKER`]. Batches are appended and synced *before* they are
/// processed, so after a crash the log always covers everything the
/// engine state could contain.
#[derive(Debug)]
pub(crate) struct TraceLog {
    file: fs::File,
    buf: Vec<u8>,
}

impl TraceLog {
    /// Opens `dir`'s trace log for appending, creating it (with
    /// `expected_end`/`expected_epochs` as its base) if absent. An
    /// existing log must line up: base + whole non-marker records ==
    /// `expected_end` (a torn trailing word from a crash is truncated
    /// away first; cut markers occupy a word but carry no access) and,
    /// unless `clocked`, base epochs + markers == `expected_epochs`.
    pub(crate) fn open_for_append(
        dir: &Path,
        expected_end: u64,
        expected_epochs: u64,
        clocked: bool,
    ) -> io::Result<TraceLog> {
        let path = dir.join(TRACE_LOG_FILE);
        let Some(mut words) = LogReader::open(&path)? else {
            let mut log = TraceLog {
                file: fs::File::create(&path)?,
                buf: Vec::new(),
            };
            log.write_header(expected_end, expected_epochs)?;
            return Ok(log);
        };
        // Cut markers occupy words but carry no access, so the position
        // arithmetic counts only record words.
        let (mut whole, mut records) = (LOG_HEADER_BYTES, 0u64);
        while let Some(word) = words.next_word()? {
            whole += 8;
            records += u64::from(word != CUT_MARKER);
        }
        // Drop a torn trailing word from a crash mid-append.
        let mut file = fs::OpenOptions::new().write(true).open(&path)?;
        if whole != file.metadata()?.len() {
            file.set_len(whole)?;
        }
        let end = words.base.saturating_add(records);
        if end != expected_end {
            return Err(bad(format!(
                "trace log covers accesses {}..{end}, system is at {expected_end}",
                words.base
            )));
        }
        let markers = (whole - LOG_HEADER_BYTES) / 8 - records;
        let epochs = words.base_epochs.saturating_add(markers);
        if !clocked && epochs != expected_epochs {
            return Err(bad(format!(
                "trace log ends at access {end} epoch {epochs}, system is at access \
                 {expected_end} epoch {expected_epochs}"
            )));
        }
        file.seek(SeekFrom::End(0))?;
        Ok(TraceLog {
            file,
            buf: Vec::new(),
        })
    }

    fn write_header(&mut self, base: u64, base_epochs: u64) -> io::Result<()> {
        self.buf.clear();
        put_magic(&mut self.buf, LOG_MAGIC, LOG_VERSION);
        put_u64(&mut self.buf, base);
        put_u64(&mut self.buf, base_epochs);
        self.file.write_all(&self.buf)?;
        self.file.sync_data()
    }

    /// Appends one merged batch and syncs it to disk — called *before*
    /// the batch is processed, so the log never trails the engine state.
    pub(crate) fn append(&mut self, batch: &[(u32, u32)]) -> io::Result<()> {
        self.buf.clear();
        put_records(&mut self.buf, batch);
        self.file.write_all(&self.buf)?;
        self.file.sync_data()
    }

    /// Appends one epoch-cut marker and syncs it — called *before* the
    /// cut is applied, mirroring [`append`](Self::append)'s write-ahead
    /// discipline, so replay fires the boundary at the same position.
    pub(crate) fn append_cut(&mut self) -> io::Result<()> {
        self.file.write_all(&CUT_MARKER.to_le_bytes())?;
        self.file.sync_data()
    }

    /// Rotates the log after a checkpoint was published: truncate and
    /// restart at `base`/`base_epochs` (the checkpoint's position). Runs
    /// *after* the image rename, so a crash between the two leaves a log
    /// that starts before the image — recovery skips the overlap.
    pub(crate) fn reset(&mut self, base: u64, base_epochs: u64) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.write_header(base, base_epochs)
    }
}

/// A trace log opened for reading: its checked header, then its words in
/// order. The one log parser, behind [`TraceLog::open_for_append`] and
/// recovery's log replay.
struct LogReader {
    words: io::BufReader<fs::File>,
    base: u64,
    base_epochs: u64,
}

impl LogReader {
    /// Opens the log at `path`; `Ok(None)` if there is none, or only a
    /// part of its header: a crash inside the first create or inside a
    /// [`TraceLog::reset`] leaves such a log, and no record can follow a
    /// header that was never whole.
    fn open(path: &Path) -> io::Result<Option<LogReader>> {
        let mut words = match fs::File::open(path) {
            Ok(f) => io::BufReader::new(f),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut header = [0u8; LOG_HEADER_BYTES as usize];
        match words.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let mut r = ByteReader::new(&header);
        r.magic("trace log", LOG_MAGIC, LOG_VERSION)?;
        let (base, base_epochs) = (r.u64("log base")?, r.u64("log base epochs")?);
        Ok(Some(LogReader {
            words,
            base,
            base_epochs,
        }))
    }

    /// The next whole word; `Ok(None)` at a clean end **or** a torn
    /// trailing word (a crash mid-append truncates to whole words).
    fn next_word(&mut self) -> io::Result<Option<u64>> {
        let mut word = [0u8; 8];
        match self.words.read_exact(&mut word) {
            Ok(()) => Ok(Some(u64::from_le_bytes(word))),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Replays the trace log at `path` past `system`'s restored position
/// through the system drain; returns the records replayed (0 if there is
/// no log). The log may start before the image (the rename-then-reset
/// window of [`TraceLog::reset`]): that overlap is skipped in stream
/// order and must hold exactly `accesses − base` records and, without an
/// epoch clock, `epochs − base_epochs` cut markers, or the replay fails
/// with [`io::ErrorKind::InvalidData`]. A clocked system refuses every
/// marker.
fn replay_tail(system: &mut MemorySystem, path: &Path) -> io::Result<u64> {
    let Some(mut log) = LogReader::open(path)? else {
        return Ok(0);
    };
    let (accesses, epochs) = (system.accesses(), system.epochs());
    if log.base > accesses || log.base_epochs > epochs {
        return Err(bad(format!(
            "trace log starts at access {} epoch {}, after the checkpoint at {accesses} \
             epoch {epochs}",
            log.base, log.base_epochs
        )));
    }
    let mut skip = accesses - log.base;
    let owed = epochs - log.base_epochs;
    let mut skip_cuts = system.epoch_length().is_none().then_some(owed);
    // One event per word past the overlap: a record or a cut.
    let next = |out: &mut Vec<(u32, u32)>| {
        while let Some(word) = log.next_word()? {
            if word == CUT_MARKER {
                match skip_cuts.as_mut() {
                    None => return Err(bad("cut marker in the trace log of a clocked system")),
                    Some(cuts @ 1..) => *cuts -= 1,
                    Some(_) if skip > 0 => {
                        return Err(bad("trace log overlap holds more cut markers than epochs"));
                    }
                    Some(_) => return Ok(Some(IngestEvent::EpochCut)),
                }
            } else if skip > 0 {
                skip -= 1;
            } else if skip_cuts > Some(0) {
                return Err(bad("trace log overlap holds fewer cut markers than epochs"));
            } else {
                // The drain range-checks every record: a log is no
                // connection, so nothing checked it on the way in.
                out.push(unpack_record(word));
                return Ok(Some(IngestEvent::Records(1)));
            }
        }
        if skip > 0 || skip_cuts > Some(0) {
            return Err(bad(format!(
                "trace log ends {skip} records and {} cut markers before the checkpoint position",
                skip_cuts.unwrap_or(0)
            )));
        }
        Ok(None)
    };
    Ok(system.drain(next, None, Checked::ByConsumer)?.accesses)
}

/// Recovers a `catd` session from a checkpoint directory: restores the
/// newest image (if any) into `system` — which must be freshly built with
/// the session's configuration — then replays the trace-log tail past the
/// image's position. An empty or absent directory recovers nothing and
/// returns a zeroed [`RecoveredState`]; the session then starts fresh.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on a corrupted image or log, a
/// configuration mismatch, or a log that does not cover the image's
/// position. On error `system` may hold partial state and must be
/// discarded.
pub fn resume_from_dir(system: &mut MemorySystem, dir: &Path) -> io::Result<RecoveredState> {
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let mut from_checkpoint = false;
    match fs::metadata(&ckpt_path) {
        Ok(meta) => {
            let len = meta.len();
            if len > MAX_CHECKPOINT_BYTES {
                return Err(bad(format!(
                    "{len}-byte checkpoint file exceeds the {MAX_CHECKPOINT_BYTES}-byte cap"
                )));
            }
            let image = fs::read(&ckpt_path)?;
            system.restore(&image)?;
            from_checkpoint = true;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let replayed = replay_tail(system, &dir.join(TRACE_LOG_FILE))?;
    Ok(RecoveredState {
        accesses: system.accesses(),
        epochs: system.epochs(),
        from_checkpoint,
        replayed,
    })
}

/// The write-ahead log of a checkpointing drain (`DESIGN.md §11`): the
/// [`TraceLog`] the drain appends every merged batch and stream cut to
/// before applying it, where and how often images publish, and the flag
/// a client's [`crate::wire::Frame::Checkpoint`] raises.
pub(crate) struct Wal<'a> {
    pub(crate) log: TraceLog,
    cfg: &'a CheckpointConfig,
    requested: &'a AtomicBool,
    /// Position of the last published image: one image per position.
    published: Option<(u64, u64)>,
}

impl<'a> Wal<'a> {
    /// Opens (or creates) `cfg.dir`'s trace log at `system`'s position.
    pub(crate) fn open(
        system: &MemorySystem,
        cfg: &'a CheckpointConfig,
        requested: &'a AtomicBool,
    ) -> io::Result<Wal<'a>> {
        if cfg.every_epochs == 0 {
            return Err(bad("checkpoint interval of zero epochs"));
        }
        fs::create_dir_all(&cfg.dir)?;
        let clocked = system.epoch_length().is_some();
        Ok(Wal {
            log: TraceLog::open_for_append(&cfg.dir, system.accesses(), system.epochs(), clocked)?,
            cfg,
            requested,
            published: None,
        })
    }

    /// The drain stands at a cut with its stage empty: consume a client
    /// request, and publish if one was pending or the cut is an epoch
    /// `boundary` (a clockless batch end is a cut but not a boundary) at
    /// a multiple of [`CheckpointConfig::every_epochs`]. Returns whether
    /// an image was published, which rotated the log.
    pub(crate) fn at_cut(&mut self, system: &MemorySystem, boundary: bool) -> io::Result<bool> {
        let asked = self.requested.swap(false, Ordering::SeqCst);
        let due = boundary && system.epochs().is_multiple_of(self.cfg.every_epochs);
        if !asked && !due {
            return Ok(false);
        }
        self.publish(system)
    }

    /// Publishes an image at `system`'s position unless it already has
    /// one or sits off an epoch cut (a stream ending mid-epoch leaves its
    /// rest in the log): image → tmp file → sync → rename, then log
    /// rotation. Order matters — see [`TraceLog::reset`].
    pub(crate) fn publish(&mut self, system: &MemorySystem) -> io::Result<bool> {
        let position = (system.accesses(), system.epochs());
        if self.published == Some(position) || !aligned(position.0, system.epoch_length()) {
            return Ok(false);
        }
        write_checkpoint_file(&self.cfg.dir, &system.checkpoint()?)?;
        self.log.reset(position.0, position.1)?;
        self.published = Some(position);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemGeometry;
    use cat_core::SchemeSpec;

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

    fn spec() -> SchemeSpec {
        SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: 512,
        }
    }

    fn trace(n: u64) -> Vec<(u32, u32)> {
        (0..n)
            .map(|i| {
                let bank = (i % 16) as u32;
                let row = if i % 3 == 0 {
                    77
                } else {
                    (i.wrapping_mul(2_654_435_761) % 4096) as u32
                };
                (bank, row)
            })
            .collect()
    }

    fn fresh() -> MemorySystem {
        MemorySystem::new(geometry(), spec()).with_epoch_length(1000)
    }

    #[test]
    fn system_round_trip_is_bit_exact() {
        let trace = trace(7000);
        let mut original = fresh();
        original.process(&trace[..4000]);
        let image = original.checkpoint().unwrap();

        let mut restored = fresh();
        restored.restore(&image).unwrap();
        assert_eq!(restored.accesses(), original.accesses());
        assert_eq!(restored.epochs(), original.epochs());
        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.footprint(), original.footprint());

        original.process(&trace[4000..]);
        restored.process(&trace[4000..]);
        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.footprint(), original.footprint());
    }

    #[test]
    fn checkpoint_refuses_misaligned_positions() {
        let trace = trace(1500);
        let mut system = fresh();
        system.process(&trace);
        let err = system.checkpoint().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("epoch cut"));

        let mut staged = fresh();
        staged.push_decoded(3, 7);
        let err = staged.checkpoint().unwrap_err();
        assert!(err.to_string().contains("staged"));
    }

    #[test]
    fn restore_refuses_mismatched_targets() {
        let trace = trace(2000);
        let mut original = fresh();
        original.process(&trace);
        let image = original.checkpoint().unwrap();

        // Non-fresh target.
        let mut used = fresh();
        used.process(&trace[..1000]);
        assert!(used
            .restore(&image)
            .unwrap_err()
            .to_string()
            .contains("fresh"));

        // Wrong spec.
        let mut other = MemorySystem::new(
            geometry(),
            SchemeSpec::Sca {
                counters: 64,
                threshold: 512,
            },
        )
        .with_epoch_length(1000);
        assert!(other
            .restore(&image)
            .unwrap_err()
            .to_string()
            .contains("spec"));

        // Wrong epoch clock.
        let mut clockless = MemorySystem::new(geometry(), spec());
        let err = clockless.restore(&image).unwrap_err();
        assert!(err.to_string().contains("epoch length"));
    }

    #[test]
    fn version_4_images_are_refused() {
        // A v4 image is a v5 image without the system section's four
        // bucketing marks; a v5 image is a v6 image whose engine sections
        // hold separate activation and scheme lists plus four marks each;
        // a v6 image is a v7 image whose CAT trees hold the pointer graph
        // (roots, intermediate nodes, their free list) in place of the leaf
        // list. All fail at the header with the typed version error, before
        // any of their layout is read.
        let mut original = fresh();
        original.process(&trace(2000));
        let image = original.checkpoint().unwrap();
        let spec_len = original.spec().to_string().len();
        let marks_at = 6 + 2 + spec_len + SYSTEM_FIXED_BYTES - 4 - 4 * 8;
        let mut v4 = image[..image.len() - 8].to_vec();
        v4.drain(marks_at..marks_at + 4 * 8);
        let v5 = image[..image.len() - 8].to_vec();
        let v6 = image[..image.len() - 8].to_vec();
        for (version, mut old) in [(4u16, v4), (5, v5), (6, v6)] {
            old[4..6].copy_from_slice(&version.to_le_bytes());
            seal(&mut old);
            let err = fresh().restore(&old).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                format!("checkpoint version {version}, this build reads {CHECKPOINT_VERSION}")
            );
        }
        assert_eq!(CHECKPOINT_VERSION, 7);
    }

    /// Deterministic LCG for the corruption sweeps (no external RNG and no
    /// wall-clock seeding in tests either).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0
        }
    }

    #[test]
    fn truncated_images_never_restore() {
        let mut original = fresh();
        original.process(&trace(3000));
        let image = original.checkpoint().unwrap();
        // Every truncation length (stride keeps the sweep fast; 0..40 cover
        // the header byte-by-byte).
        let mut lengths: Vec<usize> = (0..40.min(image.len())).collect();
        lengths.extend((40..image.len()).step_by(41));
        for len in lengths {
            let mut target = fresh();
            let err = target.restore(&image[..len]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "length {len}");
        }
    }

    #[test]
    fn bit_flips_never_restore_and_resealed_flips_never_panic() {
        let mut original = fresh();
        original.process(&trace(3000));
        let image = original.checkpoint().unwrap();
        let mut rng = Lcg(0x5eed);
        for _ in 0..200 {
            let pos = (rng.next() as usize) % image.len();
            let bit = (rng.next() % 8) as u8;
            let mut corrupt = image.clone();
            corrupt[pos] ^= 1 << bit;

            // Without recomputing the seal, the integrity hash catches it.
            let mut target = fresh();
            let err = target.restore(&corrupt).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);

            // With the seal recomputed the structural validation must
            // still yield a typed error or a semantically-validated
            // restore — never a panic or a runaway allocation.
            if pos < corrupt.len() - 8 {
                let body_len = corrupt.len() - 8;
                let h = fnv1a(&corrupt[..body_len]).to_le_bytes();
                corrupt[body_len..].copy_from_slice(&h);
                let mut target = fresh();
                let _ = target.restore(&corrupt);
            }
        }
    }

    #[test]
    fn forged_fields_never_panic_or_overallocate() {
        let mut original = fresh();
        original.process(&trace(2000));
        let image = original.checkpoint().unwrap();
        // Forge every byte offset in the body to a u64::MAX field and
        // reseal. Count and capacity fields must be refused by a bounds
        // check (count vs remaining bytes, hard caps) before anything is
        // allocated; payload words (counter values) may legally restore —
        // either way, never a panic and never a runaway allocation.
        let body_len = image.len() - 8;
        for off in 0..body_len.saturating_sub(8) {
            let mut corrupt = image.clone();
            corrupt[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let h = fnv1a(&corrupt[..body_len]).to_le_bytes();
            corrupt[body_len..].copy_from_slice(&h);
            let mut target = fresh();
            let _ = target.restore(&corrupt);
        }
    }

    /// Recomputes the integrity hash of an edited image.
    fn reseal(image: &mut [u8]) {
        let body_len = image.len() - 8;
        let h = fnv1a(&image[..body_len]).to_le_bytes();
        image[body_len..].copy_from_slice(&h);
    }

    /// Image offset of the first engine section's directory capacity (its
    /// record count and then its first record follow), found by walking
    /// a reader so the offsets stay correct if the layout ever shifts.
    fn first_engine_body(image: &[u8]) -> usize {
        let body_len = image.len() - 8;
        let mut r = ByteReader::new(&image[..body_len]);
        r.magic("checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
            .unwrap();
        let spec_len = usize::from(r.u16("spec length").unwrap());
        r.take(spec_len + SYSTEM_FIXED_BYTES, "system fields")
            .unwrap();
        let eng_fixed = 8 + 16; // bank range, access and epoch counts
        r.take(eng_fixed, "engine fields").unwrap();
        body_len - r.remaining()
    }

    #[test]
    fn forged_entry_counts_are_refused() {
        let mut original = fresh();
        original.process(&trace(2000));
        let image = original.checkpoint().unwrap();
        let cap_off = first_engine_body(&image);
        let count_off = cap_off + 8;
        for off in [cap_off, count_off] {
            let mut corrupt = image.clone();
            corrupt[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            reseal(&mut corrupt);
            let mut target = fresh();
            let err = target.restore(&corrupt).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "offset {off}");
        }

        // Bank records that no run produces: each a typed refusal.
        let word =
            |image: &[u8], off: usize| u64::from_le_bytes(image[off..off + 8].try_into().unwrap());
        let put = |image: &mut Vec<u8>, off: usize, value: u64| {
            image[off..off + 8].copy_from_slice(&value.to_le_bytes());
        };
        let first = count_off + 8; // bank, activations, word count, words
        let second = first + 24 + 8 * word(&image, first + 16) as usize;
        let mut zero_activations = image.clone();
        put(&mut zero_activations, first + 8, 0);
        let mut no_words = image.clone();
        put(&mut no_words, first + 16, 0);
        let mut descending = image.clone();
        put(&mut descending, second, word(&image, first));

        let schemeless = || MemorySystem::new(geometry(), SchemeSpec::None).with_epoch_length(1000);
        let mut none = schemeless();
        none.process(&trace(2000));
        let none_image = none.checkpoint().unwrap();
        let none_first = first_engine_body(&none_image) + 16;
        let mut with_words = none_image.clone();
        put(&mut with_words, none_first + 16, 1);
        with_words.splice(none_first + 24..none_first + 24, 7u64.to_le_bytes());

        let cases = [
            (
                "zero activations",
                zero_activations,
                "zero activation count",
            ),
            (
                "scheme record without words",
                no_words,
                "scheme state words",
            ),
            ("descending banks", descending, "not strictly ascending"),
            (
                "schemeless record with words",
                with_words,
                "scheme state words",
            ),
        ];
        for (what, mut forged, message) in cases {
            reseal(&mut forged);
            let mut target = if what.starts_with("schemeless") {
                schemeless()
            } else {
                fresh()
            };
            let err = target.restore(&forged).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains(message), "{what}: {err}");
        }
    }

    /// System-section bytes from the geometry through the engine count
    /// (the spec string ahead of them is variable-length): geometry, owned
    /// slice, epoch clock, accesses, epochs, staging capacity, the four
    /// bucketing marks, engine count.
    const SYSTEM_FIXED_BYTES: usize = 6 * 4 + 8 + 9 + 8 + 8 + 8 + 4 * 8 + 4;

    #[test]
    fn forged_engine_layouts_are_refused() {
        // Restore re-carves the saved engine sections onto the target's
        // layout, so the sections must tile the owned range exactly:
        // overlapping, gapped, short and out-of-range sections in a
        // resealed image are typed errors, never panics.
        fn forge(image: &[u8], edits: &[(usize, u32)]) -> Vec<u8> {
            let mut forged = image.to_vec();
            for &(off, value) in edits {
                forged[off..off + 4].copy_from_slice(&value.to_le_bytes());
            }
            let body_len = forged.len() - 8;
            let h = fnv1a(&forged[..body_len]).to_le_bytes();
            forged[body_len..].copy_from_slice(&h);
            forged
        }
        // Image offsets of each engine section's bank count (its base
        // follows), plus the engine count field ahead of them.
        fn layout(system: &MemorySystem) -> (usize, Vec<usize>) {
            let spec_len = system.spec().to_string().len();
            let first = 6 + 2 + spec_len + SYSTEM_FIXED_BYTES;
            let mut at = first;
            let banks_at = system
                .engines
                .iter()
                .map(|engine| {
                    let here = at;
                    let mut section = Vec::new();
                    encode_engine_section(engine, &mut section).unwrap();
                    at += 8 + section.len();
                    here
                })
                .collect();
            (first - 4, banks_at)
        }

        // A 4-shard system: sections over banks 0..4, 4..8, 8..12, 12..16.
        let mut wide = fresh().with_shards(4);
        wide.process(&trace(2000));
        let image = wide.checkpoint().unwrap();
        let (count_at, banks_at) = layout(&wide);
        let base_at = |s: usize| banks_at[s] + 4;
        // A fleet backend owning banks 8..16 in one section.
        let slice = crate::Partition::uniform(geometry(), 2).unwrap().slices()[1];
        let sliced = || MemorySystem::for_slice(&slice, spec()).with_epoch_length(1000);
        let mut backend = sliced();
        let owned: Vec<(u32, u32)> = trace(4000)
            .into_iter()
            .filter(|&(bank, _)| slice.contains(bank))
            .collect();
        backend.process(&owned);
        let backend_image = backend.checkpoint().unwrap();
        let (_, backend_banks_at) = layout(&backend);

        let cases = [
            ("overlapping", &image, vec![(base_at(1), 0)]),
            ("gapped", &image, vec![(base_at(1), 8)]),
            ("past the owned range", &image, vec![(base_at(3), 16)]),
            ("short of the owned range", &image, vec![(count_at, 3)]),
            (
                "below the owned range",
                &backend_image,
                vec![(backend_banks_at[0] + 4, 0)],
            ),
        ];
        for (what, image, edits) in cases {
            let mut target = if image == &backend_image {
                sliced()
            } else {
                fresh()
            };
            let err = target.restore(&forge(image, &edits)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains("engine section"), "{what}: {err}");
        }
    }

    #[test]
    fn forged_tree_shapes_are_refused() {
        // A resealed image whose CAT leaves do not tile the bank — here the
        // first split leaf (a left child) made one level shallower, so it
        // covers its sibling's rows too and every later leaf shifts by its
        // old span — is a typed error at restore: refilling the leaf table
        // is also the shape check.
        let mut original = fresh();
        original.process(&trace(2000));
        // One epoch hammering a row of bank 0, so its tree splits.
        original.process(&[(0, 7); 1000]);
        let image = original.checkpoint().unwrap();
        let scheme = original.engines[0].schemes().next().unwrap();
        let mut words = Vec::new();
        scheme.save_state(&mut words).unwrap();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let at = image
            .windows(bytes.len())
            .position(|w| w == bytes)
            .expect("the bank's scheme words are in the image");
        // DRCAT words: kind tag, stats, active count, growth latch,
        // counter count, counters, leaf count, leaves.
        let mut stats = Vec::new();
        cat_core::SchemeStats::default().save_state(&mut stats);
        let counters_at = 1 + stats.len() + 3;
        let leaves_at = counters_at + words[counters_at - 1] as usize + 1;
        // 64 counters pre-split to λ = 6: roots sit at depth 5.
        let split = words[leaves_at..leaves_at + words[leaves_at - 1] as usize]
            .iter()
            .map(|&c| counters_at + c as usize)
            .find(|&at| words[at] >> 40 & 0xff > 5)
            .expect("the bank's tree has split");
        let mut forged = image.clone();
        let off = at + 8 * split;
        let shallower = words[split] - (1 << 40);
        forged[off..off + 8].copy_from_slice(&shallower.to_le_bytes());
        let body_len = forged.len() - 8;
        let h = fnv1a(&forged[..body_len]).to_le_bytes();
        forged[body_len..].copy_from_slice(&h);
        let err = fresh().restore(&forged).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("tree leaf misaligned"), "{err}");
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("catree-checkpoint-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn trace_log_round_trips_with_rotation_and_torn_tail() {
        let dir = temp_dir("log");
        let trace = trace(5000);

        let mut log = TraceLog::open_for_append(&dir, 0, 0, true).unwrap();
        log.append(&trace[..2000]).unwrap();
        log.reset(1000, 1).unwrap(); // as if a checkpoint landed at access 1000
        log.append(&trace[1000..3000]).unwrap();
        drop(log);

        // Tear the final record, as a crash mid-append would.
        let path = dir.join(TRACE_LOG_FILE);
        let len = fs::metadata(&path).unwrap().len();
        let torn = fs::OpenOptions::new().write(true).open(&path).unwrap();
        torn.set_len(len - 3).unwrap();
        drop(torn);

        // Replay from a fresh system standing at access 1000 worth of
        // state — here zero state, so feed the first 1000 by hand.
        let mut reference = fresh();
        reference.process(&trace[..2999]); // torn tail dropped the 3000th
        let mut resumed = fresh();
        resumed.process(&trace[..1000]);
        let replayed = replay_tail(&mut resumed, &path).unwrap();
        assert_eq!(replayed, 1999);
        assert_eq!(resumed.accesses(), 2999);
        assert_eq!(resumed.stats(), reference.stats());

        // Reopening for append after the torn tail truncates and lines up.
        let log = TraceLog::open_for_append(&dir, 2999, 2, true).unwrap();
        drop(log);
        let err = TraceLog::open_for_append(&dir, 1234, 1, true).unwrap_err();
        assert!(err.to_string().contains("covers"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn image_and_log_bytes_are_pinned() {
        // Restore round trips cannot catch a change made to encode and
        // decode alike: pin the version-7 image of a fixed DRCAT system
        // by its length and FNV-1a digest, and a version-2 log header
        // byte for byte.
        let mut system = fresh();
        system.process(&trace(2000));
        let image = system.checkpoint().unwrap();
        assert_eq!(
            (image.len(), fnv1a(&image)),
            (27_604, 0xbbf1_da58_4525_0aba)
        );

        let dir = temp_dir("log-header");
        drop(TraceLog::open_for_append(&dir, 0x0102_0304_0506_0708, 3, true).unwrap());
        let header = fs::read(dir.join(TRACE_LOG_FILE)).unwrap();
        let want = b"CATL\x02\x00\x08\x07\x06\x05\x04\x03\x02\x01\x03\x00\x00\x00\x00\x00\x00\x00";
        assert_eq!(header, want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_shorter_than_its_header_reads_as_no_log() {
        // A crash inside the first create, or inside `reset` between
        // `set_len(0)` and the new header's sync, leaves a log shorter
        // than its header. No record can sit behind such a header: resume
        // stands at the image, and the log is recreated there.
        let dir = temp_dir("torn-header");
        let trace = trace(3000);
        let mut session = fresh();
        session.process(&trace[..2000]);
        write_checkpoint_file(&dir, &session.checkpoint().unwrap()).unwrap();
        let mut reference = fresh();
        reference.process(&trace);
        let path = dir.join(TRACE_LOG_FILE);
        for len in [0, 1, LOG_HEADER_BYTES - 1] {
            drop(TraceLog::open_for_append(&dir, 2000, 2, true).unwrap());
            let torn = fs::OpenOptions::new().write(true).open(&path).unwrap();
            torn.set_len(len).unwrap();
            drop(torn);

            let mut resumed = fresh();
            let state = resume_from_dir(&mut resumed, &dir).unwrap();
            assert_eq!(
                (state.accesses, state.replayed),
                (2000, 0),
                "{len}-byte log"
            );
            assert_eq!(resumed.stats(), session.stats(), "{len}-byte log");
            assert_eq!(resumed.footprint(), session.footprint(), "{len}-byte log");

            let mut log = TraceLog::open_for_append(&dir, 2000, 2, true).unwrap();
            log.append(&trace[2000..]).unwrap();
            drop(log);
            let mut resumed = fresh();
            let state = resume_from_dir(&mut resumed, &dir).unwrap();
            assert_eq!(
                (state.accesses, state.replayed),
                (3000, 1000),
                "{len}-byte log"
            );
            assert_eq!(resumed.stats(), reference.stats(), "{len}-byte log");
            fs::remove_file(&path).unwrap();
        }

        // A whole header with a forged magic is still a refusal.
        fs::write(&path, [b'X'; LOG_HEADER_BYTES as usize]).unwrap();
        let errs = [
            resume_from_dir(&mut fresh(), &dir).unwrap_err(),
            TraceLog::open_for_append(&dir, 2000, 2, true).unwrap_err(),
        ];
        for err in errs {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("bad magic"), "{err}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clockless_log_reopen_checks_the_epoch_base() {
        // A log left at access 0 epoch 3 (a clockless image after three
        // stream cuts and no records) must not be appended to by a fresh
        // clockless system at epoch 0: a crash before its first image
        // would resume from the stale image and its stale markers.
        let dir = temp_dir("log-epochs");
        drop(TraceLog::open_for_append(&dir, 0, 3, false).unwrap());
        let err = TraceLog::open_for_append(&dir, 0, 0, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("epoch 3"), "{err}");
        assert!(err.to_string().contains("epoch 0"), "{err}");
        // The log's markers count towards its end position.
        let mut log = TraceLog::open_for_append(&dir, 0, 3, false).unwrap();
        log.append_cut().unwrap();
        drop(log);
        drop(TraceLog::open_for_append(&dir, 0, 4, false).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_from_dir_recovers_image_plus_log_tail() {
        let dir = temp_dir("resume");
        let trace = trace(5500);

        // A "session" that checkpoints at access 3000 and logs to 5500,
        // then crashes (we just stop).
        let mut session = fresh();
        session.process(&trace[..3000]);
        write_checkpoint_file(&dir, &session.checkpoint().unwrap()).unwrap();
        let mut log = TraceLog::open_for_append(&dir, 3000, 3, true).unwrap();
        log.append(&trace[3000..5500]).unwrap();
        drop(log);
        session.process(&trace[3000..5500]);

        let mut resumed = fresh();
        let state = resume_from_dir(&mut resumed, &dir).unwrap();
        assert!(state.from_checkpoint);
        assert_eq!(state.replayed, 2500);
        assert_eq!(state.accesses, 5500);
        assert_eq!(resumed.stats(), session.stats());

        // An empty directory recovers nothing.
        let empty = temp_dir("resume-empty");
        let mut blank = fresh();
        let state = resume_from_dir(&mut blank, &empty).unwrap();
        assert_eq!(
            state,
            RecoveredState {
                accesses: 0,
                epochs: 0,
                from_checkpoint: false,
                replayed: 0
            }
        );
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn replay_range_checks_the_log_tail() {
        // A trace log is no connection: nothing checked its records on
        // the way in, so replay's drain must refuse an out-of-range word
        // (a served drain trusts its readers instead).
        let dir = temp_dir("replay-check");
        let trace = trace(2000);
        let mut session = fresh();
        session.process(&trace[..1000]);
        write_checkpoint_file(&dir, &session.checkpoint().unwrap()).unwrap();
        let mut log = TraceLog::open_for_append(&dir, 1000, 1, true).unwrap();
        log.append(&trace[1000..1500]).unwrap();
        log.append(&[(16, 0)]).unwrap();
        log.append(&trace[1500..]).unwrap();
        drop(log);
        let err = resume_from_dir(&mut fresh(), &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("global bank 16"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One word of a hand-written trace log: the records `trace[a..b]`,
    /// or a cut marker.
    enum Word {
        Records(usize, usize),
        Cut,
    }

    #[test]
    fn forged_log_overlaps_are_refused() {
        // A clockless stream [0, 2000) cut [2000, 3000) cut [3000, 3500)
        // cut [3500, 4000) with the image at access 3000, epoch 2. Every log below starts
        // at access 1000, so records 1000..3000 and the cuts its header
        // puts ahead of the image are the overlap replay must skip — no
        // more and no fewer markers than that, in stream order.
        use Word::{Cut, Records as R};
        let dir = temp_dir("forged-overlap");
        let trace = trace(4000);
        let clockless = || MemorySystem::new(geometry(), spec());
        let mut reference = clockless();
        reference.process(&trace[..2000]);
        reference.end_epoch();
        reference.process(&trace[2000..3000]);
        reference.end_epoch();
        write_checkpoint_file(&dir, &reference.checkpoint().unwrap()).unwrap();
        reference.process(&trace[3000..3500]);
        reference.end_epoch();
        reference.process(&trace[3500..]);
        let write_log = |base_epochs: u64, words: &[Word]| {
            let _ = fs::remove_file(dir.join(TRACE_LOG_FILE));
            let mut log = TraceLog::open_for_append(&dir, 1000, base_epochs, false).unwrap();
            for word in words {
                match *word {
                    R(a, b) => log.append(&trace[a..b]).unwrap(),
                    Cut => log.append_cut().unwrap(),
                }
            }
        };

        // The honest log skips both overlap cuts and replays the tail's.
        write_log(
            0,
            &[
                R(1000, 2000),
                Cut,
                R(2000, 3000),
                Cut,
                R(3000, 3500),
                Cut,
                R(3500, 4000),
            ],
        );
        let mut resumed = clockless();
        let state = resume_from_dir(&mut resumed, &dir).unwrap();
        assert_eq!(
            (state.accesses, state.epochs, state.replayed),
            (4000, 3, 1000)
        );
        assert_eq!(resumed.per_bank_stats(), reference.per_bank_stats());

        let cases = [
            // Header says two overlap cuts, the log holds one: the spare
            // budget must not swallow the tail's cut.
            (
                "too few markers",
                0,
                vec![R(1000, 3000), Cut, R(3000, 3500), Cut, R(3500, 4000)],
                "fewer",
            ),
            // Header says one overlap cut, the log holds two: the second
            // must not fire an epoch inside the overlap.
            (
                "too many markers",
                1,
                vec![R(1000, 1500), Cut, R(1500, 2000), Cut, R(2000, 4000)],
                "more",
            ),
            (
                "a marker past the budget",
                2,
                vec![R(1000, 2000), Cut, R(2000, 4000)],
                "more",
            ),
            (
                "a log ending in the overlap",
                0,
                vec![R(1000, 2000), Cut],
                "ends",
            ),
        ];
        for (what, base_epochs, words, needle) in cases {
            write_log(base_epochs, &words);
            let err = resume_from_dir(&mut clockless(), &dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains(needle), "{what}: {err}");
        }

        // A system with its own epoch clock refuses any marker.
        let mut clocked = fresh();
        clocked.process(&trace[..3000]);
        write_checkpoint_file(&dir, &clocked.checkpoint().unwrap()).unwrap();
        write_log(1, &[R(1000, 2000), Cut, R(2000, 4000)]);
        let err = resume_from_dir(&mut fresh(), &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("clocked"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cut_markers_replay_bit_identically_across_the_rename_then_reset_window() {
        // A clockless backend whose epochs arrive as stream cuts, logging
        // through the drain's write-ahead log and publishing every third
        // epoch: A cut B cut C cut(publish) D cut E, then a record outside
        // the system kills the drain before it is logged. The log then
        // holds D, a cut marker, and E past the image.
        let dir = temp_dir("cut-replay");
        let trace = trace(3500);
        let stream: [&[(u32, u32)]; 5] = [
            &trace[..1000],
            &trace[1000..2000],
            &trace[2000..2600],
            &trace[2600..3100],
            &trace[3100..],
        ];
        let clockless = || MemorySystem::new(geometry(), spec());
        let cfg = CheckpointConfig {
            dir: dir.clone(),
            every_epochs: 3,
        };
        let requested = AtomicBool::new(false);
        let (mut producers, mut consumer) = crate::ingest::IngestQueue::bounded(1, 1 << 12);
        let mut producer = producers.pop().unwrap();
        for (k, part) in stream.iter().enumerate() {
            producer.send(part).unwrap();
            if k < 4 {
                producer.send_cut().unwrap();
            }
        }
        producer.send(&[(99, 0)]).unwrap();
        drop(producer);
        let mut session = clockless();
        let mut wal = Wal::open(&session, &cfg, &requested).unwrap();
        let err = session
            .drain(
                |out| Ok(consumer.next_event_into(out)),
                Some(&mut wal),
                Checked::ByConsumer,
            )
            .unwrap_err();
        assert!(err.to_string().contains("global bank 99"), "{err}");
        drop(session);

        // The uninterrupted run, and the images a publish at D's end (a
        // clockless batch end) or at the cut after it would have renamed
        // into place just before a crash skipped the log rotation.
        let mut reference = clockless();
        let mut images = Vec::new();
        for (k, part) in stream.iter().enumerate() {
            reference.process(part);
            if k == 3 {
                images.push(reference.checkpoint().unwrap());
            }
            if k < 4 {
                reference.end_epoch();
            }
            if k == 3 {
                images.push(reference.checkpoint().unwrap());
            }
        }
        let own = fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        for (image, at, replayed) in [(own, (2600, 3), 900), (images[0].clone(), (3100, 3), 400)]
            .into_iter()
            .chain([(images[1].clone(), (3100, 4), 400)])
        {
            let mut probe = clockless();
            probe.restore(&image).unwrap();
            assert_eq!((probe.accesses(), probe.epochs()), at);
            write_checkpoint_file(&dir, &image).unwrap();
            let mut resumed = clockless();
            let state = resume_from_dir(&mut resumed, &dir).unwrap();
            assert_eq!(state.replayed, replayed, "image at {at:?}");
            assert_eq!(resumed.accesses(), reference.accesses(), "image at {at:?}");
            assert_eq!(resumed.epochs(), reference.epochs(), "image at {at:?}");
            assert_eq!(resumed.stats(), reference.stats(), "image at {at:?}");
            assert_eq!(resumed.per_bank_stats(), reference.per_bank_stats());
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
