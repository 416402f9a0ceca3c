//! The versioned binary wire format of the socket/queue ingestion
//! front-end (`DESIGN.md §8`).
//!
//! Everything here is hand-rolled little-endian framing over
//! `std::io::{Read, Write}` — the workspace builds offline, so there is no
//! serde, no protobuf, no async runtime. The format is deliberately dumb:
//! fixed-width integers, one-byte frame tags, length-prefixed payloads with
//! hard caps, and an explicit version number in the handshake so the format
//! can evolve without silently misparsing old peers.
//!
//! ## Session layout
//!
//! ```text
//! client                                server (catd)
//!   │  ClientHello {magic, version,        │
//!   │    producer id}                      │
//!   ├──────────────────────────────────────►
//!   │  ServerHello {magic, version,        │
//!   │    geometry, spec, epoch_len}        │
//!   ◄──────────────────────────────────────┤
//!   │  Records {seq, (bank,row)*}          │  any number, seq = 0,1,2,…
//!   ├──────────────────────────────────────►
//!   │  Frame::Checkpoint    (optional)     │  any number, any time
//!   ├──────────────────────────────────────►
//!   │  Frame::StatsRequest  (optional)     │
//!   ├──────────────────────────────────────►
//!   │  Frame::Finish                       │
//!   ├──────────────────────────────────────►
//!   │  StatsSnapshot (iff requested;       │
//!   │    sent after ALL producers finish)  │
//!   ◄──────────────────────────────────────┤
//! ```
//!
//! Each producer numbers its records frames consecutively from zero; the
//! server verifies the sequence and feeds the frames to the deterministic
//! merge in [`crate::ingest`]. Malformed input is reported as
//! [`std::io::Error`] with [`std::io::ErrorKind::InvalidData`] — a protocol
//! violation and a truncated stream are both connection-fatal.
//!
//! Version 2 adds checkpointing (`DESIGN.md §11`): [`Frame::Checkpoint`]
//! asks a checkpointing server to publish an image at the next epoch cut
//! (a no-op tagged byte; servers without `--checkpoint-dir` refuse it).
//! Recovery happens at startup via `--resume`, never on a live system, so
//! no frame carries an image: tag `0x05`, once an inline restore image
//! that no client sent, is reserved and read as an unknown tag.
//!
//! Version 3 adds the partitioned datapath (`DESIGN.md §12`): the
//! [`ServerHello`] advertises the bank slice the backend owns
//! (`slice_start`/`slice_banks`, so a router or client can refuse a
//! misrouted connection before streaming) and the served system's stream
//! position (`accesses`/`epochs` — nonzero for a `--resume`d backend, so
//! a router can phase its epoch clock and keep accounting exact across
//! a fleet member's kill-and-resume), [`Frame::EpochCut`] carries a
//! router's epoch clock to clockless backends in the producer's sequence
//! space, and the [`StatsSnapshot`] carries the state-footprint counters
//! so a fleet's merged snapshot can be checked bit-identically against a
//! single-host run.

use std::io::{self, Read, Write};

use cat_core::SchemeStats;

use crate::{GeometrySlice, MemGeometry};

/// Protocol magic, first bytes of both hello messages ("CAT wire").
pub const MAGIC: [u8; 4] = *b"CATW";

/// Wire format version. Bump on any incompatible change; peers with a
/// different version refuse the handshake instead of misparsing frames.
/// Version 2 added the [`Frame::Checkpoint`] kind (and a restore kind
/// since retired, its tag reserved); version 3 added the [`ServerHello`]
/// slice fields, [`Frame::EpochCut`], and the [`StatsSnapshot`] footprint
/// counters. Retiring the restore kind kept version 3: every session a
/// version-3 peer accepted before is still accepted.
pub const VERSION: u16 = 3;

/// Hard cap on records per records frame — bounds the allocation a
/// malformed (or malicious) length prefix can force on the receiver.
pub const MAX_RECORDS_PER_FRAME: u32 = 1 << 20;

/// Hard cap on the spec string length in a [`ServerHello`].
pub const MAX_SPEC_LEN: u16 = 1024;

/// Bytes of one `(bank, row)` record on the wire. A record's 8 wire bytes
/// read as one little-endian `u64` **are** its [`pack_record`] value —
/// the invariant behind the server's zero-copy decode path, which turns
/// payload bytes into lane records with a single `u64::from_le_bytes` each.
pub const RECORD_BYTES: usize = 8;

/// Packs a record into its 8-byte little-endian wire layout: `bank` in
/// the low 32 bits, `row` in the high 32 (i.e. `bank` then `row`, each
/// u32 LE, on the wire). This is also the record format of the ingestion
/// lanes in [`crate::ingest`].
#[inline]
#[must_use]
pub fn pack_record(bank: u32, row: u32) -> u64 {
    u64::from(bank) | (u64::from(row) << 32)
}

/// Inverse of [`pack_record`].
#[inline]
#[must_use]
pub fn unpack_record(packed: u64) -> (u32, u32) {
    (packed as u32, (packed >> 32) as u32)
}

/// Checks records against the slice a system owns: every bank inside
/// `owned`, every row below its banks' row count. The one range rule for
/// records from a peer connection, a trace log or an in-process
/// producer: the schemes downstream assert on out-of-range rows, and a
/// panic on the shared drain thread would take the whole session down.
pub(crate) fn check_records<I>(records: I, owned: &GeometrySlice) -> io::Result<()>
where
    I: IntoIterator<Item = (u32, u32)>,
    I::IntoIter: Clone,
{
    let rows = owned.geometry().rows_per_bank;
    let records = records.into_iter();
    // A branch-free scan vectorizes (an early-exit one does not); the
    // offender is only located on the failure arm.
    let ok = |(bank, row): (u32, u32)| owned.contains(bank) & (row < rows);
    if records.clone().fold(true, |all, record| all & ok(record)) {
        return Ok(());
    }
    for (bank, row) in records {
        if !owned.contains(bank) {
            return Err(bad(format!(
                "global bank {bank} out of range for a system owning {owned}"
            )));
        }
        if row >= rows {
            return Err(bad(format!(
                "row {row} of global bank {bank} out of range for {rows}-row banks"
            )));
        }
    }
    Ok(())
}

/// The crate's typed refusal: an [`io::ErrorKind::InvalidData`] error.
pub(crate) fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Magic and version, the opening bytes of both hellos, in a buffer the
/// rest of the hello is encoded into. Control messages go out with one
/// `write_all` each: a run of small writes on an unbuffered socket lets
/// Nagle's algorithm and the peer's delayed ACK hold the tail for ~40 ms.
fn hello_prefix() -> Vec<u8> {
    let mut buf = MAGIC.to_vec();
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf
}

fn read_magic_version<R: Read>(r: &mut R, who: &str) -> io::Result<()> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(bad(format!("{who}: bad magic {magic:02x?}")));
    }
    let version = read_u16(r)?;
    if version != VERSION {
        return Err(bad(format!(
            "{who}: wire version {version}, this peer speaks {VERSION}"
        )));
    }
    Ok(())
}

/// Writes the client's opening handshake: magic + version + the
/// **producer id** this connection claims (its tie-break rank in the
/// deterministic merge, `DESIGN.md §8`). The id is chosen by the client —
/// the side that dealt the trace — because TCP accept order is racy: lane
/// assignment must follow the deal, not connection timing. A session's
/// ids must form a permutation of `0..producers`; the server rejects
/// duplicates and out-of-range claims. The hello leaves in one write.
pub fn write_client_hello<W: Write>(w: &mut W, producer_id: u32) -> io::Result<()> {
    let mut buf = hello_prefix();
    buf.extend_from_slice(&producer_id.to_le_bytes());
    w.write_all(&buf)
}

/// Reads and validates a client hello, returning the claimed producer id.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on a magic or version mismatch; I/O
/// errors pass through.
pub fn read_client_hello<R: Read>(r: &mut R) -> io::Result<u32> {
    read_magic_version(r, "client hello")?;
    read_u32(r)
}

/// The server's half of the handshake: what the [`crate::MemorySystem`]
/// behind the socket is configured as, so clients can verify they generate
/// traffic for the right machine (and reconstruct a local reference run).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerHello {
    /// The served system's DRAM geometry — always the **full** union
    /// geometry, even when this backend owns only a slice of it.
    pub geometry: MemGeometry,
    /// First global bank this backend owns ([`crate::GeometrySlice`]).
    /// `0` with `slice_banks == geometry.total_banks()` is the
    /// unpartitioned single-host case.
    pub slice_start: u32,
    /// Global banks this backend owns, starting at `slice_start`.
    pub slice_banks: u32,
    /// The scheme spec in its canonical string form (`sca:64:32768`, …).
    pub spec: String,
    /// Accesses per epoch; `None` when the server fires no automatic
    /// epoch boundaries.
    pub epoch_len: Option<u64>,
    /// Accesses already inside the served system when the session opened —
    /// `0` for a fresh system, the recovered position for a `--resume`d
    /// backend. A fleet router reads this to phase its epoch clock and to
    /// do exact end-of-session accounting across resumed backends.
    pub accesses: u64,
    /// Epoch boundaries already processed when the session opened (the
    /// counterpart of `accesses` for the epoch counter).
    pub epochs: u64,
}

/// Writes the server's handshake reply in one write.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] if the spec string exceeds
/// [`MAX_SPEC_LEN`]; I/O errors pass through.
pub fn write_server_hello<W: Write>(w: &mut W, hello: &ServerHello) -> io::Result<()> {
    let spec = hello.spec.as_bytes();
    if spec.len() > usize::from(MAX_SPEC_LEN) {
        return Err(bad(format!("spec string of {} bytes", spec.len())));
    }
    let mut buf = hello_prefix();
    let g = &hello.geometry;
    for field in [
        g.channels,
        g.ranks_per_channel,
        g.banks_per_rank,
        g.rows_per_bank,
        g.lines_per_row,
        g.line_bytes,
        hello.slice_start,
        hello.slice_banks,
    ] {
        buf.extend_from_slice(&field.to_le_bytes());
    }
    buf.extend_from_slice(&(spec.len() as u16).to_le_bytes());
    buf.extend_from_slice(spec);
    for field in [hello.epoch_len.unwrap_or(0), hello.accesses, hello.epochs] {
        buf.extend_from_slice(&field.to_le_bytes());
    }
    w.write_all(&buf)
}

/// Reads and validates a server hello (an epoch length of `0` decodes as
/// `None` — no automatic epoch accounting).
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on magic/version mismatch or an
/// oversized or non-UTF-8 spec string; I/O errors pass through.
pub fn read_server_hello<R: Read>(r: &mut R) -> io::Result<ServerHello> {
    read_magic_version(r, "server hello")?;
    let mut fields = [0u32; 6];
    for f in &mut fields {
        *f = read_u32(r)?;
    }
    let geometry = MemGeometry {
        channels: fields[0],
        ranks_per_channel: fields[1],
        banks_per_rank: fields[2],
        rows_per_bank: fields[3],
        lines_per_row: fields[4],
        line_bytes: fields[5],
    };
    let slice_start = read_u32(r)?;
    let slice_banks = read_u32(r)?;
    let len = read_u16(r)?;
    if len > MAX_SPEC_LEN {
        return Err(bad(format!("spec string of {len} bytes")));
    }
    let mut spec = vec![0u8; usize::from(len)];
    r.read_exact(&mut spec)?;
    let spec = String::from_utf8(spec).map_err(|e| bad(format!("spec not UTF-8: {e}")))?;
    let epoch_len = match read_u64(r)? {
        0 => None,
        n => Some(n),
    };
    let accesses = read_u64(r)?;
    let epochs = read_u64(r)?;
    Ok(ServerHello {
        geometry,
        slice_start,
        slice_banks,
        spec,
        epoch_len,
        accesses,
        epochs,
    })
}

/// One client → server control frame after the handshake. The records
/// frames between them — a batch of `(global bank, row)` activations in
/// stream order, tagged with the producer's consecutive sequence number
/// (the key of the deterministic merge, `DESIGN.md §8`) — are encoded by
/// [`encode_records`] and read by [`read_frame_header`] plus
/// [`read_packed_records`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Ask the server to send a [`StatsSnapshot`] once ingestion completes
    /// (i.e. after *every* producer has finished).
    StatsRequest,
    /// This producer is done; no further frames follow on this connection.
    Finish,
    /// Ask a checkpointing server to publish a checkpoint image at the
    /// next epoch cut (`DESIGN.md §11`). Servers without checkpointing
    /// configured refuse the frame (connection-fatal).
    Checkpoint,
    /// An epoch boundary in the producer's record stream (`DESIGN.md
    /// §12`): the router owns the fleet's epoch clock and delivers each
    /// cut to every backend at the exact stream position it fired, so
    /// clockless backends count epochs bit-identically to a single host.
    /// Shares the producer's sequence space with records frames so its
    /// position survives the deterministic merge. Servers that fire their
    /// own epoch boundaries refuse the frame (connection-fatal).
    EpochCut {
        /// Producer-local sequence number, shared with records frames.
        seq: u64,
    },
}

const TAG_RECORDS: u8 = 0x01;
const TAG_STATS_REQUEST: u8 = 0x02;
const TAG_FINISH: u8 = 0x03;
const TAG_CHECKPOINT: u8 = 0x04;
// 0x05 is reserved: it tagged an inline restore image in versions 2 and 3
// (no client sent it, servers refused it). Never reuse it for a new kind.
const TAG_EPOCH_CUT: u8 = 0x06;

/// Encodes a records frame of `records` with sequence number `seq` into
/// `buf` (cleared first). Clients stream many frames over one connection
/// through one buffer: after the first call at a given batch size,
/// encoding allocates nothing.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] if `records` exceeds
/// [`MAX_RECORDS_PER_FRAME`].
pub fn encode_records(buf: &mut Vec<u8>, seq: u64, records: &[(u32, u32)]) -> io::Result<()> {
    if records.len() > MAX_RECORDS_PER_FRAME as usize {
        return Err(bad(format!("{}-record frame", records.len())));
    }
    buf.clear();
    buf.reserve(RECORDS_HEADER_BYTES + records.len() * RECORD_BYTES);
    buf.resize(RECORDS_HEADER_BYTES, 0);
    for &(bank, row) in records {
        buf.extend_from_slice(&pack_record(bank, row).to_le_bytes());
    }
    seal_records(buf, seq);
    Ok(())
}

/// Bytes of a records frame's header: the tag, the sequence number and
/// the record count. The packed payload follows it.
pub(crate) const RECORDS_HEADER_BYTES: usize = 1 + 8 + 4;

/// Writes the header of a records frame built in place: `frame` is
/// [`RECORDS_HEADER_BYTES`] of room, then the payload, each record as its
/// 8 little-endian [`pack_record`] bytes. The header gets the tag, `seq`
/// and the payload's record count. The caller keeps the payload at most
/// [`MAX_RECORDS_PER_FRAME`] records. The router builds its per-backend
/// frames this way, so filling the payload *is* the encode.
pub(crate) fn seal_records(frame: &mut [u8], seq: u64) {
    let count = (frame.len() - RECORDS_HEADER_BYTES) / RECORD_BYTES;
    frame[0] = TAG_RECORDS;
    frame[1..9].copy_from_slice(&seq.to_le_bytes());
    frame[9..RECORDS_HEADER_BYTES].copy_from_slice(&(count as u32).to_le_bytes());
}

/// Writes one control frame.
///
/// # Errors
///
/// I/O errors pass through.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    match frame {
        Frame::StatsRequest => w.write_all(&[TAG_STATS_REQUEST]),
        Frame::Finish => w.write_all(&[TAG_FINISH]),
        Frame::Checkpoint => w.write_all(&[TAG_CHECKPOINT]),
        Frame::EpochCut { seq } => {
            w.write_all(&[TAG_EPOCH_CUT])?;
            write_u64(w, *seq)
        }
    }
}

/// The header of one post-handshake frame, with a records payload left
/// **unread** on the stream. This is the zero-copy server's entry point:
/// it reads the header, then pulls the payload in bounded chunks with
/// [`read_packed_records`], never materialising a `Vec<(u32, u32)>` per
/// frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameHeader {
    /// A records frame header ([`encode_records`]); `count` records
    /// follow on the stream.
    Records {
        /// Producer-local sequence number: 0 for the first frame, then +1.
        seq: u64,
        /// Records in the unread payload (≤ [`MAX_RECORDS_PER_FRAME`]).
        count: u32,
    },
    /// A [`Frame::StatsRequest`] (no payload).
    StatsRequest,
    /// A [`Frame::Finish`] (no payload).
    Finish,
    /// A [`Frame::Checkpoint`] (no payload).
    Checkpoint,
    /// A [`Frame::EpochCut`] (no payload beyond the sequence number).
    EpochCut {
        /// Producer-local sequence number, shared with records frames.
        seq: u64,
    },
}

/// Reads one frame header, validating the record count against
/// [`MAX_RECORDS_PER_FRAME`] **before** anything is allocated.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on an unknown tag or an oversized record
/// count; I/O errors (including `UnexpectedEof` on truncation) pass
/// through.
pub fn read_frame_header<R: Read>(r: &mut R) -> io::Result<FrameHeader> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    match tag[0] {
        TAG_RECORDS => {
            let seq = read_u64(r)?;
            let count = read_u32(r)?;
            if count > MAX_RECORDS_PER_FRAME {
                return Err(bad(format!("{count}-record frame")));
            }
            Ok(FrameHeader::Records { seq, count })
        }
        TAG_STATS_REQUEST => Ok(FrameHeader::StatsRequest),
        TAG_FINISH => Ok(FrameHeader::Finish),
        TAG_CHECKPOINT => Ok(FrameHeader::Checkpoint),
        TAG_EPOCH_CUT => {
            let seq = read_u64(r)?;
            Ok(FrameHeader::EpochCut { seq })
        }
        other => Err(bad(format!("unknown frame tag {other:#04x}"))),
    }
}

/// Reads exactly `count` records of a records payload into `packed`
/// (cleared first), going through the reusable byte buffer `buf`: one
/// `read_exact` into recycled storage, then one `u64::from_le_bytes` per
/// record — no per-record parsing and, after the first call at a given
/// chunk size, no allocation. Callers may split one frame's payload
/// across several calls (the server reads bounded chunks).
///
/// # Errors
///
/// I/O errors pass through (`UnexpectedEof` on a truncated payload).
pub fn read_packed_records<R: Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
    packed: &mut Vec<u64>,
    count: usize,
) -> io::Result<()> {
    buf.resize(count * RECORD_BYTES, 0);
    r.read_exact(buf)?;
    packed.clear();
    packed.extend(buf.chunks_exact(RECORD_BYTES).map(|chunk| {
        let mut bytes = [0u8; RECORD_BYTES];
        bytes.copy_from_slice(chunk);
        u64::from_le_bytes(bytes)
    }));
    Ok(())
}

/// The server's reply to a [`Frame::StatsRequest`]: the system-wide state
/// after every producer finished and the staging buffer flushed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Accesses processed, system-wide.
    pub accesses: u64,
    /// Epoch boundaries fired, system-wide.
    pub epochs: u64,
    /// Scheme statistics aggregated across all banks.
    pub stats: SchemeStats,
    /// Banks the system owns ([`crate::EngineFootprint::banks`]).
    pub banks: u64,
    /// Banks with a materialized scheme instance
    /// ([`crate::EngineFootprint::materialized_banks`]).
    pub materialized_banks: u64,
    /// Bytes of materialized scheme state
    /// ([`crate::EngineFootprint::scheme_bytes`]). The drive-style-
    /// dependent accounting scratch is deliberately **not** on the wire:
    /// the state footprint is what the determinism contract makes
    /// bit-identical across partitionings.
    pub scheme_bytes: u64,
}

/// Writes a stats snapshot. The counters go out in
/// [`SchemeStats::FIELDS`] order — the same name-checked encode table the
/// checkpoint format uses, so a new `SchemeStats` field extends both wire
/// paths (and their tests) in one place instead of silently dropping off
/// a hand-maintained positional list. The snapshot is encoded into one
/// buffer and leaves in one `write_all`, like the hellos.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_stats<W: Write>(w: &mut W, snap: &StatsSnapshot) -> io::Result<()> {
    let counters = SchemeStats::FIELDS
        .iter()
        .map(|field| (field.get)(&snap.stats));
    let fields = [snap.accesses, snap.epochs]
        .into_iter()
        .chain(counters)
        .chain([snap.banks, snap.materialized_banks, snap.scheme_bytes]);
    let buf: Vec<u8> = fields.flat_map(u64::to_le_bytes).collect();
    w.write_all(&buf)
}

/// Reads a stats snapshot (see [`write_stats`] for the field order).
///
/// # Errors
///
/// Propagates I/O errors from the reader.
pub fn read_stats<R: Read>(r: &mut R) -> io::Result<StatsSnapshot> {
    let accesses = read_u64(r)?;
    let epochs = read_u64(r)?;
    let mut stats = SchemeStats::default();
    for field in SchemeStats::FIELDS {
        (field.set)(&mut stats, read_u64(r)?);
    }
    let banks = read_u64(r)?;
    let materialized_banks = read_u64(r)?;
    let scheme_bytes = read_u64(r)?;
    Ok(StatsSnapshot {
        accesses,
        epochs,
        stats,
        banks,
        materialized_banks,
        scheme_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn hellos_round_trip() {
        let mut buf = Vec::new();
        write_client_hello(&mut buf, 7).unwrap();
        assert_eq!(read_client_hello(&mut buf.as_slice()).unwrap(), 7);

        for epoch_len in [None, Some(50_000)] {
            for (slice_start, slice_banks) in [(0, 16), (8, 8)] {
                let hello = ServerHello {
                    geometry: geometry(),
                    slice_start,
                    slice_banks,
                    spec: "drcat:64:11:32768".into(),
                    epoch_len,
                    accesses: 110_000,
                    epochs: 2,
                };
                let mut buf = Vec::new();
                write_server_hello(&mut buf, &hello).unwrap();
                assert_eq!(read_server_hello(&mut buf.as_slice()).unwrap(), hello);
            }
        }
    }

    /// A `Write` that keeps what it is sent and counts the `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn control_messages_leave_in_one_write() {
        let mut w = CountingWriter::default();
        write_client_hello(&mut w, 7).unwrap();
        assert_eq!(w.writes, 1, "client hello");
        assert_eq!(read_client_hello(&mut w.bytes.as_slice()).unwrap(), 7);

        let hello = ServerHello {
            geometry: geometry(),
            slice_start: 8,
            slice_banks: 8,
            spec: "drcat:64:11:32768".into(),
            epoch_len: Some(50_000),
            accesses: 110_000,
            epochs: 2,
        };
        let mut w = CountingWriter::default();
        write_server_hello(&mut w, &hello).unwrap();
        assert_eq!(w.writes, 1, "server hello");
        assert_eq!(read_server_hello(&mut w.bytes.as_slice()).unwrap(), hello);

        let snap = StatsSnapshot {
            accesses: 1 << 40,
            epochs: 77,
            stats: SchemeStats {
                refresh_events: 3,
                max_depth_touched: 12,
                ..SchemeStats::default()
            },
            banks: 16,
            materialized_banks: 13,
            scheme_bytes: 1 << 20,
        };
        let mut w = CountingWriter::default();
        write_stats(&mut w, &snap).unwrap();
        assert_eq!(w.writes, 1, "stats snapshot");
        assert_eq!(read_stats(&mut w.bytes.as_slice()).unwrap(), snap);
    }

    #[test]
    fn bad_magic_and_version_are_refused() {
        let err = read_client_hello(&mut b"NOPE\x01\x00".as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"));

        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&(VERSION + 1).to_le_bytes());
        let err = read_client_hello(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"));
    }

    /// Reads one frame the way the server does: the header, then a
    /// records payload through [`read_packed_records`], unpacked.
    fn read_one(r: &mut &[u8]) -> io::Result<(FrameHeader, Vec<(u32, u32)>)> {
        let header = read_frame_header(r)?;
        let (mut bytes, mut packed) = (Vec::new(), Vec::new());
        if let FrameHeader::Records { count, .. } = header {
            read_packed_records(r, &mut bytes, &mut packed, count as usize)?;
        }
        Ok((header, packed.iter().map(|&p| unpack_record(p)).collect()))
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        let mut frame = Vec::new();
        let batches: [(u64, Vec<(u32, u32)>); 2] = [
            (0, vec![(0, 1), (15, 4095), (u32::MAX, u32::MAX)]),
            (u64::MAX, Vec::new()),
        ];
        for (seq, records) in &batches {
            encode_records(&mut frame, *seq, records).unwrap();
            buf.extend_from_slice(&frame);
        }
        let controls = [
            Frame::StatsRequest,
            Frame::Finish,
            Frame::Checkpoint,
            Frame::EpochCut { seq: 17 },
            Frame::EpochCut { seq: u64::MAX },
        ];
        for f in &controls {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = buf.as_slice();
        for (seq, records) in &batches {
            let count = records.len() as u32;
            let (header, got) = read_one(&mut r).unwrap();
            assert_eq!(header, FrameHeader::Records { seq: *seq, count });
            assert_eq!(&got, records);
        }
        let headers = [
            FrameHeader::StatsRequest,
            FrameHeader::Finish,
            FrameHeader::Checkpoint,
            FrameHeader::EpochCut { seq: 17 },
            FrameHeader::EpochCut { seq: u64::MAX },
        ];
        for header in headers {
            assert_eq!(read_one(&mut r).unwrap(), (header, Vec::new()));
        }
        assert!(r.is_empty());

        // A payload split across chunked reads, like the server does, and
        // a stale encode buffer that must be cleared.
        let mut frame = vec![0xFF; 3];
        encode_records(&mut frame, 5, &[(1, 2), (3, 4), (5, 6)]).unwrap();
        let mut r = frame.as_slice();
        let header = read_frame_header(&mut r).unwrap();
        assert_eq!(header, FrameHeader::Records { seq: 5, count: 3 });
        let (mut bytes, mut packed) = (Vec::new(), Vec::new());
        read_packed_records(&mut r, &mut bytes, &mut packed, 2).unwrap();
        assert_eq!(packed, [pack_record(1, 2), pack_record(3, 4)]);
        read_packed_records(&mut r, &mut bytes, &mut packed, 1).unwrap();
        assert_eq!(packed, [pack_record(5, 6)]);
        assert!(r.is_empty());
    }

    #[test]
    fn oversized_and_unknown_frames_are_refused() {
        // A forged length prefix must not force a giant allocation.
        let mut buf = Vec::new();
        buf.push(0x01);
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame_header(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let err = read_frame_header(&mut [0x7f_u8].as_slice()).unwrap_err();
        assert!(err.to_string().contains("unknown frame tag"));

        let oversized = vec![(0u32, 0u32); MAX_RECORDS_PER_FRAME as usize + 1];
        let err = encode_records(&mut Vec::new(), 0, &oversized).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // The retired restore tag is reserved: a peer sending it (with
        // the old length prefix) meets the unknown-tag refusal.
        let mut buf = vec![0x05];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame_header(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown frame tag 0x05"));
    }

    #[test]
    fn version_one_peers_are_refused() {
        // A v1 hello, byte for byte — the frame kinds added in v2 make the
        // formats incompatible, so the handshake must refuse it.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_client_hello(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 1"));
    }

    #[test]
    fn packed_records_match_the_wire_byte_layout() {
        // pack_record IS the little-endian wire encoding of (bank, row) —
        // the invariant behind the server's zero-copy decode.
        let records = [(3u32, 0x1234_5678u32), (u32::MAX, 0)];
        let mut buf = Vec::new();
        encode_records(&mut buf, 9, &records).unwrap();
        assert_eq!(buf[0], 0x01);
        assert_eq!(buf[1..9], 9u64.to_le_bytes());
        assert_eq!(buf[9..13], 2u32.to_le_bytes());
        let payload = &buf[1 + 8 + 4..];
        assert_eq!(payload.len(), records.len() * RECORD_BYTES);
        for (chunk, &(bank, row)) in payload.chunks(RECORD_BYTES).zip(&records) {
            let mut bytes = [0u8; RECORD_BYTES];
            bytes.copy_from_slice(chunk);
            assert_eq!(u64::from_le_bytes(bytes), pack_record(bank, row));
            assert_eq!(unpack_record(pack_record(bank, row)), (bank, row));
        }
    }

    #[test]
    fn truncated_frames_report_eof() {
        let mut buf = Vec::new();
        encode_records(&mut buf, 3, &[(1, 2), (3, 4)]).unwrap();
        // Cut inside the payload and inside the header.
        for len in [buf.len() - 1, 5] {
            let err = read_one(&mut &buf[..len]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "length {len}");
        }
    }

    #[test]
    fn snapshot_round_trip() {
        // Every SchemeStats field must survive the wire — the encode table
        // is SchemeStats::FIELDS, whose own coverage test pins it to the
        // struct definition, so a new field cannot silently drop off.
        let stats = SchemeStats {
            activations: 1,
            refresh_events: 2,
            refreshed_rows: 3,
            sram_reads: 4,
            sram_writes: 5,
            prng_bits: 6,
            splits: 7,
            merges: 8,
            reconfigurations: 9,
            cache_misses: 10,
            dram_counter_transfers: 11,
            max_depth_touched: 12,
        };
        let snap = StatsSnapshot {
            accesses: 1 << 40,
            epochs: 77,
            stats,
            banks: 16,
            materialized_banks: 13,
            scheme_bytes: 1 << 20,
        };
        let mut buf = Vec::new();
        write_stats(&mut buf, &snap).unwrap();
        assert_eq!(read_stats(&mut buf.as_slice()).unwrap(), snap);
        assert_eq!(buf.len(), (5 + SchemeStats::FIELDS.len()) * 8);
    }
}
