//! The versioned binary wire format of the socket/queue ingestion
//! front-end (`DESIGN.md §8`).
//!
//! Everything here is hand-rolled little-endian framing — the workspace
//! builds offline, so there is no serde, no protobuf, no async runtime.
//! The format is deliberately dumb: fixed-width integers, one-byte frame
//! tags, length-prefixed payloads with hard caps, and an explicit version
//! number in the handshake so the format can evolve without silently
//! misparsing old peers. Its codec, a bounded slice cursor plus `put_*`
//! writers, is the crate's only one: checkpoint images and the trace log
//! use it too.
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
/// Each record is checked once per process, where it enters it: a served
/// connection's reader checks what it decodes, and the consumer of an
/// in-process source (the system drain, the router's public scatter)
/// checks what it is handed (`crate::ingest::Checked`).
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

/// The crate's one bounded little-endian decoder: a cursor over a byte
/// slice. Every read checks the bytes actually remaining, so a forged
/// count or a cut buffer is a typed refusal before anything is allocated.
/// Checkpoint images and the trace-log header decode straight from their
/// bytes; a wire read first fills a fixed buffer from the stream (a cut
/// stream is then an [`io::ErrorKind::UnexpectedEof`]) and decodes that.
/// The matching writers are the `put_*` functions below.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        if n > self.buf.len() {
            return Err(bad(format!(
                "truncated input: {what} needs {n} bytes, {} remain",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> io::Result<[u8; N]> {
        let mut bytes = [0u8; N];
        bytes.copy_from_slice(self.take(N, what)?);
        Ok(bytes)
    }

    pub(crate) fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u16(&mut self, what: &str) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn u32(&mut self, what: &str) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn u64(&mut self, what: &str) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Checks a `what` header's magic and format version: the hellos', the
    /// checkpoint image's and the trace log's.
    pub(crate) fn magic(&mut self, what: &str, magic: [u8; 4], version: u16) -> io::Result<()> {
        let got = self.take(4, "magic")?;
        if got != magic {
            return Err(bad(format!("{what}: bad magic {got:02x?}")));
        }
        let got = self.u16("version")?;
        if got != version {
            return Err(bad(format!(
                "{what} version {got}, this build reads {version}"
            )));
        }
        Ok(())
    }

    /// A spec string's u16 length, refused above [`MAX_SPEC_LEN`].
    fn spec_len(&mut self) -> io::Result<usize> {
        let len = self.u16("spec length")?;
        if len > MAX_SPEC_LEN {
            return Err(bad(format!("spec string of {len} bytes")));
        }
        Ok(usize::from(len))
    }

    /// A spec string: its u16 length ([`MAX_SPEC_LEN`] at most), then that
    /// many bytes of UTF-8.
    pub(crate) fn spec(&mut self) -> io::Result<&'a str> {
        let len = self.spec_len()?;
        let bytes = self.take(len, "spec string")?;
        std::str::from_utf8(bytes).map_err(|e| bad(format!("spec not UTF-8: {e}")))
    }

    /// The 8 slice fields of the server hello and the checkpoint system
    /// section: the 6 geometry u32s, then the slice's start bank and bank
    /// count.
    pub(crate) fn slice(&mut self) -> io::Result<(MemGeometry, u32, u32)> {
        let mut f = [0u32; 8];
        for field in &mut f {
            *field = self.u32("slice field")?;
        }
        let geometry = MemGeometry {
            channels: f[0],
            ranks_per_channel: f[1],
            banks_per_rank: f[2],
            rows_per_bank: f[3],
            lines_per_row: f[4],
            line_bytes: f[5],
        };
        Ok((geometry, f[6], f[7]))
    }

    /// Refuses bytes left over after a whole body was decoded.
    pub(crate) fn finish(self) -> io::Result<()> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(bad(format!("{n} trailing bytes after the body"))),
        }
    }
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Writes the header [`ByteReader::magic`] checks.
pub(crate) fn put_magic(buf: &mut Vec<u8>, magic: [u8; 4], version: u16) {
    buf.extend_from_slice(&magic);
    put_u16(buf, version);
}

/// Writes the spec string [`ByteReader::spec`] reads.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] if `spec` exceeds [`MAX_SPEC_LEN`].
pub(crate) fn put_spec(buf: &mut Vec<u8>, spec: &str) -> io::Result<()> {
    if spec.len() > usize::from(MAX_SPEC_LEN) {
        return Err(bad(format!("spec string of {} bytes", spec.len())));
    }
    put_u16(buf, spec.len() as u16);
    buf.extend_from_slice(spec.as_bytes());
    Ok(())
}

/// Writes the slice fields [`ByteReader::slice`] reads.
pub(crate) fn put_slice(buf: &mut Vec<u8>, g: &MemGeometry, start: u32, banks: u32) {
    for field in [
        g.channels,
        g.ranks_per_channel,
        g.banks_per_rank,
        g.rows_per_bank,
        g.lines_per_row,
        g.line_bytes,
        start,
        banks,
    ] {
        put_u32(buf, field);
    }
}

/// Appends `records` as packed 8-byte words ([`pack_record`]): the
/// payload of a records frame and the body of the trace log.
pub(crate) fn put_records(buf: &mut Vec<u8>, records: &[(u32, u32)]) {
    buf.reserve(records.len() * RECORD_BYTES);
    for &(bank, row) in records {
        put_u64(buf, pack_record(bank, row));
    }
}

/// Fills `N` bytes from `r` for a [`ByteReader`] to decode.
fn read_array<const N: usize, R: Read>(r: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads and checks a hello's 4-byte magic and 2-byte version: a peer
/// speaking another protocol or version is refused on these 6 bytes,
/// before more are awaited.
fn read_hello_magic<R: Read>(r: &mut R, what: &str) -> io::Result<()> {
    ByteReader::new(&read_array::<6, R>(r)?).magic(what, MAGIC, VERSION)
}

/// Writes the client's opening handshake: magic + version + the
/// **producer id** this connection claims (its tie-break rank in the
/// deterministic merge, `DESIGN.md §8`). The id is chosen by the client —
/// the side that dealt the trace — because TCP accept order is racy: lane
/// assignment must follow the deal, not connection timing. A session's
/// ids must form a permutation of `0..producers`; the server rejects
/// duplicates and out-of-range claims. The hello leaves in one write:
/// control messages go out with one `write_all` each, as a run of small
/// writes on an unbuffered socket lets Nagle's algorithm and the peer's
/// delayed ACK hold the tail for ~40 ms.
pub fn write_client_hello<W: Write>(w: &mut W, producer_id: u32) -> io::Result<()> {
    let mut buf = Vec::new();
    put_magic(&mut buf, MAGIC, VERSION);
    put_u32(&mut buf, producer_id);
    w.write_all(&buf)
}

/// Reads and validates a client hello, returning the claimed producer id.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on a magic or version mismatch; I/O
/// errors pass through.
pub fn read_client_hello<R: Read>(r: &mut R) -> io::Result<u32> {
    read_hello_magic(r, "client hello")?;
    ByteReader::new(&read_array::<4, R>(r)?).u32("producer id")
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

/// Server hello bytes between its magic and its spec: the slice fields
/// and the spec length.
const SERVER_HELLO_HEAD: usize = 8 * 4 + 2;
/// Server hello bytes after its spec: epoch length, accesses, epochs.
const SERVER_HELLO_TAIL: usize = 3 * 8;

/// Writes the server's handshake reply in one write.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] if the spec string exceeds
/// [`MAX_SPEC_LEN`]; I/O errors pass through.
pub fn write_server_hello<W: Write>(w: &mut W, hello: &ServerHello) -> io::Result<()> {
    let mut buf = Vec::new();
    put_magic(&mut buf, MAGIC, VERSION);
    put_slice(
        &mut buf,
        &hello.geometry,
        hello.slice_start,
        hello.slice_banks,
    );
    put_spec(&mut buf, &hello.spec)?;
    for field in [hello.epoch_len.unwrap_or(0), hello.accesses, hello.epochs] {
        put_u64(&mut buf, field);
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
    read_hello_magic(r, "server hello")?;
    // The slice fields and the spec length, then — once the length is
    // checked — the spec and the u64s after it, in one buffer; the second
    // cursor starts at the length again so the one `spec` decoder reads it.
    let mut buf = [0u8; SERVER_HELLO_HEAD + MAX_SPEC_LEN as usize + SERVER_HELLO_TAIL];
    r.read_exact(&mut buf[..SERVER_HELLO_HEAD])?;
    let mut head = ByteReader::new(&buf[..SERVER_HELLO_HEAD]);
    let (geometry, slice_start, slice_banks) = head.slice()?;
    let end = SERVER_HELLO_HEAD + head.spec_len()? + SERVER_HELLO_TAIL;
    r.read_exact(&mut buf[SERVER_HELLO_HEAD..end])?;
    let mut rest = ByteReader::new(&buf[SERVER_HELLO_HEAD - 2..end]);
    let spec = rest.spec()?.to_owned();
    let epoch_len = match rest.u64("epoch length")? {
        0 => None,
        n => Some(n),
    };
    let accesses = rest.u64("access count")?;
    let epochs = rest.u64("epoch count")?;
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
    buf.resize(RECORDS_HEADER_BYTES, 0);
    put_records(buf, records);
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
            w.write_all(&seq.to_le_bytes())
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
            let header = read_array::<{ RECORDS_HEADER_BYTES - 1 }, R>(r)?;
            let mut header = ByteReader::new(&header);
            let seq = header.u64("sequence number")?;
            let count = header.u32("record count")?;
            if count > MAX_RECORDS_PER_FRAME {
                return Err(bad(format!("{count}-record frame")));
            }
            Ok(FrameHeader::Records { seq, count })
        }
        TAG_STATS_REQUEST => Ok(FrameHeader::StatsRequest),
        TAG_FINISH => Ok(FrameHeader::Finish),
        TAG_CHECKPOINT => Ok(FrameHeader::Checkpoint),
        TAG_EPOCH_CUT => {
            let seq = ByteReader::new(&read_array::<8, R>(r)?).u64("sequence number")?;
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

/// Bytes of a stats snapshot: accesses, epochs, the counters, then the
/// three footprint fields, a u64 each.
const STATS_BYTES: usize = (5 + SchemeStats::FIELDS.len()) * 8;

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
    let mut buf = Vec::with_capacity(STATS_BYTES);
    fields.for_each(|field| put_u64(&mut buf, field));
    w.write_all(&buf)
}

/// Reads a stats snapshot (see [`write_stats`] for the field order).
///
/// # Errors
///
/// Propagates I/O errors from the reader.
pub fn read_stats<R: Read>(r: &mut R) -> io::Result<StatsSnapshot> {
    let buf = read_array::<STATS_BYTES, R>(r)?;
    let mut r = ByteReader::new(&buf);
    let accesses = r.u64("access count")?;
    let epochs = r.u64("epoch count")?;
    let mut stats = SchemeStats::default();
    for field in SchemeStats::FIELDS {
        (field.set)(&mut stats, r.u64(field.name)?);
    }
    let banks = r.u64("bank count")?;
    let materialized_banks = r.u64("materialized bank count")?;
    let scheme_bytes = r.u64("scheme bytes")?;
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

        // Every strict prefix of every message: a cut stream is an EOF,
        // never a refusal of the bytes that did arrive, and never a panic.
        type Reader = fn(&mut &[u8]) -> io::Result<()>;
        let mut messages: Vec<(&str, Vec<u8>, Reader)> = Vec::new();
        let mut bytes = Vec::new();
        write_client_hello(&mut bytes, 7).unwrap();
        messages.push(("client hello", bytes, |r| read_client_hello(r).map(drop)));
        let hello = ServerHello {
            geometry: geometry(),
            slice_start: 8,
            slice_banks: 8,
            spec: "drcat:64:11:32768".into(),
            epoch_len: Some(50_000),
            accesses: 110_000,
            epochs: 2,
        };
        let mut bytes = Vec::new();
        write_server_hello(&mut bytes, &hello).unwrap();
        messages.push(("server hello", bytes, |r| read_server_hello(r).map(drop)));
        messages.push(("records frame", buf, |r| read_one(r).map(drop)));
        for frame in [
            Frame::StatsRequest,
            Frame::Finish,
            Frame::Checkpoint,
            Frame::EpochCut { seq: 17 },
        ] {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &frame).unwrap();
            messages.push(("control frame", bytes, |r| read_one(r).map(drop)));
        }
        let mut bytes = Vec::new();
        write_stats(&mut bytes, &StatsSnapshot::default()).unwrap();
        messages.push(("stats snapshot", bytes, |r| read_stats(r).map(drop)));
        for (what, bytes, read) in messages {
            for len in 0..bytes.len() {
                let err = read(&mut &bytes[..len]).unwrap_err();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::UnexpectedEof,
                    "{what} cut to {len}"
                );
            }
            read(&mut bytes.as_slice()).unwrap();
        }
    }

    /// The bytes a hex string spells, whitespace ignored: byte pins laid
    /// out field by field.
    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // Round trips cannot catch a change made to encode and decode
        // alike: these are the version-3 bytes, field by field.
        let mut buf = Vec::new();
        write_client_hello(&mut buf, 7).unwrap();
        assert_eq!(buf, unhex("43415457 0300 07000000"), "client hello");

        let fields = "02000000 01000000 08000000 00100000 10000000 40000000";
        let spec = "1100 64726361743a36343a31313a3332373638";
        for (epoch_len, epoch) in [
            (Some(50_000), "50c3000000000000"),
            (None, "0000000000000000"),
        ] {
            let hello = ServerHello {
                geometry: geometry(),
                slice_start: 8,
                slice_banks: 8,
                spec: "drcat:64:11:32768".into(),
                epoch_len,
                accesses: 110_000,
                epochs: 2,
            };
            let mut buf = Vec::new();
            write_server_hello(&mut buf, &hello).unwrap();
            let want = format!(
                "43415457 0300 {fields} 08000000 08000000 {spec} {epoch} \
                 b0ad010000000000 0200000000000000"
            );
            assert_eq!(buf, unhex(&want), "server hello, epoch {epoch_len:?}");
        }

        let controls = [
            (Frame::StatsRequest, "02"),
            (Frame::Finish, "03"),
            (Frame::Checkpoint, "04"),
            (
                Frame::EpochCut {
                    seq: 0x0102_0304_0506_0708,
                },
                "06 0807060504030201",
            ),
        ];
        for (frame, want) in controls {
            let mut buf = Vec::new();
            write_frame(&mut buf, &frame).unwrap();
            assert_eq!(buf, unhex(want), "{frame:?}");
        }

        let mut buf = Vec::new();
        encode_records(&mut buf, 9, &[(3, 0x1234_5678), (15, 4095)]).unwrap();
        let want = "01 0900000000000000 02000000 03000000 78563412 0f000000 ff0f0000";
        assert_eq!(buf, unhex(want), "records frame");

        let snap = StatsSnapshot {
            accesses: 1 << 40,
            epochs: 77,
            stats: SchemeStats {
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
            },
            banks: 16,
            materialized_banks: 13,
            scheme_bytes: 1 << 20,
        };
        let mut buf = Vec::new();
        write_stats(&mut buf, &snap).unwrap();
        let counters: String = (1..=12u8)
            .map(|n| format!("{n:02x}00000000000000 "))
            .collect();
        let want = format!(
            "0000000000010000 4d00000000000000 {counters} \
             1000000000000000 0d00000000000000 0000100000000000"
        );
        assert_eq!(buf, unhex(&want), "stats snapshot");
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
