//! Physical-address ↔ DRAM-location mapping.
//!
//! USIMM's default policy — and the paper's Table I — orders the fields
//! `rw:rk:bk:ch:col:offset` from most to least significant bit. The field
//! *widths* derive from the geometry counts, so the same policy covers the
//! paper's 2-channel and 4-channel systems (§VIII-B) as well as arbitrary
//! power-of-two geometries (the multi-channel front-end is
//! [`crate::MemorySystem`]).
//!
//! This module used to live in `cat-sim`; it moved down into `cat-engine`
//! so the engine can own the whole decode-to-scheme path without depending
//! on the simulator. `cat-sim` re-exports these types and converts its
//! `SystemConfig` into a [`MemGeometry`].

use std::fmt;

/// The DRAM geometry an address mapping (and a [`crate::MemorySystem`])
/// is built over. Every field must be a nonzero power of two — see
/// [`MemGeometry::validate`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct MemGeometry {
    /// Number of memory channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Cache lines per row.
    pub lines_per_row: u32,
    /// Cache-line size in bytes.
    pub line_bytes: u32,
}

/// A geometry field that is not a nonzero power of two.
///
/// The bit-field address mapping aliases silently on non-power-of-two
/// counts (e.g. `banks_per_rank: 6` decodes two different addresses to the
/// same bank), so constructors hard-error instead.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GeometryError {
    field: &'static str,
    value: u32,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory geometry field `{}` must be a nonzero power of two, got {} \
             (a bit-field address map would silently alias)",
            self.field, self.value
        )
    }
}

impl std::error::Error for GeometryError {}

impl MemGeometry {
    /// Checks that every field is a nonzero power of two (the bit-field
    /// mapping is only injective under that condition).
    pub fn validate(&self) -> Result<(), GeometryError> {
        let fields = [
            ("channels", self.channels),
            ("ranks_per_channel", self.ranks_per_channel),
            ("banks_per_rank", self.banks_per_rank),
            ("rows_per_bank", self.rows_per_bank),
            ("lines_per_row", self.lines_per_row),
            ("line_bytes", self.line_bytes),
        ];
        for (field, value) in fields {
            if !value.is_power_of_two() {
                return Err(GeometryError { field, value });
            }
        }
        Ok(())
    }

    /// Total banks in the system.
    pub fn total_banks(&self) -> u32 {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }

    /// Banks per channel.
    pub fn banks_per_channel(&self) -> u32 {
        self.ranks_per_channel * self.banks_per_rank
    }

    /// Flat bank index of a decoded location across the whole system
    /// (`channel · ranks · banks + rank · banks + bank`).
    pub fn global_bank(&self, loc: &Location) -> u32 {
        (loc.channel * self.ranks_per_channel + loc.rank) * self.banks_per_rank + loc.bank
    }
}

impl From<&MemGeometry> for MemGeometry {
    fn from(g: &MemGeometry) -> Self {
        *g
    }
}

/// A decoded DRAM location.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index.
    pub channel: u32,
    /// Rank within the channel.
    pub rank: u32,
    /// Bank within the rank.
    pub bank: u32,
    /// Row within the bank.
    pub row: u32,
    /// Cache-line column within the row.
    pub col: u32,
}

impl Location {
    /// Flat bank index across the whole system
    /// (`channel · ranks · banks + rank · banks + bank`).
    pub fn global_bank(&self, geometry: impl Into<MemGeometry>) -> u32 {
        geometry.into().global_bank(self)
    }
}

/// Bit-field description of an address mapping.
///
/// ```
/// use cat_engine::{AddressMapping, MemGeometry};
/// let geometry = MemGeometry {
///     channels: 2,
///     ranks_per_channel: 1,
///     banks_per_rank: 8,
///     rows_per_bank: 65_536,
///     lines_per_row: 256,
///     line_bytes: 64,
/// };
/// let map = AddressMapping::new(&geometry);
/// let loc = map.decode(map.encode_line(1, 0, 3, 1_234, 17));
/// assert_eq!((loc.channel, loc.bank, loc.row, loc.col), (1, 3, 1_234, 17));
/// assert_eq!(map.decode_bank_row(map.encode_line(1, 0, 3, 9, 0)), (11, 9));
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AddressMapping {
    offset_bits: u32,
    col_bits: u32,
    ch_bits: u32,
    bk_bits: u32,
    rk_bits: u32,
    row_mask: u32,
    geometry: MemGeometry,
}

fn bits_for(n: u32) -> u32 {
    debug_assert!(n.is_power_of_two());
    n.trailing_zeros()
}

impl AddressMapping {
    /// Builds the mapping for a memory geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`MemGeometry::validate`] — a release
    /// build must never decode through an aliasing map.
    pub fn new(geometry: impl Into<MemGeometry>) -> Self {
        let g = geometry.into();
        if let Err(e) = g.validate() {
            // cat-lint: allow(panic-path) -- construction-time, documented under Panics: no peer-sent geometry reaches a mapping (the router only compares them)
            panic!("invalid memory geometry: {e}");
        }
        AddressMapping {
            offset_bits: bits_for(g.line_bytes),
            col_bits: bits_for(g.lines_per_row),
            ch_bits: bits_for(g.channels),
            bk_bits: bits_for(g.banks_per_rank),
            rk_bits: bits_for(g.ranks_per_channel),
            row_mask: g.rows_per_bank - 1,
            geometry: g,
        }
    }

    /// The geometry this mapping was built for.
    pub fn geometry(&self) -> &MemGeometry {
        &self.geometry
    }

    /// Decodes a byte address into its DRAM location.
    pub fn decode(&self, addr: u64) -> Location {
        let mut a = addr >> self.offset_bits;
        let col = (a & ((1 << self.col_bits) - 1)) as u32;
        a >>= self.col_bits;
        let channel = (a & ((1 << self.ch_bits) - 1)) as u32;
        a >>= self.ch_bits;
        let bank = (a & ((1 << self.bk_bits) - 1)) as u32;
        a >>= self.bk_bits;
        let rank = if self.rk_bits == 0 {
            0
        } else {
            (a & ((1 << self.rk_bits) - 1)) as u32
        };
        a >>= self.rk_bits;
        let row = (a as u32) & self.row_mask;
        Location {
            channel,
            rank,
            bank,
            row,
            col,
        }
    }

    /// Flat bank index of a decoded location (delegates to
    /// [`MemGeometry::global_bank`] — the formula lives there, once).
    pub fn global_bank(&self, loc: &Location) -> u32 {
        self.geometry.global_bank(loc)
    }

    /// Decodes a byte address straight to `(global bank, row)` — the form
    /// the engines consume. This is the whole decode front-end of the
    /// batched paths, so bank ids are full `u32`s end to end (no narrowing
    /// cast anywhere between here and the per-bank schemes).
    pub fn decode_bank_row(&self, addr: u64) -> (u32, u32) {
        let loc = self.decode(addr);
        (self.global_bank(&loc), loc.row)
    }

    /// Composes the byte address of a cache line at the given location —
    /// the inverse of [`decode`](Self::decode); used by the workload
    /// generators.
    pub fn encode_line(&self, channel: u32, rank: u32, bank: u32, row: u32, col: u32) -> u64 {
        let mut a = u64::from(row & self.row_mask);
        a = (a << self.rk_bits) | u64::from(rank);
        a = (a << self.bk_bits) | u64::from(bank);
        a = (a << self.ch_bits) | u64::from(channel);
        a = (a << self.col_bits) | u64::from(col);
        a << self.offset_bits
    }
}

/// A validated sub-range of a [`MemGeometry`]'s global bank space — the
/// unit of datapath partitioning (`DESIGN.md §12`).
///
/// A slice owns the contiguous global banks `start_bank ..
/// start_bank + banks`. Because the global bank order is channel-major,
/// a slice is "by channel, or by bank range within a channel" exactly
/// when it is power-of-two sized and naturally aligned — which
/// [`GeometrySlice::new`] enforces — so a slice is always either a whole
/// number of channels or a sub-range of one channel, never a misaligned
/// straddle.
///
/// Slices carry **global** bank indices end to end: a bank keeps the
/// index (and therefore the PRA seed and the checkpoint-image identity)
/// it has in the unsliced system, which is what makes per-slice engines
/// bit-identical to one flat engine (`DESIGN.md §7`) and checkpoint
/// images portable between fleet layouts.
///
/// ```
/// use cat_engine::{GeometrySlice, MemGeometry};
/// let g = MemGeometry {
///     channels: 2,
///     ranks_per_channel: 1,
///     banks_per_rank: 8,
///     rows_per_bank: 4096,
///     lines_per_row: 16,
///     line_bytes: 64,
/// };
/// let s = GeometrySlice::new(&g, 8, 8).unwrap(); // channel 1
/// assert!(s.contains(11) && !s.contains(3));
/// assert_eq!((s.start_bank(), s.banks()), (8, 8));
/// assert!(GeometrySlice::new(&g, 4, 8).is_err()); // misaligned straddle
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct GeometrySlice {
    geometry: MemGeometry,
    start_bank: u32,
    banks: u32,
}

/// Why a [`GeometrySlice`] could not be built. Slicing mistakes are
/// configuration errors reachable from remote fleet peers, so they are
/// typed values, never panics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SliceError {
    /// The underlying geometry itself is invalid.
    Geometry(GeometryError),
    /// The slice spans zero banks.
    Empty,
    /// The bank count is not a power of two (the slice would straddle
    /// the bit-field decode boundaries and alias across channels).
    NotPowerOfTwo {
        /// The offending bank count.
        banks: u32,
    },
    /// `start_bank` is not a multiple of the slice size, so the slice
    /// straddles a natural boundary (part of two channels without
    /// covering either).
    Misaligned {
        /// First global bank of the slice.
        start_bank: u32,
        /// Banks the slice spans.
        banks: u32,
    },
    /// The slice reaches past the geometry's last bank.
    OutOfRange {
        /// First global bank of the slice.
        start_bank: u32,
        /// Banks the slice spans.
        banks: u32,
        /// Banks the geometry actually has.
        total_banks: u32,
    },
}

impl fmt::Display for SliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SliceError::Geometry(e) => write!(f, "slice over an invalid geometry: {e}"),
            SliceError::Empty => write!(f, "geometry slice must span at least one bank"),
            SliceError::NotPowerOfTwo { banks } => write!(
                f,
                "geometry slice must span a power-of-two bank count, got {banks}"
            ),
            SliceError::Misaligned { start_bank, banks } => write!(
                f,
                "geometry slice of {banks} banks must start at a multiple of its size, \
                 got start bank {start_bank}"
            ),
            SliceError::OutOfRange {
                start_bank,
                banks,
                total_banks,
            } => write!(
                f,
                "geometry slice {start_bank}..{} reaches past the {total_banks}-bank geometry",
                start_bank as u64 + banks as u64
            ),
        }
    }
}

impl std::error::Error for SliceError {}

impl From<GeometryError> for SliceError {
    fn from(e: GeometryError) -> Self {
        SliceError::Geometry(e)
    }
}

impl GeometrySlice {
    /// Builds the slice `start_bank .. start_bank + banks` of `geometry`,
    /// validating the power-of-two size, natural alignment and range
    /// invariants documented on the type.
    pub fn new(
        geometry: impl Into<MemGeometry>,
        start_bank: u32,
        banks: u32,
    ) -> Result<Self, SliceError> {
        let geometry = geometry.into();
        geometry.validate()?;
        if banks == 0 {
            return Err(SliceError::Empty);
        }
        if !banks.is_power_of_two() {
            return Err(SliceError::NotPowerOfTwo { banks });
        }
        if !start_bank.is_multiple_of(banks) {
            return Err(SliceError::Misaligned { start_bank, banks });
        }
        let total_banks = geometry.total_banks();
        if u64::from(start_bank) + u64::from(banks) > u64::from(total_banks) {
            return Err(SliceError::OutOfRange {
                start_bank,
                banks,
                total_banks,
            });
        }
        Ok(GeometrySlice {
            geometry,
            start_bank,
            banks,
        })
    }

    /// The slice covering the whole geometry — what an unpartitioned
    /// system owns, and what a backend serving no `--slice` advertises.
    pub fn full(geometry: impl Into<MemGeometry>) -> Result<Self, SliceError> {
        let geometry = geometry.into();
        Self::new(geometry, 0, geometry.total_banks())
    }

    /// The slice owning exactly channel `channel` of `geometry`.
    pub fn channel(geometry: impl Into<MemGeometry>, channel: u32) -> Result<Self, SliceError> {
        let geometry = geometry.into();
        let bpc = geometry.banks_per_channel();
        Self::new(geometry, channel * bpc, bpc)
    }

    /// The geometry this slice partitions.
    pub fn geometry(&self) -> &MemGeometry {
        &self.geometry
    }

    /// First global bank of the slice.
    pub fn start_bank(&self) -> u32 {
        self.start_bank
    }

    /// Banks the slice spans.
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// One past the last global bank of the slice.
    pub fn end_bank(&self) -> u32 {
        self.start_bank + self.banks
    }

    /// Whether global bank `bank` falls inside the slice.
    #[inline]
    pub fn contains(&self, bank: u32) -> bool {
        bank.wrapping_sub(self.start_bank) < self.banks
    }
}

impl fmt::Display for GeometrySlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "banks {}..{} of {}",
            self.start_bank,
            self.end_bank(),
            self.geometry.total_banks()
        )
    }
}

/// An exact, ordered cover of a geometry's bank space by disjoint
/// [`GeometrySlice`]s — the partition the datapath routes over. The
/// position of a slice in the partition is its **slice id**; every
/// order-sensitive merge (stats, per-bank vectors, footprints) is fixed
/// by it (`DESIGN.md §12`).
///
/// ```
/// use cat_engine::{MemGeometry, Partition};
/// let g = MemGeometry {
///     channels: 2,
///     ranks_per_channel: 1,
///     banks_per_rank: 8,
///     rows_per_bank: 4096,
///     lines_per_row: 16,
///     line_bytes: 64,
/// };
/// let p = Partition::uniform(&g, 4).unwrap();
/// assert_eq!(p.len(), 4);
/// assert_eq!(p.route(0), 0);
/// assert_eq!(p.route(13), 3);
/// assert_eq!(Partition::per_channel(&g).unwrap().len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    slices: Vec<GeometrySlice>,
    /// `log2(slice size)` when every slice spans the same bank count —
    /// the routed hot path is then a shift instead of a binary search.
    uniform_shift: Option<u32>,
}

/// Why a set of slices is not a valid [`Partition`]. Like
/// [`SliceError`], these are reachable from remote fleet configuration,
/// so they are typed values, never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// One of the member slices is itself invalid.
    Slice(SliceError),
    /// The partition has no slices at all.
    Empty,
    /// Two slices were built over different geometries.
    GeometryMismatch {
        /// Index of the first slice over a different geometry.
        slice: usize,
    },
    /// Slice `slice` overlaps its predecessor (or the slices are not in
    /// ascending bank order — the slice id order *is* the bank order).
    Overlap {
        /// Index of the overlapping slice.
        slice: usize,
    },
    /// The cover has a hole before slice `slice` (or after the last
    /// slice, in which case `slice` is the partition length).
    Gap {
        /// Index of the slice after the hole.
        slice: usize,
        /// First global bank the cover is missing.
        missing_bank: u32,
    },
    /// A uniform split into `slices` parts does not divide the
    /// geometry's `total_banks` into power-of-two slices.
    UnevenSplit {
        /// Requested slice count.
        slices: u32,
        /// Banks that would have to be divided.
        total_banks: u32,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Slice(e) => write!(f, "invalid partition member: {e}"),
            PartitionError::Empty => write!(f, "partition must contain at least one slice"),
            PartitionError::GeometryMismatch { slice } => write!(
                f,
                "partition slice {slice} was built over a different geometry"
            ),
            PartitionError::Overlap { slice } => write!(
                f,
                "partition slice {slice} overlaps its predecessor (slices must be \
                 disjoint and in ascending bank order)"
            ),
            PartitionError::Gap {
                slice,
                missing_bank,
            } => write!(
                f,
                "partition does not cover bank {missing_bank} (hole before slice {slice})"
            ),
            PartitionError::UnevenSplit {
                slices,
                total_banks,
            } => write!(
                f,
                "cannot split {total_banks} banks into {slices} power-of-two slices"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<SliceError> for PartitionError {
    fn from(e: SliceError) -> Self {
        PartitionError::Slice(e)
    }
}

impl Partition {
    /// Builds a partition from slices already in ascending bank order,
    /// validating that they share one geometry and cover its bank space
    /// exactly — no overlap, no gap.
    pub fn from_slices(slices: Vec<GeometrySlice>) -> Result<Self, PartitionError> {
        let Some(first) = slices.first() else {
            return Err(PartitionError::Empty);
        };
        let geometry = first.geometry;
        let mut expected = 0u32;
        for (i, s) in slices.iter().enumerate() {
            if s.geometry != geometry {
                return Err(PartitionError::GeometryMismatch { slice: i });
            }
            if s.start_bank < expected {
                return Err(PartitionError::Overlap { slice: i });
            }
            if s.start_bank > expected {
                return Err(PartitionError::Gap {
                    slice: i,
                    missing_bank: expected,
                });
            }
            expected = s.end_bank();
        }
        if expected != geometry.total_banks() {
            return Err(PartitionError::Gap {
                slice: slices.len(),
                missing_bank: expected,
            });
        }
        let size = slices[0].banks;
        let uniform_shift = slices
            .iter()
            .all(|s| s.banks == size)
            .then(|| bits_for(size));
        Ok(Partition {
            slices,
            uniform_shift,
        })
    }

    /// The partition with one slice per channel — the layout the
    /// unpartitioned [`crate::MemorySystem`] has always used.
    pub fn per_channel(geometry: impl Into<MemGeometry>) -> Result<Self, PartitionError> {
        let geometry = geometry.into();
        let slices = (0..geometry.channels)
            .map(|c| GeometrySlice::channel(geometry, c))
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_slices(slices)
    }

    /// Splits the geometry into `slices` equal slices (`slices` must be
    /// a power of two no larger than the bank count, so every slice is a
    /// power-of-two aligned range).
    pub fn uniform(geometry: impl Into<MemGeometry>, slices: u32) -> Result<Self, PartitionError> {
        let geometry = geometry.into();
        geometry.validate().map_err(SliceError::from)?;
        let total_banks = geometry.total_banks();
        if slices == 0 || !slices.is_power_of_two() || slices > total_banks {
            return Err(PartitionError::UnevenSplit {
                slices,
                total_banks,
            });
        }
        let size = total_banks / slices;
        let members = (0..slices)
            .map(|i| GeometrySlice::new(geometry, i * size, size))
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_slices(members)
    }

    /// The geometry this partition covers.
    pub fn geometry(&self) -> &MemGeometry {
        self.slices[0].geometry()
    }

    /// The member slices, in slice-id (= ascending bank) order.
    pub fn slices(&self) -> &[GeometrySlice] {
        &self.slices
    }

    /// Number of slices.
    #[allow(clippy::len_without_is_empty)] // a partition is never empty
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// `log2` of the slice size when every slice spans the same bank
    /// count: a bank's slice id is then `bank >> shift`.
    pub(crate) fn uniform_shift(&self) -> Option<u32> {
        self.uniform_shift
    }

    /// Routes a global bank to the id of the slice that owns it — the
    /// decode hook of the partitioned datapath. Uniform partitions route
    /// with a shift; mixed slice sizes fall back to a binary search over
    /// the slice starts.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is outside the geometry (the partition covers
    /// the bank space exactly, so every in-range bank routes).
    #[inline]
    pub fn route(&self, bank: u32) -> usize {
        assert!(
            bank < self.geometry().total_banks(),
            "bank {bank} outside the partitioned geometry"
        );
        match self.uniform_shift {
            Some(shift) => (bank >> shift) as usize,
            None => self.slices.partition_point(|s| s.end_bank() <= bank),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> MemGeometry {
        MemGeometry {
            channels: 2,
            ranks_per_channel: 1,
            banks_per_rank: 8,
            rows_per_bank: 65_536,
            lines_per_row: 256,
            line_bytes: 64,
        }
    }

    #[test]
    fn round_trip() {
        let map = AddressMapping::new(geometry());
        for (ch, bank, row, col) in [(0, 0, 0, 0), (1, 7, 65_535, 255), (0, 3, 40_000, 100)] {
            let addr = map.encode_line(ch, 0, bank, row, col);
            let loc = map.decode(addr);
            assert_eq!(
                (loc.channel, loc.rank, loc.bank, loc.row, loc.col),
                (ch, 0, bank, row, col)
            );
        }
    }

    #[test]
    fn wide_geometry_round_trips_past_u16_banks() {
        // 8 × 4 × 4096 = 131_072 banks: global ids overflow u16 and must
        // survive the whole decode path unclipped.
        let g = MemGeometry {
            channels: 8,
            ranks_per_channel: 4,
            banks_per_rank: 4096,
            rows_per_bank: 16,
            lines_per_row: 2,
            line_bytes: 64,
        };
        let map = AddressMapping::new(g);
        assert_eq!(g.total_banks(), 131_072);
        for global in [0u32, 65_535, 65_536, 70_001, 131_071] {
            let bank = global % g.banks_per_rank;
            let rank = (global / g.banks_per_rank) % g.ranks_per_channel;
            let channel = global / g.banks_per_channel();
            let addr = map.encode_line(channel, rank, bank, 5, 1);
            assert_eq!(map.decode_bank_row(addr), (global, 5));
            assert_eq!(map.decode(addr).global_bank(g), global);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero power of two")]
    fn non_power_of_two_banks_hard_error() {
        // This must fail in release builds too — it used to be only a
        // debug_assert, silently aliasing the map in --release.
        let g = MemGeometry {
            banks_per_rank: 6,
            ..geometry()
        };
        let _ = AddressMapping::new(g);
    }

    #[test]
    #[should_panic(expected = "nonzero power of two")]
    fn zero_field_hard_error() {
        let g = MemGeometry {
            channels: 0,
            ..geometry()
        };
        let _ = AddressMapping::new(g);
    }

    #[test]
    fn geometry_error_names_the_field() {
        let g = MemGeometry {
            rows_per_bank: 100,
            ..geometry()
        };
        let e = g.validate().unwrap_err();
        assert!(e.to_string().contains("rows_per_bank"));
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn slice_validation_hard_errors_are_typed() {
        let g = geometry(); // 16 banks, 8 per channel
        assert_eq!(GeometrySlice::channel(g, 1).unwrap().start_bank(), 8);
        assert_eq!(GeometrySlice::new(g, 0, 0).unwrap_err(), SliceError::Empty);
        assert_eq!(
            GeometrySlice::new(g, 0, 6).unwrap_err(),
            SliceError::NotPowerOfTwo { banks: 6 }
        );
        assert_eq!(
            GeometrySlice::new(g, 4, 8).unwrap_err(),
            SliceError::Misaligned {
                start_bank: 4,
                banks: 8
            }
        );
        assert_eq!(
            GeometrySlice::new(g, 16, 8).unwrap_err(),
            SliceError::OutOfRange {
                start_bank: 16,
                banks: 8,
                total_banks: 16
            }
        );
        let bad = MemGeometry { channels: 3, ..g };
        assert!(matches!(
            GeometrySlice::full(bad).unwrap_err(),
            SliceError::Geometry(_)
        ));
    }

    #[test]
    fn slice_contains_and_display() {
        let g = geometry();
        let s = GeometrySlice::new(g, 8, 4).unwrap();
        assert!(s.contains(8) && s.contains(11));
        assert!(!s.contains(7) && !s.contains(12));
        assert_eq!(s.end_bank(), 12);
        assert_eq!(s.to_string(), "banks 8..12 of 16");
    }

    #[test]
    fn partition_covers_route_and_rejects_bad_covers() {
        let g = geometry();
        let p = Partition::uniform(g, 4).unwrap();
        for bank in 0..16 {
            let id = p.route(bank);
            assert!(p.slices()[id].contains(bank));
            assert_eq!(id, (bank / 4) as usize);
        }
        // Mixed slice sizes are a legal cover; routing falls back to the
        // binary search and still lands on the owner.
        let mixed = Partition::from_slices(vec![
            GeometrySlice::new(g, 0, 4).unwrap(),
            GeometrySlice::new(g, 4, 4).unwrap(),
            GeometrySlice::new(g, 8, 8).unwrap(),
        ])
        .unwrap();
        for bank in 0..16 {
            assert!(mixed.slices()[mixed.route(bank)].contains(bank));
        }

        assert_eq!(
            Partition::from_slices(Vec::new()).unwrap_err(),
            PartitionError::Empty
        );
        // Overlapping slices.
        assert_eq!(
            Partition::from_slices(vec![
                GeometrySlice::new(g, 0, 8).unwrap(),
                GeometrySlice::new(g, 4, 4).unwrap(),
            ])
            .unwrap_err(),
            PartitionError::Overlap { slice: 1 }
        );
        // Gapped cover in the middle…
        assert_eq!(
            Partition::from_slices(vec![
                GeometrySlice::new(g, 0, 4).unwrap(),
                GeometrySlice::new(g, 8, 8).unwrap(),
            ])
            .unwrap_err(),
            PartitionError::Gap {
                slice: 1,
                missing_bank: 4
            }
        );
        // …and at the end.
        assert_eq!(
            Partition::from_slices(vec![GeometrySlice::new(g, 0, 8).unwrap()]).unwrap_err(),
            PartitionError::Gap {
                slice: 1,
                missing_bank: 8
            }
        );
        // Two geometries cannot share a partition.
        let other = MemGeometry { channels: 4, ..g };
        assert_eq!(
            Partition::from_slices(vec![
                GeometrySlice::channel(g, 0).unwrap(),
                GeometrySlice::channel(other, 1).unwrap(),
            ])
            .unwrap_err(),
            PartitionError::GeometryMismatch { slice: 1 }
        );
        // Uniform splits must divide into power-of-two slices.
        assert_eq!(
            Partition::uniform(g, 3).unwrap_err(),
            PartitionError::UnevenSplit {
                slices: 3,
                total_banks: 16
            }
        );
        assert_eq!(
            Partition::uniform(g, 32).unwrap_err(),
            PartitionError::UnevenSplit {
                slices: 32,
                total_banks: 16
            }
        );
    }

    #[test]
    fn per_channel_partition_matches_channel_slices() {
        let g = geometry();
        let p = Partition::per_channel(g).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.slices()[1], GeometrySlice::channel(g, 1).unwrap());
        assert_eq!(p.route(7), 0);
        assert_eq!(p.route(8), 1);
        // per-channel ≡ uniform(channels) on any valid geometry.
        assert_eq!(p, Partition::uniform(g, 2).unwrap());
    }
}
