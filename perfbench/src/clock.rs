//! The benchmark's one wall clock. Every timing in the benchmark goes
//! through [`Stamp`], so the repository's `wall-clock` lint sees exactly
//! one justified use of `Instant`: a benchmark measures host time by
//! definition, and nothing here feeds back into the engine.

// cat-lint: allow(wall-clock) -- the benchmark's host clock, see the module docs
use std::time::Instant;

/// A monotonic host timestamp.
#[derive(Clone, Copy, Debug)]
pub struct Stamp(
    // cat-lint: allow(wall-clock) -- the benchmark's host clock, see the module docs
    Instant,
);

impl Stamp {
    /// The current host time.
    #[allow(clippy::disallowed_methods)] // the benchmark's only clock read
    pub fn now() -> Stamp {
        // cat-lint: allow(wall-clock) -- the benchmark's host clock, see the module docs
        Stamp(Instant::now())
    }

    /// Seconds from `earlier` to `self` (0 if `earlier` is later).
    pub fn secs_since(self, earlier: Stamp) -> f64 {
        self.0.saturating_duration_since(earlier.0).as_secs_f64()
    }

    /// Seconds elapsed since this stamp.
    pub fn elapsed_s(self) -> f64 {
        Stamp::now().secs_since(self)
    }
}
