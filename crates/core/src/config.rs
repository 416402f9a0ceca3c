//! Validated configuration for the CAT family of schemes.

use std::error::Error;
use std::fmt;

use crate::thresholds::{SplitThresholds, ThresholdPolicy};

/// Errors returned when a [`CatConfig`] (or other scheme configuration) is
/// inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `rows` must be a power of two ≥ 8.
    RowsNotPowerOfTwo(u32),
    /// `counters` must be a power of two ≥ 4.
    CountersInvalid(usize),
    /// `max_levels` must satisfy `λ ≤ L` and `L − 1 ≤ log2(rows)`.
    LevelsOutOfRange {
        /// Requested maximum number of levels `L`.
        max_levels: u32,
        /// Pre-split levels λ.
        lambda: u32,
        /// log2 of the number of rows.
        log2_rows: u32,
    },
    /// The refresh threshold must be at least 2.
    ThresholdTooSmall(u32),
    /// λ must satisfy `1 ≤ λ ≤ log2(counters)`.
    LambdaOutOfRange {
        /// Requested λ.
        lambda: u32,
        /// log2 of the number of counters.
        log2_counters: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::RowsNotPowerOfTwo(rows) => {
                write!(f, "rows must be a power of two >= 8, got {rows}")
            }
            ConfigError::CountersInvalid(m) => {
                write!(f, "counters must be a power of two >= 4, got {m}")
            }
            ConfigError::LevelsOutOfRange {
                max_levels,
                lambda,
                log2_rows,
            } => write!(
                f,
                "max_levels {max_levels} out of range (need lambda {lambda} <= L and L-1 <= log2(rows) = {log2_rows})"
            ),
            ConfigError::ThresholdTooSmall(t) => {
                write!(f, "refresh threshold must be >= 2, got {t}")
            }
            ConfigError::LambdaOutOfRange {
                lambda,
                log2_counters,
            } => write!(
                f,
                "lambda {lambda} out of range (need 1 <= lambda <= log2(counters) = {log2_counters})"
            ),
        }
    }
}

impl Error for ConfigError {}

/// Configuration of a CAT/PRCAT/DRCAT instance protecting one bank.
///
/// ```
/// use cat_core::{CatConfig, ThresholdPolicy};
///
/// # fn main() -> Result<(), cat_core::ConfigError> {
/// let cfg = CatConfig::new(65_536, 64, 11, 32_768)?
///     .with_policy(ThresholdPolicy::PaperCurve);
/// assert_eq!(cfg.lambda(), 6); // pre-split to log2(M) levels by default
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CatConfig {
    rows: u32,
    counters: usize,
    max_levels: u32,
    refresh_threshold: u32,
    policy: ThresholdPolicy,
    lambda: u32,
}

impl CatConfig {
    /// Creates a configuration for a bank of `rows` rows protected by
    /// `counters` counters, trees of up to `max_levels` levels and refresh
    /// threshold `refresh_threshold` (the paper's `N`, `M`, `L`, `T`).
    ///
    /// The pre-split depth λ defaults to `log2(counters)` (§IV-C) and the
    /// split-threshold policy to [`ThresholdPolicy::PaperCurve`].
    ///
    /// A [`crate::CatTree`] keeps a `2^{L−1}`-entry `u16` leaf table per
    /// bank (DESIGN.md §3.6), so its heap grows with `max_levels`, not with
    /// `counters`: 2 KiB at `L = 11`, doubling with each further level.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any parameter is out of range, e.g. when
    /// `rows` or `counters` is not a power of two, or when the tree would be
    /// deeper than `1 + log2(rows)` levels (groups smaller than one row).
    pub fn new(
        rows: u32,
        counters: usize,
        max_levels: u32,
        refresh_threshold: u32,
    ) -> Result<Self, ConfigError> {
        if !rows.is_power_of_two() || rows < 8 {
            return Err(ConfigError::RowsNotPowerOfTwo(rows));
        }
        if !counters.is_power_of_two() || counters < 4 || counters > u16::MAX as usize {
            return Err(ConfigError::CountersInvalid(counters));
        }
        if refresh_threshold < 2 {
            return Err(ConfigError::ThresholdTooSmall(refresh_threshold));
        }
        let lambda = counters.trailing_zeros();
        let cfg = CatConfig {
            rows,
            counters,
            max_levels,
            refresh_threshold,
            policy: ThresholdPolicy::PaperCurve,
            lambda,
        };
        cfg.validate_levels()?;
        Ok(cfg)
    }

    fn validate_levels(&self) -> Result<(), ConfigError> {
        let log2_rows = self.rows.trailing_zeros();
        if self.max_levels < self.lambda || self.max_levels.saturating_sub(1) > log2_rows {
            return Err(ConfigError::LevelsOutOfRange {
                max_levels: self.max_levels,
                lambda: self.lambda,
                log2_rows,
            });
        }
        Ok(())
    }

    /// Selects the split-threshold policy (default: `PaperCurve`).
    pub fn with_policy(mut self, policy: ThresholdPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the pre-split depth λ (§IV-C). `lambda = 1` starts from a
    /// single root counter exactly as in Algorithm 1.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `lambda` is 0, exceeds `log2(counters)`,
    /// or exceeds `max_levels`.
    pub fn with_lambda(mut self, lambda: u32) -> Result<Self, ConfigError> {
        let log2_counters = self.counters.trailing_zeros();
        if lambda == 0 || lambda > log2_counters {
            return Err(ConfigError::LambdaOutOfRange {
                lambda,
                log2_counters,
            });
        }
        self.lambda = lambda;
        self.validate_levels()?;
        Ok(self)
    }

    /// Number of rows per bank (`N`).
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of counters (`M`).
    pub fn counters(&self) -> usize {
        self.counters
    }

    /// Maximum number of tree levels (`L`).
    pub fn max_levels(&self) -> u32 {
        self.max_levels
    }

    /// Refresh threshold (`T`).
    pub fn refresh_threshold(&self) -> u32 {
        self.refresh_threshold
    }

    /// Split-threshold policy.
    pub fn policy(&self) -> ThresholdPolicy {
        self.policy
    }

    /// Pre-split depth λ.
    pub fn lambda(&self) -> u32 {
        self.lambda
    }

    /// Builds the per-level split thresholds for this configuration.
    pub fn split_thresholds(&self) -> SplitThresholds {
        SplitThresholds::new(
            self.policy,
            self.refresh_threshold,
            self.lambda,
            self.max_levels,
        )
    }

    /// Width of one counter in bits (`⌈log2 T⌉`, §III-B).
    pub fn counter_bits(&self) -> u32 {
        32 - (self.refresh_threshold - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_configuration() {
        let cfg = CatConfig::new(65_536, 64, 11, 32_768).unwrap();
        assert_eq!(cfg.lambda(), 6);
        assert_eq!(cfg.counter_bits(), 15);
        assert_eq!(cfg.policy(), ThresholdPolicy::PaperCurve);
    }

    #[test]
    fn rejects_non_power_of_two_rows() {
        assert_eq!(
            CatConfig::new(1000, 64, 11, 32_768),
            Err(ConfigError::RowsNotPowerOfTwo(1000))
        );
    }

    #[test]
    fn rejects_bad_counter_counts() {
        assert!(matches!(
            CatConfig::new(65_536, 3, 11, 32_768),
            Err(ConfigError::CountersInvalid(3))
        ));
        assert!(matches!(
            CatConfig::new(65_536, 48, 11, 32_768),
            Err(ConfigError::CountersInvalid(48))
        ));
    }

    #[test]
    fn rejects_too_deep_trees() {
        // 16-row bank cannot host a 6-level tree (groups < 1 row).
        assert!(matches!(
            CatConfig::new(16, 4, 6, 1024),
            Err(ConfigError::LevelsOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_levels_below_lambda() {
        // lambda defaults to log2(64) = 6 > L = 4.
        assert!(matches!(
            CatConfig::new(65_536, 64, 4, 32_768),
            Err(ConfigError::LevelsOutOfRange { .. })
        ));
    }

    #[test]
    fn lambda_override_validates() {
        let cfg = CatConfig::new(65_536, 64, 11, 32_768).unwrap();
        assert!(cfg.clone().with_lambda(0).is_err());
        assert!(cfg.clone().with_lambda(7).is_err());
        let cfg = cfg.with_lambda(1).unwrap();
        assert_eq!(cfg.lambda(), 1);
    }

    #[test]
    fn counter_bits_matches_log2_t() {
        for (t, bits) in [(32_768, 15), (16_384, 14), (8_192, 13), (65_536, 16)] {
            let cfg = CatConfig::new(65_536, 64, 11, t).unwrap();
            assert_eq!(cfg.counter_bits(), bits, "T = {t}");
        }
    }

    #[test]
    fn errors_display_meaningfully() {
        let err = CatConfig::new(1000, 64, 11, 32_768).unwrap_err();
        assert!(err.to_string().contains("power of two"));
        let err = CatConfig::new(65_536, 64, 11, 1).unwrap_err();
        assert!(err.to_string().contains("threshold"));
    }
}
