//! Declarative scheme selection: which mitigation scheme to instantiate per
//! bank, plus textual round-trip parsing for scripts and CLIs.
//!
//! `SchemeSpec` lives in `cat-core` (it moved down from `cat-sim`) so that
//! every layer — the engine, the simulator, the benches — can build scheme
//! instances from one description without depending on the simulator.

use std::fmt;
use std::str::FromStr;

use crate::instance::SchemeInstance;
use crate::{
    CatConfig, CounterCache, CounterCacheConfig, Drcat, HardwareProfile, Pra, Prcat, Sca,
    SchemeKind, SpaceSaving, ThresholdPolicy,
};

/// Which crosstalk-mitigation scheme a simulation attaches to every bank.
///
/// ```
/// use cat_core::SchemeSpec;
/// let spec = SchemeSpec::Drcat { counters: 64, levels: 11, threshold: 32_768 };
/// let scheme = spec.build_instance(65_536, 0).unwrap();
/// assert_eq!(scheme.name(), "DRCAT_64");
/// assert!(SchemeSpec::None.build_instance(65_536, 0).is_none());
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum SchemeSpec {
    /// No mitigation (baseline for ETO).
    None,
    /// Probabilistic row activation with nominal probability `p`.
    Pra {
        /// Refresh probability per activation.
        p: f64,
        /// PRNG word width in bits (paper: 9).
        bits: u32,
        /// Base seed (per-bank seeds derive from it).
        seed: u64,
    },
    /// Static counter assignment with `counters` uniform groups.
    Sca {
        /// Counters per bank.
        counters: usize,
        /// Refresh threshold `T`.
        threshold: u32,
    },
    /// Periodically reset CAT.
    Prcat {
        /// Counters per bank (`M`).
        counters: usize,
        /// Maximum tree levels (`L`).
        levels: u32,
        /// Refresh threshold `T`.
        threshold: u32,
    },
    /// Dynamically reconfigured CAT.
    Drcat {
        /// Counters per bank (`M`).
        counters: usize,
        /// Maximum tree levels (`L`).
        levels: u32,
        /// Refresh threshold `T`.
        threshold: u32,
    },
    /// Per-row counters in DRAM with an on-chip counter cache.
    CounterCache {
        /// Cached counter entries per bank.
        entries: usize,
        /// Associativity.
        ways: usize,
        /// Refresh threshold `T`.
        threshold: u32,
    },
    /// Space-Saving frequent-item tracker (extension baseline; DESIGN.md §6).
    SpaceSaving {
        /// Tracking counters per bank.
        counters: usize,
        /// Refresh threshold `T`.
        threshold: u32,
    },
}

/// PRA's default base seed (per-bank seeds derive from it).
pub const PRA_DEFAULT_SEED: u64 = 0x5eed_cafe;

impl SchemeSpec {
    /// PRA with the paper's defaults (9 random bits per access).
    pub fn pra(p: f64) -> Self {
        SchemeSpec::Pra {
            p,
            bits: 9,
            seed: PRA_DEFAULT_SEED,
        }
    }

    /// Instantiates the scheme for one bank of `rows` rows as a
    /// statically-dispatched [`SchemeInstance`].
    ///
    /// Returns `None` for [`SchemeSpec::None`]. PRA banks get distinct,
    /// deterministic PRNG seeds derived from the base seed and `bank_index`,
    /// which is what makes bank-sharded execution reproducible.
    ///
    /// # Panics
    ///
    /// Panics if the specification is invalid for the bank geometry (these
    /// are programming errors in experiment definitions, not runtime
    /// conditions).
    pub fn build_instance(&self, rows: u32, bank_index: u32) -> Option<SchemeInstance> {
        match *self {
            SchemeSpec::None => None,
            SchemeSpec::Pra { p, bits, seed } => {
                let rng = Box::new(crate::rng::IdealRng::seeded(
                    seed ^ (u64::from(bank_index) << 32) ^ 0x9e37_79b9,
                ));
                Some(SchemeInstance::Pra(
                    Pra::with_rng(rows, p, bits, rng).expect("valid PRA spec"),
                ))
            }
            SchemeSpec::Sca {
                counters,
                threshold,
            } => Some(SchemeInstance::Sca(
                Sca::new(rows, counters, threshold).expect("valid SCA spec"),
            )),
            SchemeSpec::Prcat {
                counters,
                levels,
                threshold,
            } => {
                let cfg = CatConfig::new(rows, counters, levels, threshold)
                    .expect("valid PRCAT spec")
                    .with_policy(ThresholdPolicy::PaperCurve);
                Some(SchemeInstance::Prcat(Prcat::new(cfg)))
            }
            SchemeSpec::Drcat {
                counters,
                levels,
                threshold,
            } => {
                let cfg = CatConfig::new(rows, counters, levels, threshold)
                    .expect("valid DRCAT spec")
                    .with_policy(ThresholdPolicy::PaperCurve);
                Some(SchemeInstance::Drcat(Drcat::new(cfg)))
            }
            SchemeSpec::CounterCache {
                entries,
                ways,
                threshold,
            } => {
                let cache = CounterCacheConfig::with_entries(entries, ways)
                    .expect("valid counter-cache spec");
                Some(SchemeInstance::CounterCache(
                    CounterCache::new(rows, cache, threshold).expect("valid counter-cache spec"),
                ))
            }
            SchemeSpec::SpaceSaving {
                counters,
                threshold,
            } => Some(SchemeInstance::SpaceSaving(
                SpaceSaving::new(rows, counters, threshold).expect("valid space-saving spec"),
            )),
        }
    }

    /// The hardware footprint the scheme would occupy per bank of `rows`
    /// rows, computed directly from the specification (no scheme instance is
    /// constructed). Returns `None` for [`SchemeSpec::None`].
    ///
    /// Guaranteed to equal `self.build_instance(rows, 0).unwrap().hardware()`
    /// for every buildable spec (asserted by unit tests), so callers that
    /// only need the footprint never build a scheme.
    pub fn profile(&self, rows: u32) -> Option<HardwareProfile> {
        debug_assert!(
            rows.is_power_of_two() && rows >= 8,
            "bank geometry must be a power of two >= 8, got {rows}"
        );
        // Saturating: constructors reject threshold < 2, but profile() never
        // builds an instance, so it must not underflow on a bad spec.
        let bits_for = |threshold: u32| 32 - threshold.saturating_sub(1).leading_zeros();
        match *self {
            SchemeSpec::None => None,
            SchemeSpec::Pra { bits, .. } => Some(HardwareProfile {
                kind: SchemeKind::Pra,
                counters: 0,
                counter_bits: 0,
                max_levels: 1,
                prng_bits_per_activation: bits,
                refresh_threshold: 0,
            }),
            SchemeSpec::Sca {
                counters,
                threshold,
            } => Some(HardwareProfile {
                kind: SchemeKind::Sca,
                counters,
                counter_bits: bits_for(threshold),
                max_levels: 1,
                prng_bits_per_activation: 0,
                refresh_threshold: threshold,
            }),
            SchemeSpec::Prcat {
                counters,
                levels,
                threshold,
            } => Some(HardwareProfile {
                kind: SchemeKind::Prcat,
                counters,
                counter_bits: bits_for(threshold),
                max_levels: levels,
                prng_bits_per_activation: 0,
                refresh_threshold: threshold,
            }),
            SchemeSpec::Drcat {
                counters,
                levels,
                threshold,
            } => Some(HardwareProfile {
                kind: SchemeKind::Drcat,
                counters,
                counter_bits: bits_for(threshold),
                max_levels: levels,
                prng_bits_per_activation: 0,
                refresh_threshold: threshold,
            }),
            SchemeSpec::CounterCache {
                entries, threshold, ..
            } => Some(HardwareProfile {
                kind: SchemeKind::CounterCache,
                counters: entries,
                counter_bits: bits_for(threshold),
                max_levels: 1,
                prng_bits_per_activation: 0,
                refresh_threshold: threshold,
            }),
            // Energy-wise the closest Table II row is the counter-cache one
            // (matches SpaceSaving::hardware).
            SchemeSpec::SpaceSaving {
                counters,
                threshold,
            } => Some(HardwareProfile {
                kind: SchemeKind::CounterCache,
                counters,
                counter_bits: bits_for(threshold),
                max_levels: 1,
                prng_bits_per_activation: 0,
                refresh_threshold: threshold,
            }),
        }
    }

    /// Short label used in result tables, e.g. `PRA_0.002` or `DRCAT_64`.
    pub fn label(&self) -> String {
        match *self {
            SchemeSpec::None => "baseline".to_string(),
            SchemeSpec::Pra { p, .. } => format!("PRA_{p}"),
            SchemeSpec::Sca { counters, .. } => format!("SCA_{counters}"),
            SchemeSpec::Prcat { counters, .. } => format!("PRCAT_{counters}"),
            SchemeSpec::Drcat { counters, .. } => format!("DRCAT_{counters}"),
            SchemeSpec::CounterCache { entries, .. } => format!("CC_{entries}"),
            SchemeSpec::SpaceSaving { counters, .. } => format!("SS_{counters}"),
        }
    }
}

/// Textual scheme syntax, `Display`/`FromStr` round-trip safe:
///
/// | Spec | Syntax |
/// |---|---|
/// | `None` | `none` |
/// | `Pra` | `pra:<p>[:<bits>[:<seed>]]` (seed accepts `0x…` hex) |
/// | `Sca` | `sca:<counters>:<threshold>` |
/// | `Prcat` | `prcat:<counters>:<levels>:<threshold>` |
/// | `Drcat` | `drcat:<counters>:<levels>:<threshold>` |
/// | `CounterCache` | `cc:<entries>:<ways>:<threshold>` |
/// | `SpaceSaving` | `ss:<counters>:<threshold>` |
///
/// ```
/// use cat_core::SchemeSpec;
/// let spec: SchemeSpec = "drcat:64:11:32768".parse().unwrap();
/// assert_eq!(spec, SchemeSpec::Drcat { counters: 64, levels: 11, threshold: 32_768 });
/// assert_eq!(spec.to_string().parse::<SchemeSpec>().unwrap(), spec);
/// ```
impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SchemeSpec::None => write!(f, "none"),
            SchemeSpec::Pra { p, bits, seed } => write!(f, "pra:{p}:{bits}:{seed:#x}"),
            SchemeSpec::Sca {
                counters,
                threshold,
            } => write!(f, "sca:{counters}:{threshold}"),
            SchemeSpec::Prcat {
                counters,
                levels,
                threshold,
            } => {
                write!(f, "prcat:{counters}:{levels}:{threshold}")
            }
            SchemeSpec::Drcat {
                counters,
                levels,
                threshold,
            } => {
                write!(f, "drcat:{counters}:{levels}:{threshold}")
            }
            SchemeSpec::CounterCache {
                entries,
                ways,
                threshold,
            } => {
                write!(f, "cc:{entries}:{ways}:{threshold}")
            }
            SchemeSpec::SpaceSaving {
                counters,
                threshold,
            } => {
                write!(f, "ss:{counters}:{threshold}")
            }
        }
    }
}

/// Error parsing a [`SchemeSpec`] from text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSpecError {
    message: String,
}

impl ParseSpecError {
    fn new(message: impl Into<String>) -> Self {
        ParseSpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scheme spec: {}", self.message)
    }
}

impl std::error::Error for ParseSpecError {}

fn parse_field<T: FromStr>(fields: &[&str], idx: usize, what: &str) -> Result<T, ParseSpecError> {
    let raw = fields
        .get(idx)
        .ok_or_else(|| ParseSpecError::new(format!("missing {what} field")))?;
    raw.parse()
        .map_err(|_| ParseSpecError::new(format!("bad {what} value {raw:?}")))
}

fn parse_seed(raw: &str) -> Result<u64, ParseSpecError> {
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.map_err(|_| ParseSpecError::new(format!("bad seed value {raw:?}")))
}

/// Semantic checks on parsed values that the scheme constructors would only
/// reject later (with a panic, via `build_instance`) or that `profile` assumes — text
/// input must fail with a proper error instead.
fn check(spec: SchemeSpec) -> Result<SchemeSpec, ParseSpecError> {
    let threshold_of = |t: u32| {
        if t < 2 {
            Err(ParseSpecError::new(format!(
                "refresh threshold must be >= 2, got {t}"
            )))
        } else {
            Ok(())
        }
    };
    match spec {
        SchemeSpec::None => {}
        SchemeSpec::Pra { p, bits, .. } => {
            if !(p > 0.0 && p <= 0.5) {
                return Err(ParseSpecError::new(format!(
                    "probability must be in (0, 0.5], got {p}"
                )));
            }
            if !(1..=31).contains(&bits) {
                return Err(ParseSpecError::new(format!(
                    "bits must be in 1..=31, got {bits}"
                )));
            }
        }
        SchemeSpec::Sca { threshold, .. }
        | SchemeSpec::Prcat { threshold, .. }
        | SchemeSpec::Drcat { threshold, .. }
        | SchemeSpec::CounterCache { threshold, .. }
        | SchemeSpec::SpaceSaving { threshold, .. } => threshold_of(threshold)?,
    }
    Ok(spec)
}

impl FromStr for SchemeSpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let fields: Vec<&str> = s.trim().split(':').collect();
        let tag = fields[0].to_ascii_lowercase();
        let arity = |n: usize| -> Result<(), ParseSpecError> {
            if fields.len() == n + 1 {
                Ok(())
            } else {
                Err(ParseSpecError::new(format!(
                    "{tag} takes {n} field(s), got {}",
                    fields.len() - 1
                )))
            }
        };
        match tag.as_str() {
            "none" | "baseline" => {
                arity(0)?;
                Ok(SchemeSpec::None)
            }
            "pra" => {
                if fields.len() < 2 || fields.len() > 4 {
                    return Err(ParseSpecError::new("pra takes 1 to 3 fields"));
                }
                let p: f64 = parse_field(&fields, 1, "probability")?;
                let bits = if fields.len() > 2 {
                    parse_field(&fields, 2, "bits")?
                } else {
                    9
                };
                let seed = if fields.len() > 3 {
                    parse_seed(fields[3])?
                } else {
                    PRA_DEFAULT_SEED
                };
                Ok(SchemeSpec::Pra { p, bits, seed })
            }
            "sca" => {
                arity(2)?;
                Ok(SchemeSpec::Sca {
                    counters: parse_field(&fields, 1, "counters")?,
                    threshold: parse_field(&fields, 2, "threshold")?,
                })
            }
            "prcat" => {
                arity(3)?;
                Ok(SchemeSpec::Prcat {
                    counters: parse_field(&fields, 1, "counters")?,
                    levels: parse_field(&fields, 2, "levels")?,
                    threshold: parse_field(&fields, 3, "threshold")?,
                })
            }
            "drcat" => {
                arity(3)?;
                Ok(SchemeSpec::Drcat {
                    counters: parse_field(&fields, 1, "counters")?,
                    levels: parse_field(&fields, 2, "levels")?,
                    threshold: parse_field(&fields, 3, "threshold")?,
                })
            }
            "cc" | "countercache" => {
                arity(3)?;
                Ok(SchemeSpec::CounterCache {
                    entries: parse_field(&fields, 1, "entries")?,
                    ways: parse_field(&fields, 2, "ways")?,
                    threshold: parse_field(&fields, 3, "threshold")?,
                })
            }
            "ss" | "spacesaving" => {
                arity(2)?;
                Ok(SchemeSpec::SpaceSaving {
                    counters: parse_field(&fields, 1, "counters")?,
                    threshold: parse_field(&fields, 2, "threshold")?,
                })
            }
            other => Err(ParseSpecError::new(format!("unknown scheme {other:?}"))),
        }
        .and_then(check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RowId;

    fn all_buildable() -> [SchemeSpec; 6] {
        [
            SchemeSpec::pra(0.002),
            SchemeSpec::Sca {
                counters: 64,
                threshold: 32_768,
            },
            SchemeSpec::Prcat {
                counters: 64,
                levels: 11,
                threshold: 32_768,
            },
            SchemeSpec::Drcat {
                counters: 64,
                levels: 11,
                threshold: 32_768,
            },
            SchemeSpec::CounterCache {
                entries: 1024,
                ways: 8,
                threshold: 32_768,
            },
            SchemeSpec::SpaceSaving {
                counters: 64,
                threshold: 32_768,
            },
        ]
    }

    #[test]
    fn builds_every_scheme() {
        for spec in all_buildable() {
            let s = spec.build_instance(65_536, 3).expect("buildable");
            assert_eq!(s.rows(), 65_536);
            assert!(!spec.label().is_empty());
        }
        assert!(SchemeSpec::None.build_instance(65_536, 0).is_none());
        assert_eq!(SchemeSpec::None.label(), "baseline");
    }

    #[test]
    fn pra_banks_get_distinct_seeds() {
        let spec = SchemeSpec::pra(0.5);
        let mut a = spec.build_instance(1024, 0).unwrap();
        let mut b = spec.build_instance(1024, 1).unwrap();
        // With p = 0.5 the decision streams diverge almost immediately if
        // the seeds differ.
        let fire = |s: &mut SchemeInstance| {
            (0..64)
                .map(|_| !s.on_activation(RowId(5)).is_empty())
                .collect::<Vec<_>>()
        };
        assert_ne!(fire(&mut a), fire(&mut b));
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(SchemeSpec::pra(0.002).label(), "PRA_0.002");
        assert_eq!(
            SchemeSpec::Sca {
                counters: 128,
                threshold: 16_384
            }
            .label(),
            "SCA_128"
        );
    }

    #[test]
    fn profile_matches_built_hardware() {
        for spec in all_buildable() {
            let built = spec.build_instance(65_536, 0).unwrap().hardware();
            let computed = spec.profile(65_536).unwrap();
            assert_eq!(computed, built, "{spec}");
        }
        assert!(SchemeSpec::None.profile(65_536).is_none());
    }

    #[test]
    fn display_from_str_round_trips() {
        let mut specs = all_buildable().to_vec();
        specs.push(SchemeSpec::None);
        specs.push(SchemeSpec::Pra {
            p: 0.003,
            bits: 11,
            seed: 42,
        });
        for spec in specs {
            let text = spec.to_string();
            let parsed: SchemeSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, spec, "{text}");
        }
    }

    #[test]
    fn parses_issue_examples() {
        assert_eq!(
            "drcat:64:11:32768".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::Drcat {
                counters: 64,
                levels: 11,
                threshold: 32_768
            }
        );
        assert_eq!(
            "pra:0.002".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::pra(0.002)
        );
        assert_eq!("none".parse::<SchemeSpec>().unwrap(), SchemeSpec::None);
        assert_eq!(
            "PRCAT:32:10:16384".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::Prcat {
                counters: 32,
                levels: 10,
                threshold: 16_384
            }
        );
        assert_eq!(
            "pra:0.005:9:0x5eedcafe".parse::<SchemeSpec>().unwrap(),
            SchemeSpec::pra(0.005)
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "frobnicate",
            "sca",
            "sca:64",
            "sca:64:32768:9",
            "drcat:64:11",
            "pra",
            "pra:zero",
            "pra:0.002:9:0xzz",
            "cc:1024:8",
            "ss:64",
            // Well-formed but semantically invalid: must error, not panic
            // later in build_instance()/profile().
            "sca:64:0",
            "drcat:64:11:1",
            "pra:0.7",
            "pra:0",
            "pra:0.002:0",
            "pra:0.002:32",
        ] {
            assert!(
                bad.parse::<SchemeSpec>().is_err(),
                "{bad:?} should not parse"
            );
        }
    }
}
