//! Scheme-state capture for epoch-consistent checkpoints.
//!
//! Every mitigation scheme serializes its complete mutable state as a flat
//! stream of `u64` words via `save_state`, and rebuilds it with
//! `restore_state` on a freshly constructed instance of the *same*
//! configuration (configuration identity is the caller's responsibility —
//! `cat-engine`'s checkpoint format validates spec and geometry before any
//! scheme state is touched). Restore validates every value it applies:
//! lengths must match the configuration, indices must be in range, and
//! derived counts must be consistent, so a corrupted word stream yields a
//! typed [`StateError`] rather than a silently wrong scheme.

use std::fmt;

/// Error raised while restoring scheme state from checkpoint words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// The word stream ended before the state was fully read.
    Exhausted,
    /// A value was out of range or inconsistent; the message names it.
    Invalid(&'static str),
    /// The scheme cannot capture or restore state (a PRA backend without
    /// PRNG state capture).
    Unsupported(&'static str),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Exhausted => write!(f, "state word stream exhausted"),
            StateError::Invalid(what) => write!(f, "invalid state: {what}"),
            StateError::Unsupported(what) => write!(f, "state capture unsupported: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

/// Cursor over the flat word stream produced by the schemes' `save_state`.
#[derive(Debug)]
pub struct StateReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Wraps a word slice for reading.
    pub fn new(words: &'a [u64]) -> Self {
        StateReader { words, pos: 0 }
    }

    /// Words not yet consumed.
    pub fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }

    /// Reads the next word. (Named `next_word`, not `next`, so the reader
    /// is never confused with an `Iterator` — reads here are fallible.)
    pub fn next_word(&mut self) -> Result<u64, StateError> {
        match self.words.get(self.pos) {
            Some(&w) => {
                self.pos += 1;
                Ok(w)
            }
            None => Err(StateError::Exhausted),
        }
    }

    /// Reads a word that must fit in `u32`.
    pub fn next_u32(&mut self) -> Result<u32, StateError> {
        u32::try_from(self.next_word()?).map_err(|_| StateError::Invalid("word exceeds u32 range"))
    }

    /// Reads a word that must fit in `u16`.
    pub fn next_u16(&mut self) -> Result<u16, StateError> {
        u16::try_from(self.next_word()?).map_err(|_| StateError::Invalid("word exceeds u16 range"))
    }

    /// Reads a word that must fit in `u8`.
    pub fn next_u8(&mut self) -> Result<u8, StateError> {
        u8::try_from(self.next_word()?).map_err(|_| StateError::Invalid("word exceeds u8 range"))
    }

    /// Reads a word that must be exactly 0 or 1.
    pub fn next_bool(&mut self) -> Result<bool, StateError> {
        match self.next_word()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StateError::Invalid("boolean word is neither 0 nor 1")),
        }
    }

    /// Requires that every word was consumed — trailing words mean the
    /// stream does not match the scheme that is reading it.
    pub fn finish(self) -> Result<(), StateError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StateError::Invalid("trailing state words"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_walks_and_finishes() {
        let words = [7u64, 1, 0, u64::from(u32::MAX)];
        let mut r = StateReader::new(&words);
        assert_eq!(r.next_word().unwrap(), 7);
        assert!(r.next_bool().unwrap());
        assert!(!r.next_bool().unwrap());
        assert_eq!(r.next_u32().unwrap(), u32::MAX);
        assert_eq!(r.remaining(), 0);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn reader_rejects_out_of_range_and_trailing() {
        let words = [u64::from(u32::MAX) + 1, 2, 5];
        let mut r = StateReader::new(&words);
        assert_eq!(
            r.next_u32().unwrap_err(),
            StateError::Invalid("word exceeds u32 range")
        );
        assert!(matches!(r.next_bool().unwrap_err(), StateError::Invalid(_)));
        assert!(matches!(r.finish().unwrap_err(), StateError::Invalid(_)));
        let mut empty = StateReader::new(&[]);
        assert_eq!(empty.next_word().unwrap_err(), StateError::Exhausted);
    }

    #[test]
    fn errors_display() {
        assert!(StateError::Exhausted.to_string().contains("exhausted"));
        assert!(StateError::Invalid("x").to_string().contains('x'));
        assert!(StateError::Unsupported("y").to_string().contains('y'));
    }
}
