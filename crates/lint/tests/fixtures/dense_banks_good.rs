//! Fixture: bank access through the sparse accessor, plus the rule's
//! escape hatches (allow directive and test-region masking).

use crate::sparse::{Bank, SparseBanks};

/// Goes through the sparse accessor: the bank materializes lazily.
pub fn touch(banks: &mut SparseBanks, bank: usize) -> &mut Bank {
    banks.touch(bank)
}

/// A justified dense borrow (a scratch slice that is not scheme storage)
/// takes an allow directive with the rationale.
pub fn scratch(banks: &mut [u64], bank: usize) -> u64 {
    // cat-lint: allow(dense-banks) -- fixture: activation scratch, not scheme storage
    banks[bank]
}

#[cfg(test)]
mod tests {
    #[test]
    fn dense_indexing_in_tests_is_fine() {
        let banks = [1u64, 2];
        assert_eq!(banks[0], 1);
    }
}
