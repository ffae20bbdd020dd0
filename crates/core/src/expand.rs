//! Test-set expansion: abstract test-model vectors → concrete simulation
//! vectors.
//!
//! Section 6.5: *"Since the inputs to the test model are abstracted from
//! those for the actual design, appropriate input values must be filled in
//! before the generated test set can be used for simulation."* Two things
//! must be filled in:
//!
//! 1. **Removed fields** (e.g. immediate data): chosen so that
//!    Requirement 3 holds — each instruction produces a unique observable
//!    output. The stock strategy [`DistinctData`] hands out a distinct
//!    data value per expanded vector.
//! 2. **Datapath-sourced inputs** (e.g. the Processor Status Word): the
//!    test model treats them as free inputs; during functional simulation
//!    the harness *takes control of these signals* (the Ho et al.
//!    solution adopted in Section 6.1), forcing them to the values the
//!    test sequence assumed.

/// A data-selection strategy producing pairwise-distinct filler values:
/// vector `i` of a sequence receives `base + i * stride`, truncated to the
/// requested width. With `stride` odd and width ≥ log2(sequence length),
/// all values in a sequence are distinct — the cheap way to satisfy
/// Requirement 3's "appropriately picking data values".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistinctData {
    /// First value handed out.
    pub base: u64,
    /// Increment between consecutive vectors (choose odd).
    pub stride: u64,
}

impl Default for DistinctData {
    fn default() -> Self {
        DistinctData {
            base: 1,
            stride: 0x9e37_79b1,
        } // odd golden-ratio step
    }
}

impl DistinctData {
    /// The filler value for vector `index`, truncated to `bits` bits.
    pub fn value(&self, index: usize, bits: u32) -> u64 {
        let v = self
            .base
            .wrapping_add(self.stride.wrapping_mul(index as u64));
        if bits >= 64 {
            v
        } else {
            v & ((1u64 << bits) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_data_is_distinct() {
        let d = DistinctData::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(d.value(i, 32)), "collision at {i}");
        }
    }

    #[test]
    fn distinct_data_truncates() {
        let d = DistinctData {
            base: 0xffff,
            stride: 1,
        };
        assert_eq!(d.value(0, 8), 0xff);
        assert_eq!(d.value(1, 64), 0x10000);
    }
}
