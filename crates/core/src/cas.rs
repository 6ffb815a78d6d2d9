//! The §7 write-then-compare-and-swap strategy, and the synthetic keys
//! and values used to compare strategies.
//!
//! Standard DART issues `N` unconditional WRITEs per key. The paper's
//! discussion section observes that RDMA also offers COMPARE_SWAP, and
//! sketches an `N = 2` hybrid: *"we can use an RDMA write with one hash
//! and Compare & Swap with another (writing to a second slot only if it
//! is empty), which simulations show can potentially improve
//! queryability."*
//!
//! The intuition: under the hybrid, a new key never evicts another key's
//! data from its *second* slot — second slots fill first-come-first-served
//! — so older keys retain their redundancy longer. The cost is that late
//! keys may end up with a single copy. The strategy itself is
//! [`WriteStrategy::WriteThenCas`](crate::config::WriteStrategy), applied
//! by `DartStore::insert`; this module holds the synthetic keys and values
//! that `dta-bench`'s store simulator (and its `cas` sweep) insert and
//! query back.

/// Deterministic per-key value: 20 bytes derived from the key index.
/// Distinct keys get distinct values so return errors are detectable.
pub fn synthetic_value(index: u64, value_len: usize) -> Vec<u8> {
    let mut value = vec![0u8; value_len];
    let tag = crate::hash::mix64(index).to_le_bytes();
    for (i, byte) in value.iter_mut().enumerate() {
        *byte = tag[i % 8] ^ (i as u8);
    }
    value
}

/// Canonical 8-byte key encoding for synthetic workloads.
pub fn key_bytes(index: u64) -> [u8; 8] {
    index.to_le_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DartConfig, WriteStrategy};
    use crate::store::DartStore;

    #[test]
    fn cas_skips_occupied_second_slots() {
        let config = DartConfig::builder()
            .slots(128)
            .copies(2)
            .strategy(WriteStrategy::WriteThenCas)
            .build()
            .unwrap();
        let mut store = DartStore::new(config);
        for i in 0..256u64 {
            store
                .insert(&key_bytes(i), &synthetic_value(i, 20))
                .unwrap();
        }
        // Far beyond capacity: most second-copy CAS writes must have been
        // skipped because the slot was already occupied.
        assert!(store.stats().cas_skips > 100);
    }

    #[test]
    fn synthetic_values_are_distinct() {
        let a = synthetic_value(1, 20);
        let b = synthetic_value(2, 20);
        assert_ne!(a, b);
        assert_eq!(a.len(), 20);
        assert_eq!(synthetic_value(1, 20), a); // deterministic
    }
}
