//! Property-based tests for the DART store and query logic.

use proptest::prelude::*;

use dta_core::config::{DartConfig, WriteStrategy};
use dta_core::hash::{AddressMapping, CrcMapping, MappingKind, Mix64Mapping};
use dta_core::query::{decide, QueryOutcome, ReturnPolicy};
use dta_core::store::DartStore;

fn config(slots: u64, copies: u8, strategy: WriteStrategy) -> DartConfig {
    DartConfig::builder()
        .slots(slots)
        .copies(copies)
        .value_len(20)
        .strategy(strategy)
        .mapping(MappingKind::Mix64 { seed: 0xBEEF })
        .build()
        .unwrap()
}

proptest! {
    /// Inserting a key always makes it immediately queryable with its own
    /// value, regardless of what was in the store before — the write
    /// claims all its slots.
    #[test]
    fn insert_then_query_always_answers_correctly(
        prior_keys in proptest::collection::vec(any::<u64>(), 0..64),
        key in any::<u64>(),
        tag in any::<u8>(),
        copies in 1u8..=4,
    ) {
        let mut store = DartStore::new(config(256, copies, WriteStrategy::AllSlots));
        for k in prior_keys {
            store.insert(&k.to_le_bytes(), &[k as u8; 20]).unwrap();
        }
        store.insert(&key.to_le_bytes(), &[tag; 20]).unwrap();
        prop_assert_eq!(
            store.query(&key.to_le_bytes()),
            QueryOutcome::Answer(vec![tag; 20])
        );
    }

    /// The same holds for the WRITE+CAS strategy: copy 0 is always an
    /// unconditional write, so the key stays answerable.
    #[test]
    fn cas_strategy_keeps_fresh_keys_answerable(
        prior_keys in proptest::collection::vec(any::<u64>(), 0..64),
        key in any::<u64>(),
        tag in any::<u8>(),
    ) {
        let mut store = DartStore::new(config(256, 2, WriteStrategy::WriteThenCas));
        for k in prior_keys {
            store.insert(&k.to_le_bytes(), &[k as u8; 20]).unwrap();
        }
        store.insert(&key.to_le_bytes(), &[tag; 20]).unwrap();
        let outcome = store.query(&key.to_le_bytes());
        prop_assert_eq!(outcome, QueryOutcome::Answer(vec![tag; 20]));
    }

    /// Re-inserting a key replaces its value (last write wins).
    #[test]
    fn last_write_wins(key in any::<u64>(), tags in proptest::collection::vec(any::<u8>(), 1..8)) {
        let mut store = DartStore::new(config(1024, 2, WriteStrategy::AllSlots));
        for &tag in &tags {
            store.insert(&key.to_le_bytes(), &[tag; 20]).unwrap();
        }
        prop_assert_eq!(
            store.query(&key.to_le_bytes()),
            QueryOutcome::Answer(vec![*tags.last().unwrap(); 20])
        );
    }

    /// A never-inserted key (disjoint namespace, 32-bit checksums) comes
    /// back empty.
    #[test]
    fn ghost_keys_return_empty(keys in proptest::collection::vec(any::<u32>(), 0..100),
                               ghost in any::<u32>()) {
        let mut store = DartStore::new(config(1 << 12, 2, WriteStrategy::AllSlots));
        for k in keys {
            // Inserted namespace: prefixed with 0xII.
            let mut key = [0u8; 5];
            key[0] = 0x11;
            key[1..].copy_from_slice(&k.to_le_bytes());
            store.insert(&key, &[k as u8; 20]).unwrap();
        }
        let mut probe = [0u8; 5];
        probe[0] = 0x22; // ghost namespace
        probe[1..].copy_from_slice(&ghost.to_le_bytes());
        prop_assert_eq!(store.query(&probe), QueryOutcome::Empty);
    }

    /// Mappings stay in range and are deterministic for arbitrary keys.
    #[test]
    fn mappings_in_range(key in proptest::collection::vec(any::<u8>(), 0..64),
                         slots in 1u64..1_000_000, collectors in 1u32..10_000,
                         copy in 0u8..8) {
        let crc = CrcMapping::new();
        let mix = Mix64Mapping::new(3);
        for m in [&crc as &dyn AddressMapping, &mix] {
            let s = m.slot(&key, copy, slots);
            prop_assert!(s < slots);
            prop_assert_eq!(s, m.slot(&key, copy, slots));
            let c = m.collector(&key, collectors);
            prop_assert!(c < collectors);
            prop_assert_eq!(m.key_checksum(&key), m.key_checksum(&key));
        }
    }

    /// `decide` invariants: any answer must be one of the matching
    /// values; UniqueValue answers iff all matches agree; FirstMatch
    /// answers the head.
    #[test]
    fn decide_properties(values in proptest::collection::vec(0u8..4, 0..6)) {
        let owned: Vec<Vec<u8>> = values.iter().map(|&v| vec![v; 4]).collect();
        let matches: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();

        for policy in [
            ReturnPolicy::UniqueValue,
            ReturnPolicy::FirstMatch,
            ReturnPolicy::Plurality,
            ReturnPolicy::Consensus(2),
        ] {
            match decide(&matches, policy) {
                QueryOutcome::Answer(v) => {
                    prop_assert!(matches.contains(&v.as_slice()),
                        "answer not among matches");
                    match policy {
                        ReturnPolicy::FirstMatch => prop_assert_eq!(&v[..], matches[0]),
                        ReturnPolicy::UniqueValue => {
                            prop_assert!(matches.iter().all(|&m| m == v.as_slice()));
                        }
                        ReturnPolicy::Plurality => {
                            let count = |x: &[u8]| matches.iter().filter(|&&m| m == x).count();
                            let winner = count(&v);
                            for &m in &matches {
                                prop_assert!(count(m) <= winner);
                            }
                        }
                        ReturnPolicy::Consensus(k) => {
                            let count = matches.iter().filter(|&&m| m == v.as_slice()).count();
                            prop_assert!(count >= usize::from(k.max(2)));
                        }
                    }
                }
                QueryOutcome::Empty => {
                    if matches.is_empty() {
                        // Always fine.
                    } else if policy == ReturnPolicy::FirstMatch {
                        prop_assert!(false, "FirstMatch must answer when matches exist");
                    }
                }
            }
        }
    }

    /// Raw slot writes with arbitrary indices never corrupt neighbours.
    #[test]
    fn raw_writes_stay_in_their_slot(slot in 0u64..64, fill in any::<u8>()) {
        let mut store = DartStore::new(config(64, 1, WriteStrategy::AllSlots));
        let bytes = vec![fill; 24];
        store.write_slot_bytes(slot, &bytes).unwrap();
        let memory = store.memory();
        let start = slot as usize * 24;
        prop_assert_eq!(&memory[start..start + 24], &bytes[..]);
        // Everything else still zero.
        for (i, &b) in memory.iter().enumerate() {
            if i < start || i >= start + 24 {
                prop_assert_eq!(b, 0);
            }
        }
    }
}

/// `buf = prefix ‖ key`: the scratch buffer the CRC mapping used to
/// hash before it streamed the prefix and key into one digest.
fn prefixed(prefix: &[u8], key: &[u8]) -> Vec<u8> {
    let mut buf = prefix.to_vec();
    buf.extend_from_slice(key);
    buf
}

proptest! {
    /// Streaming the domain prefix and then the key through one digest
    /// gives exactly the hashes of the concatenated buffer: collector
    /// (CRC-16/ARC, prefix 0xC0), slot (one CRC-32 unit per copy index,
    /// prefix 0xA0 ‖ copy) and key checksum (IEEE, prefix 0x5C).
    #[test]
    fn crc_mapping_streams_like_the_concatenated_buffer(
        key in proptest::collection::vec(any::<u8>(), 0..=64),
        copy in 0u8..8,
        collectors in 1u32..64,
        slots in 1u64..(1 << 20),
    ) {
        use dta_wire::crc::{Crc16, Crc32};
        let mapping = CrcMapping::new();
        let units = [Crc32::castagnoli(), Crc32::koopman(), Crc32::q(), Crc32::ieee()];
        prop_assert_eq!(
            mapping.collector(&key, collectors),
            u32::from(Crc16::arc().checksum(&prefixed(&[0xC0], &key))) % collectors
        );
        prop_assert_eq!(
            mapping.slot(&key, copy, slots),
            u64::from(units[usize::from(copy) % 4].checksum(&prefixed(&[0xA0, copy], &key))) % slots
        );
        prop_assert_eq!(
            mapping.key_checksum(&key),
            Crc32::ieee().checksum(&prefixed(&[0x5C], &key))
        );
    }
}

proptest! {
    /// The two-part checksum an event filter digests `key ‖ value` with
    /// equals the key checksum of the concatenated buffer.
    #[test]
    fn key_value_checksum_streams_like_the_concatenated_buffer(
        key in proptest::collection::vec(any::<u8>(), 0..=64),
        value in proptest::collection::vec(any::<u8>(), 0..=64),
    ) {
        let mapping = CrcMapping::new();
        prop_assert_eq!(
            mapping.key_value_checksum(&key, &value),
            mapping.key_checksum(&prefixed(&key, &value))
        );
    }
}
