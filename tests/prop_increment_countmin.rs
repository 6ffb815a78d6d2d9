//! Property test: Key-Increment is a Count-Min sketch.
//!
//! A Key-Increment store hashes each key to `N` counter words of one
//! shared table of `M` words, adds every delta to all `N` of them, and
//! answers the minimum. On a lossless path that is Count-Min with depth
//! `d = N`: random keys and random deltas, every `N` from 1 to 4 and
//! both address mappings, must show the sketch's two guarantees and
//! exact conservation of counter mass.

use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::MappingKind;
use direct_telemetry_access::core::primitive::{increment_decode, PrimitiveSpec};
use direct_telemetry_access::core::query::QueryOutcome;
use direct_telemetry_access::core::store::DartStore;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Counter words in the shared table.
const SLOTS: u64 = 256;

proptest! {
    #[test]
    fn key_increment_never_undercounts_and_conserves_mass(
        flows in collection::vec((any::<u64>(), collection::vec(1u64..=1000, 1..=3)), 150..=300),
        mix_seed in any::<u64>(),
    ) {
        let mut flows = flows;
        flows.sort_unstable_by_key(|(key, _)| *key);
        flows.dedup_by_key(|(key, _)| *key);
        let totals: Vec<u64> = flows.iter().map(|(_, deltas)| deltas.iter().sum()).collect();
        let weight: u64 = totals.iter().sum();

        for mapping in [MappingKind::Crc, MappingKind::Mix64 { seed: mix_seed }] {
            for copies in 1..=4u8 {
                let mut config = DartConfig::builder()
                    .slots(SLOTS)
                    .copies(copies)
                    .primitive(PrimitiveSpec::KeyIncrement)
                    .build()
                    .unwrap();
                config.mapping = mapping;
                let mut store = DartStore::new(config);
                for (key, deltas) in &flows {
                    for &delta in deltas {
                        store.increment(&key.to_be_bytes(), delta).unwrap();
                    }
                }

                // Conservation: every delta landed in exactly `N` words,
                // so no atomic was lost or applied twice.
                let mass: u64 = store
                    .memory()
                    .chunks_exact(8)
                    .map(|word| increment_decode(word).unwrap())
                    .sum();
                prop_assert_eq!(mass, u64::from(copies) * weight, "{:?} N={}", mapping, copies);

                let mut overcount = 0u64;
                for ((key, _), &total) in flows.iter().zip(&totals) {
                    let QueryOutcome::Answer(word) = store.query(&key.to_be_bytes()) else {
                        return Err(TestCaseError::fail("an incremented key read empty"));
                    };
                    let estimate = increment_decode(&word).unwrap();
                    // Lossless: the minimum never undercounts.
                    prop_assert!(
                        estimate >= total,
                        "{:?} N={}: estimate {} < total {}",
                        mapping, copies, estimate, total
                    );
                    overcount += estimate - total;
                }

                // Overcount bound. Copy `i` of key `k` holds
                //   t_k + Σ_{j≠k} t_j·|{c : h_c(j) = h_i(k)}|
                //       + t_k·|{c ≠ i : h_c(k) = h_i(k)}|,
                // so with uniform slot choices its expected excess is
                //   (N·(W − t_k) + (N − 1)·t_k) / M = (N·W − t_k) / M,
                // the foreign keys' term plus the self-collision term
                // (W = Σ t, M = SLOTS). The estimate is the minimum over
                // copies, at most copy 0, so the mean overcount over
                // keys has expectation at most N·W/M. With N = 1 that is
                // nearly tight; its spread comes from the ≈ K²/(2M) ≥ 40
                // colliding key pairs (K ≥ 150 keys), a relative
                // standard deviation under 0.2, so twice the bound lies
                // about five standard deviations above the mean.
                let keys = flows.len() as f64;
                let bound = f64::from(copies) * weight as f64 / SLOTS as f64;
                let mean = overcount as f64 / keys;
                prop_assert!(
                    mean <= 2.0 * bound,
                    "{:?} N={}: mean overcount {:.1} > 2 × {:.1}",
                    mapping, copies, mean, bound
                );
            }
        }
    }
}
