//! The shared store-level Monte-Carlo simulator.
//!
//! Inserts `keys` distinct keys into a fresh DART store and queries every
//! key once, tallying correct / empty / error outcomes overall and per
//! age bucket. This is the §5 evaluation loop; Figures 3–5 are sweeps of
//! its parameters. Uses the `Mix64` mapping for statistical cleanliness
//! (the end-to-end CRC pipeline is validated separately in [`crate::e2e`]).

use dta_core::cas::{key_bytes, synthetic_value};
use dta_core::config::{DartConfig, WriteStrategy};
use dta_core::hash::MappingKind;
use dta_core::query::{classify, QueryClass, ReturnPolicy};
use dta_core::store::DartStore;
use dta_wire::dart::ChecksumWidth;

/// Parameters of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreSimParams {
    /// Memory slots.
    pub slots: u64,
    /// Distinct keys inserted (oldest first).
    pub keys: u64,
    /// Redundant copies per key.
    pub copies: u8,
    /// Stored checksum width.
    pub checksum: ChecksumWidth,
    /// Query return policy.
    pub policy: ReturnPolicy,
    /// Write strategy.
    pub strategy: WriteStrategy,
    /// RNG/hash seed.
    pub seed: u64,
}

impl Default for StoreSimParams {
    fn default() -> Self {
        StoreSimParams {
            slots: 1 << 16,
            keys: 1 << 15,
            copies: 2,
            checksum: ChecksumWidth::B32,
            policy: ReturnPolicy::Plurality,
            strategy: WriteStrategy::AllSlots,
            seed: 0xD0_17,
        }
    }
}

/// Result tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSimResult {
    /// Correct answers.
    pub correct: u64,
    /// Empty returns.
    pub empty: u64,
    /// Return errors (wrong answers).
    pub error: u64,
    /// Success rate per age bucket, oldest first.
    pub age_buckets: Vec<f64>,
}

impl StoreSimResult {
    /// Total queried.
    pub fn total(&self) -> u64 {
        self.correct + self.empty + self.error
    }

    /// Overall success rate.
    pub fn success_rate(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.correct as f64 / self.total() as f64
        }
    }

    /// Overall empty-return rate.
    pub fn empty_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.empty as f64 / self.total() as f64
        }
    }

    /// Overall return-error rate.
    pub fn error_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.error as f64 / self.total() as f64
        }
    }
}

/// Run the simulation with `buckets` age buckets.
pub fn run(p: StoreSimParams, buckets: usize) -> StoreSimResult {
    let config = DartConfig::builder()
        .slots(p.slots)
        .copies(p.copies)
        .checksum(p.checksum)
        .value_len(20)
        .mapping(MappingKind::Mix64 { seed: p.seed })
        .policy(p.policy)
        .strategy(p.strategy)
        .build()
        .expect("valid parameters");
    let mut store = DartStore::new(config);

    for i in 0..p.keys {
        store
            .insert(&key_bytes(i), &synthetic_value(i, 20))
            .expect("insert never fails with valid lengths");
    }

    let buckets = buckets.max(1);
    let total = p.keys.max(1);
    let mut result = StoreSimResult {
        correct: 0,
        empty: 0,
        error: 0,
        age_buckets: vec![0.0; buckets],
    };
    let mut bucket_correct = vec![0u64; buckets];
    let mut bucket_total = vec![0u64; buckets];
    for i in 0..p.keys {
        let outcome = store.query(&key_bytes(i));
        let bucket = (i as usize * buckets) / total as usize;
        bucket_total[bucket] += 1;
        match classify(&outcome, &synthetic_value(i, 20)) {
            QueryClass::Correct => {
                result.correct += 1;
                bucket_correct[bucket] += 1;
            }
            QueryClass::EmptyReturn => result.empty += 1,
            QueryClass::ReturnError => result.error += 1,
        }
    }
    for (b, (&c, &t)) in bucket_correct.iter().zip(&bucket_total).enumerate() {
        result.age_buckets[b] = if t == 0 { 0.0 } else { c as f64 / t as f64 };
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_load_near_perfect() {
        let r = run(
            StoreSimParams {
                slots: 1 << 14,
                keys: 1 << 8,
                ..StoreSimParams::default()
            },
            4,
        );
        assert!(r.success_rate() > 0.99);
        assert_eq!(r.error, 0);
        assert_eq!(r.total(), 1 << 8);
    }

    #[test]
    fn matches_theory_at_moderate_load() {
        let slots = 1 << 15;
        let keys = 1 << 15; // alpha = 1
        let r = run(
            StoreSimParams {
                slots,
                keys,
                ..StoreSimParams::default()
            },
            10,
        );
        let theory = dta_analysis::average_query_success(1.0, 2);
        assert!(
            (r.success_rate() - theory).abs() < 0.02,
            "sim {} vs theory {theory}",
            r.success_rate()
        );
        // Oldest bucket should be close to the point formula at alpha≈1
        // (ages within the first bucket span [0.9, 1.0] of the keys).
        let oldest = r.age_buckets[0];
        let predicted = dta_analysis::query_success(0.95, 2);
        assert!(
            (oldest - predicted).abs() < 0.04,
            "oldest {oldest} vs predicted {predicted}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = StoreSimParams {
            slots: 1 << 12,
            keys: 1 << 12,
            ..StoreSimParams::default()
        };
        assert_eq!(run(p, 5), run(p, 5));
    }

    fn strategy_run(strategy: WriteStrategy, slots: u64, keys: u64, seed: u64) -> StoreSimResult {
        run(
            StoreSimParams {
                slots,
                keys,
                copies: 2,
                strategy,
                seed,
                ..StoreSimParams::default()
            },
            1,
        )
    }

    #[test]
    fn low_load_strategies_equivalent() {
        // At α ≪ 1 both strategies answer essentially everything.
        for strategy in [WriteStrategy::AllSlots, WriteStrategy::WriteThenCas] {
            let r = strategy_run(strategy, 1 << 14, 256, 7);
            assert!(
                r.success_rate() > 0.99,
                "{strategy:?}: {}",
                r.success_rate()
            );
        }
    }

    #[test]
    fn cas_improves_queryability_at_moderate_load() {
        // The §7 claim: on a fresh table at α = 1 (N = 2, heavy slot
        // pressure) the hybrid preserves more keys than double-overwrite.
        let plain = strategy_run(WriteStrategy::AllSlots, 1 << 14, 1 << 14, 11);
        let cas = strategy_run(WriteStrategy::WriteThenCas, 1 << 14, 1 << 14, 11);
        assert!(
            cas.success_rate() > plain.success_rate(),
            "CAS {} should beat plain {}",
            cas.success_rate(),
            plain.success_rate()
        );
    }

    #[test]
    fn no_checksum_creates_errors_under_load() {
        let r = run(
            StoreSimParams {
                slots: 1 << 12,
                keys: 1 << 13, // alpha = 2
                checksum: ChecksumWidth::None,
                policy: ReturnPolicy::FirstMatch,
                ..StoreSimParams::default()
            },
            4,
        );
        assert!(r.error > 0, "b=0 must produce wrong answers under load");
    }
}
