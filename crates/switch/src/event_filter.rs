//! Change-triggered report suppression (§2's on-switch event detection).
//!
//! "Event detection is typically implemented at switches in an effort to
//! send reports to a collector only when things change. This helps in
//! reducing the rate of switch-to-collector communication down to a few
//! million telemetry reports per second per switch."
//!
//! This is that filter, under real pipeline constraints: a direct-mapped
//! digest cache in a register array. Per report candidate the pipeline
//! hashes the key to a cell and compares the stored 32-bit digest of
//! `key ‖ value` in a single stateful-ALU read-modify-write:
//!
//! * digest unchanged → the value was already reported → **suppress**;
//! * digest differs (new flow, changed value, or a colliding flow evicted
//!   the cell) → store the new digest → **report**.
//!
//! Collision behaviour is safe by construction: two flows sharing a cell
//! evict each other's digests, causing *extra* reports, never missed
//! changes. The one residual risk is a 32-bit digest collision between
//! different values of the *same* key — odds 2⁻³², the same order as the
//! store's checksum collisions (§4).

use dta_core::hash::{AddressMapping, CrcMapping};

use crate::externs::RegisterArray;

/// Suppression statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Candidates that were reported (cache miss / change).
    pub reported: u64,
    /// Candidates suppressed as duplicates.
    pub suppressed: u64,
}

impl FilterStats {
    /// Fraction of candidates suppressed.
    pub fn suppression_ratio(&self) -> f64 {
        let total = self.reported + self.suppressed;
        if total == 0 {
            0.0
        } else {
            self.suppressed as f64 / total as f64
        }
    }
}

/// A direct-mapped change detector in switch SRAM.
pub struct EventFilter {
    cells: RegisterArray<u32>,
    mapping: CrcMapping,
    stats: FilterStats,
}

impl EventFilter {
    /// Create a filter with `cells` register cells (rounded up to a
    /// power of two — the index is a bit mask on hardware).
    pub fn new(cells: u64) -> EventFilter {
        let size = cells.max(1).next_power_of_two();
        EventFilter {
            cells: RegisterArray::new(size as usize),
            mapping: CrcMapping::new(),
            stats: FilterStats::default(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the filter has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Suppression statistics.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Digest of `(key, value)`; zero is reserved for "empty cell", so
    /// a zero digest is nudged to 1 (a 2⁻³² bias, irrelevant here).
    fn digest(&self, key: &[u8], value: &[u8]) -> u32 {
        let d = self.mapping.key_value_checksum(key, value);
        if d == 0 {
            1
        } else {
            d
        }
    }

    /// Decide whether `(key, value)` needs a report, updating the cache.
    pub fn should_report(&mut self, key: &[u8], value: &[u8]) -> bool {
        let index = (self.mapping.slot(key, 0, self.cells.len() as u64)) as usize;
        let digest = self.digest(key, value);
        let old = self
            .cells
            .read_modify_write(index, |_| digest)
            .expect("index is masked into range");
        if old == digest {
            self.stats.suppressed += 1;
            false
        } else {
            self.stats.reported += 1;
            true
        }
    }

    /// Forget everything (e.g. at an epoch boundary, to force periodic
    /// refresh reports).
    pub fn clear(&mut self) {
        for i in 0..self.cells.len() {
            self.cells.write(i, 0).expect("in range");
        }
    }
}

impl core::fmt::Debug for EventFilter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventFilter")
            .field("cells", &self.cells.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sight_reports_repeat_suppresses() {
        let mut filter = EventFilter::new(1024);
        assert!(filter.should_report(b"flow-1", b"path-A"));
        assert!(!filter.should_report(b"flow-1", b"path-A"));
        assert!(!filter.should_report(b"flow-1", b"path-A"));
        assert_eq!(filter.stats().reported, 1);
        assert_eq!(filter.stats().suppressed, 2);
    }

    #[test]
    fn changes_always_report() {
        let mut filter = EventFilter::new(1024);
        assert!(filter.should_report(b"flow-1", b"path-A"));
        assert!(filter.should_report(b"flow-1", b"path-B"), "path change");
        assert!(filter.should_report(b"flow-1", b"path-A"), "change back");
        assert_eq!(filter.stats().reported, 3);
    }

    #[test]
    fn steady_traffic_is_mostly_suppressed() {
        // The §2 scenario: per-packet INT on stable paths. 100 flows ×
        // 1000 packets each; only the first packet of each flow reports.
        let mut filter = EventFilter::new(4096);
        for round in 0..1000 {
            for flow in 0..100u32 {
                let reported = filter.should_report(&flow.to_le_bytes(), b"stable-path-value");
                if round == 0 {
                    assert!(reported, "first packet of flow {flow} must report");
                }
            }
        }
        let stats = filter.stats();
        assert!(
            stats.suppression_ratio() > 0.998,
            "suppression {}",
            stats.suppression_ratio()
        );
        assert_eq!(stats.reported as u32, 100);
    }

    #[test]
    fn collisions_cause_extra_reports_never_missed_changes() {
        // Two flows forced into a tiny filter (1 cell after rounding):
        // they evict each other, so every alternation reports — the safe
        // failure mode.
        let mut filter = EventFilter::new(1);
        assert_eq!(filter.len(), 1);
        assert!(filter.should_report(b"flow-A", b"v"));
        // flow-B maps to the same (only) cell: digest differs → report.
        assert!(filter.should_report(b"flow-B", b"v"));
        // flow-A again: B evicted A's digest → report again (extra, safe).
        assert!(filter.should_report(b"flow-A", b"v"));
        assert_eq!(filter.stats().suppressed, 0);
    }

    #[test]
    fn clear_forces_refresh() {
        let mut filter = EventFilter::new(64);
        filter.should_report(b"k", b"v");
        assert!(!filter.should_report(b"k", b"v"));
        filter.clear();
        assert!(filter.should_report(b"k", b"v"), "refresh after clear");
    }

    #[test]
    fn size_rounds_to_power_of_two() {
        assert_eq!(EventFilter::new(1000).len(), 1024);
        assert_eq!(EventFilter::new(0).len(), 1);
        assert!(!EventFilter::new(4).is_empty());
    }
}
