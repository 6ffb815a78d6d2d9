//! Stateless key-to-address mappings.
//!
//! DART's central trick (§3.1) is that the location of every telemetry
//! record is a *pure function of the key*: `hash(key)` picks the
//! collector, `hash(i, key)` picks the slot for copy `i`, and a third
//! independent hash yields the `b`-bit key checksum stored inside the
//! slot. Writers (switches) and readers (operators) evaluate the same
//! functions, so no index, directory or coordination is needed.
//!
//! Two interchangeable mapping families are provided:
//!
//! * [`CrcMapping`] — what the Tofino prototype actually computes (§6):
//!   CRC externs over the key with a one-byte *domain-separation prefix*
//!   per purpose (collector / copy-i address / checksum). Bit-exact with
//!   the `dta-switch` pipeline's CRC extern.
//! * [`Mix64Mapping`] — an xxhash-style 64-bit mixer with far better
//!   avalanche behaviour, used for the large statistical simulations where
//!   hash quality must not be the bottleneck.
//!
//! Both implement [`AddressMapping`]; every component is generic over it,
//! and writer and reader must simply agree (they share one config).

use dta_wire::crc::{Crc16, Crc32};

/// Domain-separation prefixes fed to the CRC extern ahead of the key.
mod domain {
    /// Collector selection.
    pub const COLLECTOR: u8 = 0xC0;
    /// Slot address for copy `i` (the copy index is a second prefix byte).
    pub const ADDRESS: u8 = 0xA0;
    /// Stored key checksum.
    pub const CHECKSUM: u8 = 0x5C;
}

/// A stateless mapping from telemetry keys to collectors, slots and
/// checksums.
pub trait AddressMapping: Send + Sync {
    /// Choose the collector for `key` among `collectors` (≥ 1).
    fn collector(&self, key: &[u8], collectors: u32) -> u32;

    /// Choose the slot for copy `copy` of `key` within `slots` (≥ 1).
    fn slot(&self, key: &[u8], copy: u8, slots: u64) -> u64;

    /// The 32-bit key checksum stored in the slot (truncated later to the
    /// configured width).
    fn key_checksum(&self, key: &[u8]) -> u32;
}

/// The Tofino-faithful mapping: CRC externs with domain-separating
/// prefixes (§6: "the CRC extern maps (n, key) into the corresponding
/// collector ID and memory address").
///
/// **Why one polynomial per copy index:** CRC is XOR-affine, so with a
/// single polynomial the difference `crc(p‖k₁) ⊕ crc(p‖k₂)` does not
/// depend on the prefix `p` — two keys that collide on their copy-0 slot
/// would *also* collide on copy-1, silently defeating DART's redundancy.
/// Tofino pipelines have several CRC units with independently configured
/// polynomials, so each copy index gets its own polynomial here
/// (Castagnoli, Koopman, CRC-32Q, IEEE), restoring independent slot
/// choices. Copy indices ≥ 4 reuse polynomials with a distinct prefix
/// byte; `N ≤ 4` (the paper's range) is fully independent.
///
/// The units are the `static` engines of [`dta_wire::crc`], and each hash
/// streams the prefix bytes and then the key through one digest — the
/// same CRC as over the concatenated `prefix ‖ key`, with no buffer.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrcMapping;

impl CrcMapping {
    /// Build the mapping: four CRC-32 address units (one polynomial per
    /// copy), CRC-32 (IEEE) for checksums, CRC-16 for collector choice.
    pub fn new() -> Self {
        CrcMapping
    }

    /// The CRC-32 address unit of copy `copy`.
    fn address_unit(copy: u8) -> &'static Crc32 {
        match copy % 4 {
            0 => Crc32::castagnoli(),
            1 => Crc32::koopman(),
            2 => Crc32::q(),
            _ => Crc32::ieee(),
        }
    }
}

impl AddressMapping for CrcMapping {
    fn collector(&self, key: &[u8], collectors: u32) -> u32 {
        debug_assert!(collectors >= 1);
        let mut digest = Crc16::arc().digest();
        digest.update(&[domain::COLLECTOR]);
        digest.update(key);
        u32::from(digest.finalize()) % collectors
    }

    fn slot(&self, key: &[u8], copy: u8, slots: u64) -> u64 {
        debug_assert!(slots >= 1);
        let mut digest = Self::address_unit(copy).digest();
        digest.update(&[domain::ADDRESS, copy]);
        digest.update(key);
        u64::from(digest.finalize()) % slots
    }

    fn key_checksum(&self, key: &[u8]) -> u32 {
        let mut digest = Crc32::ieee().digest();
        digest.update(&[domain::CHECKSUM]);
        digest.update(key);
        digest.finalize()
    }
}

/// Fast 64-bit mixing (xxhash/splitmix-style) used for statistical
/// simulations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mix64Mapping {
    /// Seed for domain separation between independent simulation runs.
    pub seed: u64,
}

impl Mix64Mapping {
    /// Build with a seed.
    pub fn new(seed: u64) -> Self {
        Mix64Mapping { seed }
    }
}

/// SplitMix64 finalizer — full-avalanche 64-bit mixing.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash arbitrary bytes into 64 bits with a seed (xxhash-style chunking,
/// splitmix finalization).
#[inline]
pub fn hash_bytes(key: &[u8], seed: u64) -> u64 {
    let mut acc = mix64(seed ^ 0x51F0_75AE_55E4_26C3 ^ (key.len() as u64));
    let mut chunks = key.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().unwrap());
        acc = mix64(acc ^ word);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        acc = mix64(acc ^ u64::from_le_bytes(tail) ^ (rem.len() as u64) << 56);
    }
    acc
}

impl AddressMapping for Mix64Mapping {
    fn collector(&self, key: &[u8], collectors: u32) -> u32 {
        debug_assert!(collectors >= 1);
        (hash_bytes(key, self.seed ^ 0xC011_EC70) % u64::from(collectors)) as u32
    }

    fn slot(&self, key: &[u8], copy: u8, slots: u64) -> u64 {
        debug_assert!(slots >= 1);
        hash_bytes(key, self.seed ^ 0xADD2 ^ (u64::from(copy) << 32)) % slots
    }

    fn key_checksum(&self, key: &[u8]) -> u32 {
        (hash_bytes(key, self.seed ^ 0x5EC5) >> 32) as u32
    }
}

/// The mapping family to instantiate — carried by [`crate::DartConfig`]
/// so writer and reader always agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingKind {
    /// Tofino-faithful CRC externs.
    Crc,
    /// Fast 64-bit mixing with this seed.
    Mix64 {
        /// Simulation seed.
        seed: u64,
    },
}

impl MappingKind {
    /// Instantiate the mapping.
    pub fn build(self) -> Box<dyn AddressMapping> {
        match self {
            MappingKind::Crc => Box::new(CrcMapping::new()),
            MappingKind::Mix64 { seed } => Box::new(Mix64Mapping::new(seed)),
        }
    }
}

/// Domain-separation prefix for the failover rank hash. Chosen outside
/// the copy-index range actually used for slot addressing (copies ≤ 4)
/// so failover target selection is independent of every slot choice.
const FAILOVER_DOMAIN: u8 = 0x7F;

/// Liveness of up to 64 collectors as a bitmask (bit `i` set ⇔ collector
/// `i` is believed alive).
///
/// This is the unit of agreement between the switch data plane and the
/// query side: the control plane distributes one mask to every switch's
/// per-collector liveness registers and to the operators, and both ends
/// evaluate the *same* [`failover_collector`] function over it. A mask is
/// a plain `u64` on the wire, so pushing it to a switch is a single
/// register write per collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LivenessMask {
    bits: u64,
    total: u32,
}

impl LivenessMask {
    /// Maximum collectors a mask can track.
    pub const MAX_COLLECTORS: u32 = 64;

    /// All `total` collectors alive. Panics if `total` exceeds 64.
    pub fn all_live(total: u32) -> Self {
        assert!(
            total <= Self::MAX_COLLECTORS,
            "liveness mask supports at most 64 collectors"
        );
        let bits = if total == 64 {
            u64::MAX
        } else {
            (1u64 << total) - 1
        };
        LivenessMask { bits, total }
    }

    /// Rebuild from raw bits (e.g. read back from switch registers).
    /// Bits at or above `total` are ignored.
    pub fn from_bits(bits: u64, total: u32) -> Self {
        let mut mask = Self::all_live(total);
        mask.bits &= bits;
        mask
    }

    /// The raw bitmask.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Number of collectors tracked.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Is collector `id` believed alive? Out-of-range ids are dead.
    pub fn is_live(&self, id: u32) -> bool {
        id < self.total && self.bits >> id & 1 == 1
    }

    /// Mark collector `id` alive or dead.
    pub fn set_live(&mut self, id: u32, live: bool) {
        assert!(id < self.total, "collector id out of range");
        if live {
            self.bits |= 1 << id;
        } else {
            self.bits &= !(1 << id);
        }
    }

    /// Number of live collectors.
    pub fn live_count(&self) -> u32 {
        self.bits.count_ones()
    }

    /// The `rank`-th live collector in ascending id order, if any.
    pub fn nth_live(&self, rank: u32) -> Option<u32> {
        let mut remaining = rank;
        for id in 0..self.total {
            if self.bits >> id & 1 == 1 {
                if remaining == 0 {
                    return Some(id);
                }
                remaining -= 1;
            }
        }
        None
    }
}

/// Where writes (and reads) for `key` go under the current liveness mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverTarget {
    /// The primary collector is alive; no remap.
    Primary(u32),
    /// The primary is dead; traffic fails over to this survivor.
    Failover {
        /// The dead primary (still the key's home once it recovers).
        primary: u32,
        /// The live collector absorbing the key's share.
        target: u32,
    },
    /// Every collector is dead — nowhere to write.
    NoneLive {
        /// The key's primary, carried so callers need not hash again.
        primary: u32,
    },
}

impl FailoverTarget {
    /// The collector that should receive writes, if any is live.
    pub fn write_target(&self) -> Option<u32> {
        match *self {
            FailoverTarget::Primary(id) => Some(id),
            FailoverTarget::Failover { target, .. } => Some(target),
            FailoverTarget::NoneLive { .. } => None,
        }
    }
}

/// Resolve the collector for `key` under a liveness mask — the shared
/// failover math evaluated identically by switch egress pipelines and
/// query-side operators.
///
/// The primary choice is `mapping.collector(key, total)`, exactly as in
/// the all-healthy case — failover never perturbs healthy keys. When the
/// primary is dead, a *domain-separated* rank hash picks uniformly among
/// the `live` survivors: `rank = slot(key, 0x7F, live_count)` indexes the
/// live set in ascending id order. Both sides only need the mask and the
/// shared [`AddressMapping`], so no coordination beyond mask distribution
/// is required; a dead collector's key share spreads evenly over all
/// survivors (each inherits `1/(c-1)` of it), and the choice is stable
/// for as long as the mask is stable.
pub fn failover_collector(
    mapping: &dyn AddressMapping,
    key: &[u8],
    mask: LivenessMask,
) -> FailoverTarget {
    let primary = mapping.collector(key, mask.total());
    if mask.is_live(primary) {
        return FailoverTarget::Primary(primary);
    }
    let live = mask.live_count();
    if live == 0 {
        return FailoverTarget::NoneLive { primary };
    }
    let rank = mapping.slot(key, FAILOVER_DOMAIN, u64::from(live)) as u32;
    let target = mask
        .nth_live(rank)
        .expect("rank < live_count, so a live collector exists");
    FailoverTarget::Failover { primary, target }
}

/// One key a switch egress remapped to a failover collector while its
/// primary was marked dead.
///
/// Slots store only key *checksums*, which are not invertible, so the
/// recovery re-replication sweep is key-driven: the egress records which
/// keys it rerouted (and where), and the control plane hands the drained
/// records to the sweep once the primary flips back alive. The sweep
/// re-derives the target through [`failover_collector`] under the
/// outage-era mask and cross-checks it against the recorded `target`;
/// records that disagree (the mask changed again mid-outage) are skipped
/// rather than guessed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverRecord {
    /// The dead primary the key belongs to.
    pub primary: u32,
    /// The live collector the writes were redirected to.
    pub target: u32,
    /// The rerouted key (listkey for Append rings).
    pub key: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mappings() -> Vec<Box<dyn AddressMapping>> {
        vec![Box::new(CrcMapping::new()), Box::new(Mix64Mapping::new(42))]
    }

    #[test]
    fn deterministic() {
        for m in mappings() {
            assert_eq!(m.collector(b"key", 64), m.collector(b"key", 64));
            assert_eq!(m.slot(b"key", 1, 1024), m.slot(b"key", 1, 1024));
            assert_eq!(m.key_checksum(b"key"), m.key_checksum(b"key"));
        }
    }

    #[test]
    fn copies_map_to_distinct_slots_usually() {
        // With 2^20 slots, two copies of the same key collide with
        // probability ~1e-6; over 100 keys none should collide.
        for m in mappings() {
            let mut collisions = 0;
            for i in 0..100u32 {
                let key = i.to_le_bytes();
                if m.slot(&key, 0, 1 << 20) == m.slot(&key, 1, 1 << 20) {
                    collisions += 1;
                }
            }
            assert_eq!(collisions, 0);
        }
    }

    #[test]
    fn in_range() {
        for m in mappings() {
            for i in 0..1000u32 {
                let key = i.to_le_bytes();
                assert!(m.collector(&key, 7) < 7);
                assert!(m.slot(&key, 3, 13) < 13);
            }
        }
    }

    /// Chi-squared uniformity check over 64 buckets.
    fn chi_squared(counts: &[u64], total: u64) -> f64 {
        let expected = total as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum()
    }

    #[test]
    fn slot_distribution_is_uniform() {
        for m in mappings() {
            let buckets = 64usize;
            let samples = 64_000u64;
            let mut counts = vec![0u64; buckets];
            for i in 0..samples {
                let key = i.to_le_bytes();
                counts[m.slot(&key, 0, buckets as u64) as usize] += 1;
            }
            // 63 degrees of freedom; the 0.999 quantile is ~103.
            assert!(
                chi_squared(&counts, samples) < 110.0,
                "non-uniform slot distribution"
            );
        }
    }

    #[test]
    fn collector_distribution_is_uniform() {
        for m in mappings() {
            let buckets = 64u32;
            let samples = 64_000u64;
            let mut counts = vec![0u64; buckets as usize];
            for i in 0..samples {
                let key = i.to_le_bytes();
                counts[m.collector(&key, buckets) as usize] += 1;
            }
            assert!(
                chi_squared(&counts, samples) < 110.0,
                "non-uniform collector distribution"
            );
        }
    }

    #[test]
    fn checksum_bits_are_uniform() {
        // Each of the 32 checksum bits should be set ~half the time.
        for m in mappings() {
            let samples = 32_000u64;
            let mut ones = [0u64; 32];
            for i in 0..samples {
                let sum = m.key_checksum(&i.to_le_bytes());
                for (bit, count) in ones.iter_mut().enumerate() {
                    if sum >> bit & 1 == 1 {
                        *count += 1;
                    }
                }
            }
            for &count in &ones {
                let frac = count as f64 / samples as f64;
                assert!((0.47..0.53).contains(&frac), "biased checksum bit: {frac}");
            }
        }
    }

    #[test]
    fn domains_are_independent() {
        // The checksum must not be predictable from the slot of copy 0 —
        // compare a few keys mapping to the same slot and require distinct
        // checksums (domain separation).
        for m in mappings() {
            let a = m.key_checksum(b"alpha");
            let b = m.key_checksum(b"beta");
            assert_ne!(a, b);
            assert_ne!(m.slot(b"alpha", 0, u64::MAX), u64::from(a));
        }
    }

    #[test]
    fn copy_slots_are_independent_under_crc() {
        // Regression for a subtle linearity trap: with a single CRC
        // polynomial, a copy-0 slot collision between two keys implies a
        // copy-1 collision too (the XOR difference is prefix-independent),
        // defeating redundancy. With per-copy polynomials, keys that
        // collide on copy 0 must almost never also collide on copy 1.
        let m = CrcMapping::new();
        let slots = 256u64; // small so copy-0 collisions are plentiful
        let keys: Vec<[u8; 13]> = (0..2000u32)
            .map(|i| {
                let mut k = [0u8; 13];
                k[..4].copy_from_slice(&i.to_be_bytes());
                k[4..8].copy_from_slice(&i.wrapping_mul(2654435761).to_be_bytes());
                k
            })
            .collect();
        let mut both = 0u32;
        let mut first_only = 0u32;
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len().min(i + 50) {
                if m.slot(&keys[i], 0, slots) == m.slot(&keys[j], 0, slots) {
                    if m.slot(&keys[i], 1, slots) == m.slot(&keys[j], 1, slots) {
                        both += 1;
                    } else {
                        first_only += 1;
                    }
                }
            }
        }
        assert!(first_only > 0, "need copy-0 collisions to test with");
        assert!(
            both * 20 < first_only,
            "copy-1 collisions track copy-0 ({both} of {})",
            both + first_only
        );
    }

    #[test]
    fn mix64_seed_changes_mapping() {
        let a = Mix64Mapping::new(1);
        let b = Mix64Mapping::new(2);
        let mut differs = false;
        for i in 0..16u32 {
            if a.slot(&i.to_le_bytes(), 0, 1 << 20) != b.slot(&i.to_le_bytes(), 0, 1 << 20) {
                differs = true;
            }
        }
        assert!(differs);
    }

    #[test]
    fn mapping_kind_builds() {
        let crc = MappingKind::Crc.build();
        let mix = MappingKind::Mix64 { seed: 7 }.build();
        assert!(crc.slot(b"k", 0, 100) < 100);
        assert!(mix.slot(b"k", 0, 100) < 100);
    }

    #[test]
    fn hash_bytes_tail_handling() {
        // Keys differing only in a trailing byte must hash differently.
        assert_ne!(hash_bytes(b"12345678A", 0), hash_bytes(b"12345678B", 0));
        // Length extension: "x" vs "x\0" must differ.
        assert_ne!(hash_bytes(b"x", 0), hash_bytes(b"x\0", 0));
    }

    #[test]
    fn liveness_mask_basics() {
        let mut mask = LivenessMask::all_live(4);
        assert_eq!(mask.live_count(), 4);
        assert!(mask.is_live(3));
        assert!(!mask.is_live(4)); // out of range ⇒ dead
        mask.set_live(2, false);
        assert_eq!(mask.live_count(), 3);
        assert!(!mask.is_live(2));
        assert_eq!(mask.nth_live(0), Some(0));
        assert_eq!(mask.nth_live(2), Some(3));
        assert_eq!(mask.nth_live(3), None);
        mask.set_live(2, true);
        assert_eq!(mask, LivenessMask::all_live(4));
        // 64-collector edge: (1 << 64) must not be computed.
        assert_eq!(LivenessMask::all_live(64).live_count(), 64);
        assert_eq!(LivenessMask::from_bits(0b101, 2).live_count(), 1);
    }

    #[test]
    fn failover_noop_when_all_live() {
        for m in mappings() {
            let mask = LivenessMask::all_live(8);
            for i in 0..200u32 {
                let key = i.to_le_bytes();
                let primary = m.collector(&key, 8);
                assert_eq!(
                    failover_collector(m.as_ref(), &key, mask),
                    FailoverTarget::Primary(primary)
                );
            }
        }
    }

    #[test]
    fn failover_only_moves_dead_primary_keys() {
        for m in mappings() {
            let mut mask = LivenessMask::all_live(8);
            mask.set_live(3, false);
            for i in 0..500u32 {
                let key = i.to_le_bytes();
                let primary = m.collector(&key, 8);
                match failover_collector(m.as_ref(), &key, mask) {
                    FailoverTarget::Primary(id) => {
                        assert_eq!(id, primary);
                        assert_ne!(id, 3);
                    }
                    FailoverTarget::Failover { primary: p, target } => {
                        assert_eq!(p, 3);
                        assert_eq!(primary, 3);
                        assert_ne!(target, 3, "failover must pick a survivor");
                        assert!(mask.is_live(target));
                    }
                    FailoverTarget::NoneLive { .. } => panic!("survivors exist"),
                }
            }
        }
    }

    #[test]
    fn failover_spreads_over_survivors() {
        // A dead collector's share must spread over all survivors, not
        // pile onto one (which would cascade overload on real racks).
        let m = Mix64Mapping::new(9);
        let mut mask = LivenessMask::all_live(4);
        mask.set_live(1, false);
        let mut counts = [0u64; 4];
        let mut remapped = 0u64;
        for i in 0..20_000u32 {
            let key = i.to_le_bytes();
            if let FailoverTarget::Failover { target, .. } = failover_collector(&m, &key, mask) {
                counts[target as usize] += 1;
                remapped += 1;
            }
        }
        assert_eq!(counts[1], 0);
        let expected = remapped as f64 / 3.0;
        for &id in &[0usize, 2, 3] {
            let frac = counts[id] as f64 / expected;
            assert!(
                (0.9..1.1).contains(&frac),
                "survivor {id} got {frac:.2}x its fair share"
            );
        }
    }

    #[test]
    fn failover_is_deterministic_and_mask_sensitive() {
        let m = CrcMapping::new();
        let mut mask = LivenessMask::all_live(6);
        mask.set_live(0, false);
        for i in 0..100u32 {
            let key = i.to_le_bytes();
            // Switch side and query side compute independently — the
            // function of (mapping, key, mask) must agree call-to-call.
            assert_eq!(
                failover_collector(&m, &key, mask),
                failover_collector(&m, &key, mask)
            );
        }
        // A second failure reroutes only what it must: keys that were on
        // still-live targets may move (rank set shrank), but the new
        // target is always live under the *current* mask.
        let mut mask2 = mask;
        mask2.set_live(4, false);
        for i in 0..500u32 {
            let key = i.to_le_bytes();
            if let Some(t) = failover_collector(&m, &key, mask2).write_target() {
                assert!(mask2.is_live(t));
            }
        }
    }

    #[test]
    fn failover_none_live() {
        let m = Mix64Mapping::new(0);
        let mask = LivenessMask::from_bits(0, 3);
        assert_eq!(
            failover_collector(&m, b"k", mask),
            FailoverTarget::NoneLive {
                primary: m.collector(b"k", 3)
            }
        );
        assert_eq!(failover_collector(&m, b"k", mask).write_target(), None);
    }
}
