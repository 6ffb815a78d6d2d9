//! The DART store: a flat byte region treated as a hash table of slots.
//!
//! [`DartStore`] owns its memory (simulation mode). [`StoreView`] applies
//! the identical read path to memory owned elsewhere — in particular a
//! registered RDMA memory region that switches have been writing into
//! (`dta-collector` queries through a `StoreView` so the "zero-CPU insert"
//! property is preserved: the CPU only ever *reads*).

use crate::config::{DartConfig, WriteStrategy};
use crate::error::DartError;
use crate::hash::AddressMapping;
use crate::primitive::{
    append_encode_entry, append_newest_seq, append_window, increment_decode, PrimitiveSpec,
};
use crate::query::{decide_explain, DecisionReason, QueryOutcome, ReturnPolicy};

/// What one slot probe of a query saw (one of the `N` copies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotProbe {
    /// Copy index (0-based).
    pub copy: u8,
    /// Slot index the copy hashed to.
    pub slot: u64,
    /// Whether the slot held any report (non-zero bytes).
    pub occupied: bool,
    /// Whether the stored key checksum matched the queried key's.
    pub checksum_matched: bool,
}

/// A full trace of one query against one store: every slot probed, the
/// policy applied, and why it answered or abstained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreExplain {
    /// The `N` probes, in copy order.
    pub probes: Vec<SlotProbe>,
    /// Policy that made the decision.
    pub policy: ReturnPolicy,
    /// Why the policy answered or abstained.
    pub reason: DecisionReason,
    /// The outcome the caller would have received from a plain query.
    pub outcome: QueryOutcome,
}

impl StoreExplain {
    /// Number of probes whose checksum matched.
    pub fn matched(&self) -> usize {
        self.probes.iter().filter(|p| p.checksum_matched).count()
    }

    /// Number of probes that found an occupied slot.
    pub fn occupied(&self) -> usize {
        self.probes.iter().filter(|p| p.occupied).count()
    }
}

/// Where one store query's per-slot trace goes, probe by probe.
/// [`StoreView::query_traced`] is generic over it: `()` discards every
/// probe, so [`StoreView::query`] compiles to a read with no trace at
/// all, and `Vec<SlotProbe>` keeps them for
/// [`StoreView::query_explain`].
pub trait ProbeTrace {
    /// One slot was probed.
    fn probe(&mut self, probe: SlotProbe);
}

impl ProbeTrace for () {
    #[inline]
    fn probe(&mut self, _probe: SlotProbe) {}
}

impl ProbeTrace for Vec<SlotProbe> {
    fn probe(&mut self, probe: SlotProbe) {
        self.push(probe);
    }
}

/// Counters maintained by the write path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Keys inserted via [`DartStore::insert`].
    pub keys_inserted: u64,
    /// Individual slot writes performed.
    pub slot_writes: u64,
    /// Conditional (CAS) writes that found the slot occupied and skipped.
    pub cas_skips: u64,
}

/// An owned DART key-value store for one collector.
pub struct DartStore {
    config: DartConfig,
    mapping: Box<dyn AddressMapping>,
    memory: Vec<u8>,
    stats: StoreStats,
    /// Local tail state for [`PrimitiveSpec::Append`] (one last-stored
    /// sequence number per ring; empty for the other primitives). This
    /// mirrors the switch's tail-pointer registers for the owned
    /// simulation path — the RDMA path never consults it.
    tails: Vec<u32>,
}

impl DartStore {
    /// Allocate a zeroed store for `config`.
    pub fn new(config: DartConfig) -> DartStore {
        let bytes = config.bytes_per_collector();
        let mapping = config.mapping.build();
        let tails = Self::fresh_tails(&config);
        DartStore {
            config,
            mapping,
            memory: vec![0u8; bytes],
            stats: StoreStats::default(),
            tails,
        }
    }

    /// Wrap existing memory (must match the configured geometry).
    pub fn from_memory(config: DartConfig, memory: Vec<u8>) -> Result<DartStore, DartError> {
        config.validate()?;
        if memory.len() != config.bytes_per_collector() {
            return Err(DartError::GeometryMismatch {
                expected: config.bytes_per_collector(),
                actual: memory.len(),
            });
        }
        let mapping = config.mapping.build();
        let tails = Self::rebuild_tails(&config, &memory);
        Ok(DartStore {
            config,
            mapping,
            memory,
            stats: StoreStats::default(),
            tails,
        })
    }

    fn fresh_tails(config: &DartConfig) -> Vec<u32> {
        match config.primitive {
            PrimitiveSpec::Append { .. } => vec![0u32; config.rings() as usize],
            _ => Vec::new(),
        }
    }

    /// Recover per-ring tails from memory contents: the newest stored
    /// sequence number under serial arithmetic (0 for an empty ring).
    fn rebuild_tails(config: &DartConfig, memory: &[u8]) -> Vec<u32> {
        let PrimitiveSpec::Append { ring_capacity } = config.primitive else {
            return Vec::new();
        };
        let entry_len = config.entry_len();
        let ring_bytes = ring_capacity as usize * entry_len;
        memory
            .chunks_exact(ring_bytes)
            .map(|ring| append_newest_seq(&config.layout, ring))
            .collect()
    }

    /// The configuration.
    pub fn config(&self) -> &DartConfig {
        &self.config
    }

    /// Write-path counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The raw backing memory.
    pub fn memory(&self) -> &[u8] {
        &self.memory
    }

    /// Reset all slots to zero and clear counters.
    pub fn clear(&mut self) {
        self.memory.fill(0);
        self.stats = StoreStats::default();
        self.tails = Self::fresh_tails(&self.config);
    }

    /// Fraction of slots holding data (any non-zero byte). A direct
    /// load signal for the §5.1 adaptive-N controller — unlike write
    /// counters it saturates as the table fills: occupancy
    /// `≈ 1 − e^{−αN}` at load α.
    pub fn occupancy(&self) -> f64 {
        let entry_len = self.config.entry_len();
        let occupied = self
            .memory
            .chunks_exact(entry_len)
            .filter(|slot| slot.iter().any(|&b| b != 0))
            .count();
        occupied as f64 / self.config.slots as f64
    }

    fn slot_range(&self, slot: u64) -> Result<core::ops::Range<usize>, DartError> {
        if slot >= self.config.slots {
            return Err(DartError::SlotOutOfRange {
                slot,
                slots: self.config.slots,
            });
        }
        let len = self.config.entry_len();
        let start = slot as usize * len;
        Ok(start..start + len)
    }

    /// Insert a report for `key` under the configured primitive:
    ///
    /// * Key-Write — write all `N` copies per the [`WriteStrategy`];
    /// * Append — append one entry to `key`'s ring (`value` is the
    ///   entry body);
    /// * Key-Increment — add the 8-byte big-endian delta in `value` to
    ///   each of `key`'s counter copies.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), DartError> {
        match self.config.primitive {
            PrimitiveSpec::KeyWrite => self.insert_key_write(key, value),
            PrimitiveSpec::Append { .. } => {
                self.append(key, value)?;
                Ok(())
            }
            PrimitiveSpec::KeyIncrement => {
                let delta = increment_decode(value)?;
                self.increment(key, delta)
            }
        }
    }

    fn insert_key_write(&mut self, key: &[u8], value: &[u8]) -> Result<(), DartError> {
        let layout = self.config.layout;
        if value.len() != layout.value_len {
            return Err(DartError::ValueLength {
                expected: layout.value_len,
                actual: value.len(),
            });
        }
        let checksum = self.mapping.key_checksum(key);
        let mut encoded = vec![0u8; layout.slot_len()];
        layout
            .encode(checksum, value, &mut encoded)
            .expect("length checked");

        match self.config.strategy {
            WriteStrategy::AllSlots => {
                for copy in 0..self.config.copies {
                    let slot = self.mapping.slot(key, copy, self.config.slots);
                    self.write_slot_bytes(slot, &encoded)?;
                }
            }
            WriteStrategy::WriteThenCas => {
                // Copy 0: unconditional RDMA WRITE.
                let slot0 = self.mapping.slot(key, 0, self.config.slots);
                self.write_slot_bytes(slot0, &encoded)?;
                // Copy 1: COMPARE_SWAP(compare = empty) — fills the second
                // slot only if it is unoccupied (§7).
                let slot1 = self.mapping.slot(key, 1, self.config.slots);
                let range = self.slot_range(slot1)?;
                if self.memory[range.clone()].iter().all(|&b| b == 0) {
                    self.memory[range].copy_from_slice(&encoded);
                    self.stats.slot_writes += 1;
                } else {
                    self.stats.cas_skips += 1;
                }
            }
        }
        self.stats.keys_inserted += 1;
        Ok(())
    }

    /// Write a single copy of a key (what one RDMA WRITE from one
    /// mirrored report packet does; the Tofino picks `copy` at random
    /// per report, §6). Under Append this appends one ring entry; under
    /// Key-Increment it adds the delta to `copy`'s counter word only.
    pub fn insert_copy(&mut self, key: &[u8], value: &[u8], copy: u8) -> Result<(), DartError> {
        match self.config.primitive {
            PrimitiveSpec::KeyWrite => {}
            PrimitiveSpec::Append { .. } => {
                self.append(key, value)?;
                return Ok(());
            }
            PrimitiveSpec::KeyIncrement => {
                let delta = increment_decode(value)?;
                let slot = self.mapping.slot(key, copy, self.config.slots);
                let range = self.slot_range(slot)?;
                let word = &mut self.memory[range];
                let old = u64::from_be_bytes(word.try_into().expect("8-byte counter word"));
                word.copy_from_slice(&old.wrapping_add(delta).to_be_bytes());
                self.stats.slot_writes += 1;
                return Ok(());
            }
        }
        let layout = self.config.layout;
        if value.len() != layout.value_len {
            return Err(DartError::ValueLength {
                expected: layout.value_len,
                actual: value.len(),
            });
        }
        let checksum = self.mapping.key_checksum(key);
        let mut encoded = vec![0u8; layout.slot_len()];
        layout
            .encode(checksum, value, &mut encoded)
            .expect("length checked");
        let slot = self.mapping.slot(key, copy, self.config.slots);
        self.write_slot_bytes(slot, &encoded)
    }

    /// Write raw slot bytes (the NIC DMA path: bytes land wherever the
    /// RETH points, no interpretation).
    pub fn write_slot_bytes(&mut self, slot: u64, bytes: &[u8]) -> Result<(), DartError> {
        let len = self.config.entry_len();
        let range = self.slot_range(slot)?;
        self.memory[range].copy_from_slice(&bytes[..len]);
        self.stats.slot_writes += 1;
        Ok(())
    }

    /// Append one entry to `listkey`'s ring ([`PrimitiveSpec::Append`]
    /// only). Returns the stored sequence number the entry was stamped
    /// with — the same value the switch's tail-pointer register would
    /// have produced.
    pub fn append(&mut self, listkey: &[u8], value: &[u8]) -> Result<u32, DartError> {
        let PrimitiveSpec::Append { ring_capacity } = self.config.primitive else {
            return Err(DartError::InvalidConfig(
                "append requires the Append primitive",
            ));
        };
        let layout = self.config.layout;
        if value.len() != layout.value_len {
            return Err(DartError::ValueLength {
                expected: layout.value_len,
                actual: value.len(),
            });
        }
        let rings = self.config.rings();
        let ring = self.mapping.slot(listkey, 0, rings);
        let stored = self.tails[ring as usize].wrapping_add(1);
        self.tails[ring as usize] = stored;
        let position = u64::from(stored.wrapping_sub(1)) % ring_capacity;
        let slot = ring * ring_capacity + position;
        let checksum = self.mapping.key_checksum(listkey);
        let mut entry = vec![0u8; self.config.entry_len()];
        append_encode_entry(&layout, stored, checksum, value, &mut entry)?;
        self.write_slot_bytes(slot, &entry)?;
        self.stats.keys_inserted += 1;
        Ok(stored)
    }

    /// Add `delta` to each of `key`'s counter copies
    /// ([`PrimitiveSpec::KeyIncrement`] only) — the local equivalent of
    /// the switch's `N` FETCH_ADD atomics.
    pub fn increment(&mut self, key: &[u8], delta: u64) -> Result<(), DartError> {
        if self.config.primitive != PrimitiveSpec::KeyIncrement {
            return Err(DartError::InvalidConfig(
                "increment requires the KeyIncrement primitive",
            ));
        }
        for copy in 0..self.config.copies {
            let slot = self.mapping.slot(key, copy, self.config.slots);
            let range = self.slot_range(slot)?;
            let word = &mut self.memory[range];
            let old = u64::from_be_bytes(word.try_into().expect("8-byte counter word"));
            word.copy_from_slice(&old.wrapping_add(delta).to_be_bytes());
            self.stats.slot_writes += 1;
        }
        self.stats.keys_inserted += 1;
        Ok(())
    }

    /// Current tail (last stored sequence number) of `listkey`'s ring.
    pub fn ring_tail(&self, listkey: &[u8]) -> Option<u32> {
        match self.config.primitive {
            PrimitiveSpec::Append { .. } => {
                let ring = self.mapping.slot(listkey, 0, self.config.rings());
                self.tails.get(ring as usize).copied()
            }
            _ => None,
        }
    }

    /// Query under the configured default policy.
    pub fn query(&self, key: &[u8]) -> QueryOutcome {
        self.view().query(key)
    }

    /// Query `key` under `policy` (§4: the policy is a per-query
    /// decision, no stored state changes) and trace every slot probed
    /// plus the policy's reasoning.
    pub fn query_explain(&self, key: &[u8], policy: ReturnPolicy) -> StoreExplain {
        self.view().query_explain(key, policy)
    }

    /// A read-only view over this store's memory.
    pub fn view(&self) -> StoreView<'_> {
        StoreView {
            config: &self.config,
            mapping: self.mapping.as_ref(),
            memory: &self.memory,
        }
    }
}

impl Clone for DartStore {
    fn clone(&self) -> Self {
        let mut copy = DartStore::from_memory(self.config.clone(), self.memory.clone())
            .expect("geometry is self-consistent");
        copy.stats = self.stats;
        copy
    }
}

impl core::fmt::Debug for DartStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DartStore")
            .field("slots", &self.config.slots)
            .field("slot_len", &self.config.layout.slot_len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// A read-only DART query engine over externally owned memory.
pub struct StoreView<'a> {
    config: &'a DartConfig,
    mapping: &'a dyn AddressMapping,
    memory: &'a [u8],
}

impl<'a> StoreView<'a> {
    /// Build a view over foreign memory (e.g. an RDMA memory region).
    ///
    /// `mapping` must be built from `config.mapping` — use
    /// [`OwnedQueryEngine`] if you need the view to own it.
    pub fn over(
        config: &'a DartConfig,
        mapping: &'a dyn AddressMapping,
        memory: &'a [u8],
    ) -> Result<StoreView<'a>, DartError> {
        if memory.len() != config.bytes_per_collector() {
            return Err(DartError::GeometryMismatch {
                expected: config.bytes_per_collector(),
                actual: memory.len(),
            });
        }
        Ok(StoreView {
            config,
            mapping,
            memory,
        })
    }

    /// The raw bytes of one entry slot.
    pub fn entry_bytes(&self, slot: u64) -> Result<&'a [u8], DartError> {
        if slot >= self.config.slots {
            return Err(DartError::SlotOutOfRange {
                slot,
                slots: self.config.slots,
            });
        }
        let len = self.config.entry_len();
        let start = slot as usize * len;
        Ok(&self.memory[start..start + len])
    }

    /// Checksum-verified read of one Key-Write copy of `key`: the slot
    /// index plus its raw entry bytes, or `None` if the slot is empty or
    /// holds another key's report. This is the recovery sweep's read
    /// primitive — write-back only moves entries whose stored checksum
    /// re-verifies against the key, so a stranded slot that was since
    /// overwritten by the failover collector's own traffic is never
    /// copied (and never tombstoned).
    pub fn verified_copy(&self, key: &[u8], copy: u8) -> Option<(u64, Vec<u8>)> {
        let layout = self.config.layout;
        let expected = layout.checksum.truncate(self.mapping.key_checksum(key));
        let slot = self.mapping.slot(key, copy, self.config.slots);
        let entry = self.entry_bytes(slot).expect("slot within geometry");
        match layout.decode(entry) {
            Ok((stored, _)) if stored == expected && entry.iter().any(|&b| b != 0) => {
                Some((slot, entry.to_vec()))
            }
            _ => None,
        }
    }

    /// The ring index `listkey` hashes to (Append geometry).
    pub fn ring_index(&self, listkey: &[u8]) -> u64 {
        self.mapping.slot(listkey, 0, self.config.rings())
    }

    /// The raw bytes of one whole Append ring.
    pub fn ring_bytes(&self, ring: u64) -> Result<&'a [u8], DartError> {
        let PrimitiveSpec::Append { ring_capacity } = self.config.primitive else {
            return Err(DartError::InvalidConfig(
                "ring_bytes requires the Append primitive",
            ));
        };
        let rings = self.config.rings();
        if ring >= rings {
            return Err(DartError::SlotOutOfRange {
                slot: ring,
                slots: rings,
            });
        }
        let entry_len = self.config.entry_len();
        let start = (ring * ring_capacity) as usize * entry_len;
        Ok(&self.memory[start..start + ring_capacity as usize * entry_len])
    }

    /// One Key-Increment counter word of `key`: `(slot, value)`.
    pub fn counter_word(&self, key: &[u8], copy: u8) -> Result<(u64, u64), DartError> {
        if self.config.primitive != PrimitiveSpec::KeyIncrement {
            return Err(DartError::InvalidConfig(
                "counter_word requires the KeyIncrement primitive",
            ));
        }
        let slot = self.mapping.slot(key, copy, self.config.slots);
        let entry = self.entry_bytes(slot)?;
        let word = u64::from_be_bytes(entry.try_into().expect("8-byte counter word"));
        Ok((slot, word))
    }

    /// Query under the configuration's default policy, recording no
    /// trace.
    pub fn query(&self, key: &[u8]) -> QueryOutcome {
        self.query_traced(key, self.config.policy, &mut ()).0
    }

    /// Query `key` and trace every slot probed plus the policy's
    /// reasoning — the read-side half of the query-explain API.
    pub fn query_explain(&self, key: &[u8], policy: ReturnPolicy) -> StoreExplain {
        let mut probes = Vec::new();
        let (outcome, reason) = self.query_traced(key, policy, &mut probes);
        StoreExplain {
            probes,
            policy,
            reason,
            outcome,
        }
    }

    /// The query implementation: read `key`'s slots, hand each probe to
    /// `trace` as it is made, and decide under `policy`.
    /// [`StoreView::query`] and [`StoreView::query_explain`] are this
    /// function with a no-op and a recording trace, so the two can never
    /// disagree, whatever the primitive.
    ///
    /// The probe/decision shape is identical for all three primitives,
    /// so the cluster's failover routing and the obs registry consume
    /// one trace format:
    ///
    /// * Key-Write — one probe per copy; outcome decided by `policy`.
    /// * Append — one probe per ring position; the outcome concatenates
    ///   the in-window entries **oldest first**, `votes` = entry count.
    /// * Key-Increment — one probe per copy; the outcome is the 8-byte
    ///   big-endian *minimum* over non-zero copies (conservative under
    ///   partial loss), `votes` = copies agreeing with the minimum.
    pub fn query_traced<T: ProbeTrace>(
        &self,
        key: &[u8],
        policy: ReturnPolicy,
        trace: &mut T,
    ) -> (QueryOutcome, DecisionReason) {
        match self.config.primitive {
            PrimitiveSpec::KeyWrite => self.query_key_write(key, policy, trace),
            PrimitiveSpec::Append { ring_capacity } => self.query_append(key, ring_capacity, trace),
            PrimitiveSpec::KeyIncrement => self.query_increment(key, trace),
        }
    }

    fn query_key_write<T: ProbeTrace>(
        &self,
        key: &[u8],
        policy: ReturnPolicy,
        trace: &mut T,
    ) -> (QueryOutcome, DecisionReason) {
        let layout = self.config.layout;
        let expected = layout.checksum.truncate(self.mapping.key_checksum(key));
        let slot_len = layout.slot_len();
        // The matching values, in copy order, borrowed from slot memory:
        // inline for the usual handful of copies, spilled to the heap
        // only beyond `INLINE_COPIES`.
        const INLINE_COPIES: usize = 8;
        let mut inline: [&[u8]; INLINE_COPIES] = [&[]; INLINE_COPIES];
        let mut spilled: Vec<&[u8]> = Vec::new();
        let mut matched = 0usize;
        for copy in 0..self.config.copies {
            let slot = self.mapping.slot(key, copy, self.config.slots);
            let start = slot as usize * slot_len;
            let bytes = &self.memory[start..start + slot_len];
            let value = match layout.decode(bytes) {
                Ok((stored, value)) if stored == expected => Some(value),
                _ => None,
            };
            trace.probe(SlotProbe {
                copy,
                slot,
                occupied: bytes.iter().any(|&b| b != 0),
                checksum_matched: value.is_some(),
            });
            if let Some(value) = value {
                match inline.get_mut(matched) {
                    Some(free) => *free = value,
                    None => {
                        if spilled.is_empty() {
                            spilled.extend_from_slice(&inline);
                        }
                        spilled.push(value);
                    }
                }
                matched += 1;
            }
        }
        let matches = if matched <= INLINE_COPIES {
            &inline[..matched]
        } else {
            &spilled[..]
        };
        decide_explain(matches, policy)
    }

    fn query_append<T: ProbeTrace>(
        &self,
        listkey: &[u8],
        ring_capacity: u64,
        trace: &mut T,
    ) -> (QueryOutcome, DecisionReason) {
        let entry_len = self.config.entry_len();
        let rings = self.config.rings();
        let ring = self.mapping.slot(listkey, 0, rings);
        let base = ring * ring_capacity;
        let start = base as usize * entry_len;
        let ring_bytes = &self.memory[start..start + ring_capacity as usize * entry_len];
        let want = self.mapping.key_checksum(listkey);
        let window = append_window(&self.config.layout, ring_bytes, want, ring_capacity, |p| {
            trace.probe(SlotProbe {
                copy: 0,
                slot: base + p.position,
                occupied: p.occupied,
                checksum_matched: p.matched,
            })
        });
        if window.is_empty() {
            return (QueryOutcome::Empty, DecisionReason::NoSlotMatched);
        }
        let entries = window.values().count();
        let mut answer = Vec::with_capacity(entries * self.config.layout.value_len);
        for value in window.values() {
            answer.extend_from_slice(value);
        }
        let votes = entries.min(usize::from(u8::MAX)) as u8;
        (
            QueryOutcome::Answer(answer),
            DecisionReason::Answered { votes },
        )
    }

    fn query_increment<T: ProbeTrace>(
        &self,
        key: &[u8],
        trace: &mut T,
    ) -> (QueryOutcome, DecisionReason) {
        let entry_len = self.config.entry_len();
        // The smallest non-zero copy and how many copies hold it.
        let mut minimum: Option<(u64, usize)> = None;
        for copy in 0..self.config.copies {
            let slot = self.mapping.slot(key, copy, self.config.slots);
            let start = slot as usize * entry_len;
            let word = u64::from_be_bytes(
                self.memory[start..start + entry_len]
                    .try_into()
                    .expect("8-byte counter word"),
            );
            let occupied = word != 0;
            trace.probe(SlotProbe {
                copy,
                slot,
                occupied,
                checksum_matched: occupied,
            });
            if occupied {
                minimum = match minimum {
                    Some((low, votes)) if word == low => Some((low, votes + 1)),
                    Some((low, votes)) if word > low => Some((low, votes)),
                    _ => Some((word, 1)),
                };
            }
        }
        match minimum {
            None => (QueryOutcome::Empty, DecisionReason::NoSlotMatched),
            Some((minimum, votes)) => (
                QueryOutcome::Answer(minimum.to_be_bytes().to_vec()),
                DecisionReason::Answered {
                    votes: votes.min(usize::from(u8::MAX)) as u8,
                },
            ),
        }
    }
}

/// A query engine that owns its mapping — convenient when querying RDMA
/// memory repeatedly without borrowing gymnastics.
pub struct OwnedQueryEngine {
    config: DartConfig,
    mapping: Box<dyn AddressMapping>,
}

impl OwnedQueryEngine {
    /// Build from a configuration.
    pub fn new(config: DartConfig) -> Result<OwnedQueryEngine, DartError> {
        config.validate()?;
        let mapping = config.mapping.build();
        Ok(OwnedQueryEngine { config, mapping })
    }

    /// The configuration.
    pub fn config(&self) -> &DartConfig {
        &self.config
    }

    /// A [`StoreView`] over `memory` using this engine's mapping.
    pub fn view<'a>(&'a self, memory: &'a [u8]) -> Result<StoreView<'a>, DartError> {
        StoreView::over(&self.config, self.mapping.as_ref(), memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DartConfig;
    use crate::query::{classify, QueryClass};

    fn config(slots: u64) -> DartConfig {
        DartConfig::builder()
            .slots(slots)
            .copies(2)
            .value_len(20)
            .build()
            .unwrap()
    }

    fn value(tag: u8) -> Vec<u8> {
        vec![tag; 20]
    }

    #[test]
    fn insert_then_query_answers() {
        let mut store = DartStore::new(config(1 << 12));
        store.insert(b"k1", &value(1)).unwrap();
        assert_eq!(store.query(b"k1"), QueryOutcome::Answer(value(1)));
    }

    #[test]
    fn unreported_key_is_empty() {
        let store = DartStore::new(config(1 << 12));
        assert_eq!(store.query(b"never"), QueryOutcome::Empty);
    }

    #[test]
    fn overwrite_updates_value() {
        let mut store = DartStore::new(config(1 << 12));
        store.insert(b"k1", &value(1)).unwrap();
        store.insert(b"k1", &value(2)).unwrap();
        assert_eq!(store.query(b"k1"), QueryOutcome::Answer(value(2)));
    }

    #[test]
    fn stats_track_writes() {
        let mut store = DartStore::new(config(1 << 12));
        store.insert(b"k1", &value(1)).unwrap();
        store.insert(b"k2", &value(2)).unwrap();
        let stats = store.stats();
        assert_eq!(stats.keys_inserted, 2);
        assert_eq!(stats.slot_writes, 4); // N = 2 copies each
    }

    #[test]
    fn heavy_load_ages_out_old_keys() {
        // 256 slots, 2048 keys: early keys are almost surely overwritten.
        let mut store = DartStore::new(config(256));
        store.insert(b"victim", &value(9)).unwrap();
        for i in 0..2048u32 {
            store
                .insert(format!("k{i}").as_bytes(), &value((i % 251) as u8))
                .unwrap();
        }
        // The victim should no longer be answerable correctly; with
        // 32-bit checksums a wrong answer is essentially impossible, so
        // expect Empty.
        let outcome = store.query(b"victim");
        assert_eq!(classify(&outcome, &value(9)), QueryClass::EmptyReturn);
    }

    #[test]
    fn insert_copy_fills_one_slot() {
        let mut store = DartStore::new(config(1 << 12));
        store.insert_copy(b"k1", &value(3), 0).unwrap();
        assert_eq!(store.stats().slot_writes, 1);
        // One copy is already answerable.
        assert_eq!(store.query(b"k1"), QueryOutcome::Answer(value(3)));
    }

    #[test]
    fn value_length_enforced() {
        let mut store = DartStore::new(config(64));
        assert!(matches!(
            store.insert(b"k", &[0u8; 3]),
            Err(DartError::ValueLength { .. })
        ));
        assert!(matches!(
            store.insert_copy(b"k", &[0u8; 3], 0),
            Err(DartError::ValueLength { .. })
        ));
    }

    #[test]
    fn raw_slot_write_bounds_checked() {
        let mut store = DartStore::new(config(64));
        let bytes = vec![0u8; 24];
        assert!(matches!(
            store.write_slot_bytes(64, &bytes),
            Err(DartError::SlotOutOfRange { .. })
        ));
        assert!(store.write_slot_bytes(63, &bytes).is_ok());
    }

    #[test]
    fn from_memory_validates_geometry() {
        let cfg = config(64);
        assert!(matches!(
            DartStore::from_memory(cfg.clone(), vec![0u8; 10]),
            Err(DartError::GeometryMismatch { .. })
        ));
        let ok = DartStore::from_memory(cfg.clone(), vec![0u8; cfg.bytes_per_collector()]);
        assert!(ok.is_ok());
    }

    #[test]
    fn view_over_foreign_memory_queries() {
        let cfg = config(1 << 12);
        let mut store = DartStore::new(cfg.clone());
        store.insert(b"k1", &value(7)).unwrap();
        let engine = OwnedQueryEngine::new(cfg).unwrap();
        let outcome = engine.view(store.memory()).unwrap().query(b"k1");
        assert_eq!(outcome, QueryOutcome::Answer(value(7)));
    }

    #[test]
    fn owned_engine_rejects_bad_geometry() {
        let engine = OwnedQueryEngine::new(config(64)).unwrap();
        assert!(matches!(
            engine.view(&[0u8; 5]),
            Err(DartError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn clear_resets() {
        let mut store = DartStore::new(config(64));
        store.insert(b"k1", &value(1)).unwrap();
        store.clear();
        assert_eq!(store.query(b"k1"), QueryOutcome::Empty);
        assert_eq!(store.stats(), StoreStats::default());
    }

    #[test]
    fn occupancy_tracks_load() {
        let mut store = DartStore::new(config(1 << 12));
        assert_eq!(store.occupancy(), 0.0);
        // Insert α = 0.5 worth of keys (N = 2): occupancy ≈ 1 − e^{−1}.
        for i in 0..(1u64 << 11) {
            store
                .insert(&i.to_le_bytes(), &value((i % 251) as u8))
                .unwrap();
        }
        let occupancy = store.occupancy();
        let predicted = 1.0 - (-1.0f64).exp();
        assert!(
            (occupancy - predicted).abs() < 0.03,
            "occupancy {occupancy} vs predicted {predicted}"
        );
        store.clear();
        assert_eq!(store.occupancy(), 0.0);
    }

    #[test]
    fn clone_preserves_contents() {
        let mut store = DartStore::new(config(1 << 10));
        store.insert(b"k1", &value(4)).unwrap();
        let copy = store.clone();
        assert_eq!(copy.query(b"k1"), QueryOutcome::Answer(value(4)));
        assert_eq!(copy.stats(), store.stats());
    }

    #[test]
    fn explain_traces_probes_and_reason() {
        let mut store = DartStore::new(config(1 << 12));
        store.insert(b"k1", &value(5)).unwrap();
        let explain = store.query_explain(b"k1", ReturnPolicy::Plurality);
        assert_eq!(explain.probes.len(), 2);
        assert_eq!(explain.matched(), 2);
        assert_eq!(explain.occupied(), 2);
        assert_eq!(
            explain.reason,
            crate::query::DecisionReason::Answered { votes: 2 }
        );
        assert_eq!(explain.outcome, QueryOutcome::Answer(value(5)));
        // Probe metadata is self-consistent: matched ⇒ occupied, and
        // slots are where the mapping says they are.
        for probe in &explain.probes {
            assert!(probe.occupied || !probe.checksum_matched);
        }

        // An unreported key: probes exist, nothing matched.
        let explain = store.query_explain(b"ghost", ReturnPolicy::Plurality);
        assert_eq!(explain.matched(), 0);
        assert_eq!(explain.reason, crate::query::DecisionReason::NoSlotMatched);
        assert_eq!(explain.outcome, QueryOutcome::Empty);
    }

    #[test]
    fn explain_agrees_with_plain_query() {
        let mut store = DartStore::new(config(256));
        for i in 0..512u32 {
            store
                .insert(format!("k{i}").as_bytes(), &value((i % 251) as u8))
                .unwrap();
        }
        for i in 0..512u32 {
            let key = format!("k{i}");
            for policy in [
                ReturnPolicy::UniqueValue,
                ReturnPolicy::FirstMatch,
                ReturnPolicy::Plurality,
                ReturnPolicy::Consensus(2),
            ] {
                assert_eq!(
                    store.query_explain(key.as_bytes(), policy),
                    store.view().query_explain(key.as_bytes(), policy)
                );
            }
            assert_eq!(
                store.query(key.as_bytes()),
                store
                    .query_explain(key.as_bytes(), store.config().policy)
                    .outcome
            );
        }
    }

    #[test]
    fn engine_explain_over_foreign_memory() {
        let cfg = config(1 << 10);
        let mut store = DartStore::new(cfg.clone());
        store.insert(b"k1", &value(7)).unwrap();
        let engine = OwnedQueryEngine::new(cfg).unwrap();
        let explain = engine
            .view(store.memory())
            .unwrap()
            .query_explain(b"k1", ReturnPolicy::UniqueValue);
        assert_eq!(explain.outcome, QueryOutcome::Answer(value(7)));
        assert!(engine.view(&[0u8; 3]).is_err());
    }

    fn append_config(slots: u64, ring_capacity: u64) -> DartConfig {
        DartConfig::builder()
            .slots(slots)
            .value_len(8)
            .primitive(crate::primitive::PrimitiveSpec::Append { ring_capacity })
            .build()
            .unwrap()
    }

    fn increment_config(slots: u64) -> DartConfig {
        DartConfig::builder()
            .slots(slots)
            .copies(2)
            .primitive(crate::primitive::PrimitiveSpec::KeyIncrement)
            .build()
            .unwrap()
    }

    #[test]
    fn append_preserves_arrival_order() {
        let mut store = DartStore::new(append_config(64, 8));
        for i in 0..5u8 {
            store.append(b"events", &[i; 8]).unwrap();
        }
        let QueryOutcome::Answer(log) = store.query(b"events") else {
            panic!("expected a log");
        };
        let entries: Vec<&[u8]> = log.chunks_exact(8).collect();
        assert_eq!(entries.len(), 5);
        for (i, entry) in entries.iter().enumerate() {
            assert_eq!(entry, &[i as u8; 8], "entries must read oldest-first");
        }
    }

    #[test]
    fn append_ring_keeps_newest_window_after_wrap() {
        let mut store = DartStore::new(append_config(64, 8));
        for i in 0..20u8 {
            store.append(b"events", &[i; 8]).unwrap();
        }
        let QueryOutcome::Answer(log) = store.query(b"events") else {
            panic!("expected a log");
        };
        let entries: Vec<&[u8]> = log.chunks_exact(8).collect();
        assert_eq!(entries.len(), 8, "ring keeps exactly its capacity");
        for (i, entry) in entries.iter().enumerate() {
            assert_eq!(entry, &[(12 + i) as u8; 8], "window is the newest 8");
        }
    }

    #[test]
    fn append_rings_are_isolated_per_listkey() {
        let mut store = DartStore::new(append_config(64, 8));
        store.append(b"list-a", &[1u8; 8]).unwrap();
        store.append(b"list-b", &[2u8; 8]).unwrap();
        // Even if both listkeys share a ring, checksums keep the logs
        // from answering each other's entries mixed in silently — in a
        // 8-ring store they may collide, so only assert self-reads.
        let QueryOutcome::Answer(a) = store.query(b"list-a") else {
            panic!()
        };
        assert!(a.chunks_exact(8).any(|e| e == [1u8; 8]));
    }

    #[test]
    fn append_requires_append_primitive() {
        let mut store = DartStore::new(config(64));
        assert!(store.append(b"k", &value(1)).is_err());
        let mut store = DartStore::new(append_config(64, 8));
        assert!(store.increment(b"k", 1).is_err());
    }

    #[test]
    fn append_from_memory_rebuilds_tails() {
        let mut store = DartStore::new(append_config(64, 8));
        for i in 0..11u8 {
            store.append(b"events", &[i; 8]).unwrap();
        }
        let tail = store.ring_tail(b"events").unwrap();
        let rebuilt =
            DartStore::from_memory(store.config().clone(), store.memory().to_vec()).unwrap();
        assert_eq!(rebuilt.ring_tail(b"events"), Some(tail));
    }

    #[test]
    fn increment_totals_are_exact() {
        let mut store = DartStore::new(increment_config(1 << 10));
        for _ in 0..100 {
            store.increment(b"flow:a", 3).unwrap();
        }
        store.increment(b"flow:b", 7).unwrap();
        assert_eq!(
            store.query(b"flow:a"),
            QueryOutcome::Answer(300u64.to_be_bytes().to_vec())
        );
        assert_eq!(
            store.query(b"flow:b"),
            QueryOutcome::Answer(7u64.to_be_bytes().to_vec())
        );
        assert_eq!(store.query(b"flow:never"), QueryOutcome::Empty);
    }

    #[test]
    fn increment_reports_conservative_minimum_under_partial_loss() {
        let mut store = DartStore::new(increment_config(1 << 10));
        // Copy 0 sees all 10 adds; copy 1 loses 4 of them.
        for i in 0..10u64 {
            store
                .insert_copy(b"flow:a", &5u64.to_be_bytes(), 0)
                .unwrap();
            if i % 3 != 0 {
                store
                    .insert_copy(b"flow:a", &5u64.to_be_bytes(), 1)
                    .unwrap();
            }
        }
        let QueryOutcome::Answer(total) = store.query(b"flow:a") else {
            panic!("expected a total");
        };
        let total = u64::from_be_bytes(total.try_into().unwrap());
        assert_eq!(total, 30, "minimum over copies never overcounts");
    }

    #[test]
    fn verified_copy_checks_checksums() {
        let mut store = DartStore::new(config(1 << 12));
        store.insert(b"k1", &value(6)).unwrap();
        let view = store.view();
        for copy in 0..2u8 {
            let (slot, bytes) = view.verified_copy(b"k1", copy).expect("copy written");
            assert_eq!(view.entry_bytes(slot).unwrap(), &bytes[..]);
            assert_eq!(bytes.len(), store.config().entry_len());
        }
        // Unwritten key: slots empty (or another key's) → no verified copy.
        assert!(view.verified_copy(b"ghost", 0).is_none());
        assert!(view.entry_bytes(1 << 12).is_err());
    }

    #[test]
    fn ring_bytes_expose_whole_rings() {
        let mut store = DartStore::new(append_config(64, 8));
        for i in 0..3u8 {
            store.append(b"events", &[i; 8]).unwrap();
        }
        let view = store.view();
        let ring = view.ring_index(b"events");
        let bytes = view.ring_bytes(ring).unwrap();
        assert_eq!(bytes.len(), 8 * store.config().entry_len());
        assert_eq!(
            crate::primitive::append_newest_seq(&store.config().layout, bytes),
            3
        );
        assert!(view.ring_bytes(8).is_err());
        // Wrong primitive refuses.
        let kw = DartStore::new(config(64));
        assert!(kw.view().ring_bytes(0).is_err());
    }

    #[test]
    fn counter_word_reads_raw_totals() {
        let mut store = DartStore::new(increment_config(1 << 10));
        store.increment(b"flow:a", 41).unwrap();
        let view = store.view();
        let (_, word) = view.counter_word(b"flow:a", 0).unwrap();
        assert_eq!(word, 41);
        let (_, empty) = view.counter_word(b"flow:zzz", 0).unwrap();
        assert_eq!(empty, 0);
        let kw = DartStore::new(config(64));
        assert!(kw.view().counter_word(b"k", 0).is_err());
    }

    #[test]
    fn per_query_policy_override() {
        let mut store = DartStore::new(config(1 << 12));
        store.insert_copy(b"k1", &value(1), 0).unwrap();
        // Consensus(2) needs both copies; only one was written.
        assert_eq!(
            store
                .query_explain(b"k1", ReturnPolicy::Consensus(2))
                .outcome,
            QueryOutcome::Empty
        );
        assert_eq!(
            store.query_explain(b"k1", ReturnPolicy::FirstMatch).outcome,
            QueryOutcome::Answer(value(1))
        );
    }
}
