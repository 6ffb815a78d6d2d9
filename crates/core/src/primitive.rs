//! Translation primitives: the report-shaped operations a switch can
//! aim at collector memory.
//!
//! The HotNets paper's Key-Write scheme (§3) is one member of a family;
//! the follow-up Direct Telemetry Access work generalises it to a set of
//! *translation primitives* that all share the same stateless-hash
//! addressing, PSN discipline, failover hashing, and query machinery:
//!
//! * [`PrimitiveSpec::KeyWrite`] — checksummed key/value slots, `N`
//!   redundant copies, last-writer-wins (the original scheme).
//! * [`PrimitiveSpec::Append`] — per-listkey circular buffers. The
//!   switch holds one tail-pointer register per ring and lands each
//!   entry at the next ring position with an RDMA WRITE; readers are
//!   stateless and reconstruct the window from per-entry sequence
//!   numbers, dropping torn head entries at the wrap point.
//! * [`PrimitiveSpec::KeyIncrement`] — aggregating counters. The switch
//!   emits RC FETCH_ADD atomics; each of a key's `N` slots accumulates
//!   the full total independently, and queries report the *minimum*
//!   over copies, which is conservative (never an overcount caused by
//!   partial loss of one copy's stream).
//!
//! The spec is carried in `DartConfig` and `EgressConfig`, so the whole
//! egress→link→NIC→store→query pipeline dispatches on it in exactly one
//! place per layer instead of growing three parallel datapaths.

use crate::error::DartError;
use dta_wire::dart::SlotLayout;

/// Length of the per-entry sequence prefix used by [`PrimitiveSpec::Append`].
pub const APPEND_SEQ_LEN: usize = 4;

/// Which translation primitive a datapath runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimitiveKind {
    /// Checksummed key/value slots (§3 of the HotNets paper).
    KeyWrite,
    /// Per-listkey ring buffers fed by switch tail-pointer registers.
    Append,
    /// Aggregating counters committed with FETCH_ADD.
    KeyIncrement,
}

impl PrimitiveKind {
    /// All primitive kinds, in a stable order (for parameterised tests
    /// and sweeps).
    pub const ALL: [PrimitiveKind; 3] = [
        PrimitiveKind::KeyWrite,
        PrimitiveKind::Append,
        PrimitiveKind::KeyIncrement,
    ];

    /// A stable snake_case name for counters and reports.
    pub fn name(&self) -> &'static str {
        match self {
            PrimitiveKind::KeyWrite => "key_write",
            PrimitiveKind::Append => "append",
            PrimitiveKind::KeyIncrement => "key_increment",
        }
    }
}

/// A fully-parameterised primitive choice, carried by `DartConfig`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PrimitiveSpec {
    /// Key-Write: one slot of `layout.slot_len()` bytes per copy.
    #[default]
    KeyWrite,
    /// Append: `slots / ring_capacity` rings of `ring_capacity` entries.
    Append {
        /// Entries per ring. Must be a power of two ≥ 2 dividing the
        /// slot count.
        ring_capacity: u64,
    },
    /// Key-Increment: one 8-byte big-endian counter word per copy.
    KeyIncrement,
}

impl PrimitiveSpec {
    /// The kind of this spec (parameter-free discriminant).
    pub fn kind(&self) -> PrimitiveKind {
        match self {
            PrimitiveSpec::KeyWrite => PrimitiveKind::KeyWrite,
            PrimitiveSpec::Append { .. } => PrimitiveKind::Append,
            PrimitiveSpec::KeyIncrement => PrimitiveKind::KeyIncrement,
        }
    }

    /// Shorthand for `self.kind().name()`.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Bytes one entry occupies in collector memory.
    ///
    /// * Key-Write: `checksum ‖ value` (the classic slot).
    /// * Append: `seq (4 B) ‖ checksum ‖ value` — the stored sequence
    ///   number makes stateless wraparound-safe reads possible and the
    ///   checksum guards against listkey ring collisions.
    /// * Key-Increment: an 8-byte counter word (atomics require 8-byte
    ///   aligned 8-byte operands); checksums cannot survive FETCH_ADD.
    pub fn entry_len(&self, layout: &SlotLayout) -> usize {
        match self {
            PrimitiveSpec::KeyWrite => layout.slot_len(),
            PrimitiveSpec::Append { .. } => APPEND_SEQ_LEN + layout.slot_len(),
            PrimitiveSpec::KeyIncrement => 8,
        }
    }

    /// Number of append rings a region of `slots` entries holds
    /// (1 for the non-ring primitives, where every slot stands alone).
    pub fn rings(&self, slots: u64) -> u64 {
        match self {
            PrimitiveSpec::Append { ring_capacity } => slots / ring_capacity,
            _ => 1,
        }
    }

    /// Ring capacity (entries per ring) for Append, else 1.
    pub fn ring_capacity(&self) -> u64 {
        match self {
            PrimitiveSpec::Append { ring_capacity } => *ring_capacity,
            _ => 1,
        }
    }

    /// Validate the spec against the store geometry.
    pub fn validate(&self, slots: u64, copies: u8, layout: &SlotLayout) -> Result<(), DartError> {
        match self {
            PrimitiveSpec::KeyWrite => Ok(()),
            PrimitiveSpec::Append { ring_capacity } => {
                if *ring_capacity < 2 || !ring_capacity.is_power_of_two() {
                    return Err(DartError::InvalidConfig(
                        "append ring_capacity must be a power of two >= 2",
                    ));
                }
                if *ring_capacity > slots || slots % ring_capacity != 0 {
                    return Err(DartError::InvalidConfig(
                        "append ring_capacity must divide the slot count",
                    ));
                }
                if copies != 1 {
                    return Err(DartError::InvalidConfig(
                        "append requires copies == 1 (rings are not replicated)",
                    ));
                }
                Ok(())
            }
            PrimitiveSpec::KeyIncrement => {
                if layout.value_len != 8 {
                    return Err(DartError::InvalidConfig(
                        "key-increment requires value_len == 8 (one counter word)",
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Encode one append entry: `stored_seq ‖ checksum ‖ value`.
///
/// `stored_seq` is the logical sequence number plus one — a stored 0
/// means "never written", so freshly-zeroed rings read as empty. The
/// sequence wraps over the full `u32` range; the single entry whose
/// stored value lands on 0 per 2³² appends reads as a torn head and is
/// dropped by [`append_window`], which is exactly the wraparound-safe
/// behaviour readers need anyway.
pub fn append_encode_entry(
    layout: &SlotLayout,
    stored_seq: u32,
    key_checksum: u32,
    value: &[u8],
    out: &mut [u8],
) -> Result<(), DartError> {
    let entry_len = APPEND_SEQ_LEN + layout.slot_len();
    if value.len() != layout.value_len {
        return Err(DartError::ValueLength {
            expected: layout.value_len,
            actual: value.len(),
        });
    }
    if out.len() < entry_len {
        return Err(DartError::InvalidConfig("append entry buffer too small"));
    }
    out[..APPEND_SEQ_LEN].copy_from_slice(&stored_seq.to_be_bytes());
    layout
        .encode(key_checksum, value, &mut out[APPEND_SEQ_LEN..entry_len])
        .expect("sized above");
    Ok(())
}

/// Decode one append entry into `(stored_seq, checksum, value)`.
pub fn append_decode_entry<'a>(
    layout: &SlotLayout,
    entry: &'a [u8],
) -> Result<(u32, u32, &'a [u8]), DartError> {
    let entry_len = APPEND_SEQ_LEN + layout.slot_len();
    if entry.len() < entry_len {
        return Err(DartError::InvalidConfig("append entry truncated"));
    }
    let stored_seq = u32::from_be_bytes(entry[..APPEND_SEQ_LEN].try_into().expect("4 bytes"));
    let (checksum, value) = layout
        .decode(&entry[APPEND_SEQ_LEN..entry_len])
        .expect("sized above");
    Ok((stored_seq, checksum, value))
}

/// One examined ring position (mirrors `SlotProbe` for the store's
/// explain path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendProbe {
    /// Position within the ring (0-based).
    pub position: u64,
    /// Whether the position held any entry (stored seq ≠ 0).
    pub occupied: bool,
    /// Whether the entry's checksum matched the listkey *and* its
    /// sequence number was consistent with its position (torn or
    /// colliding entries fail this).
    pub matched: bool,
}

/// The in-window entries of one append ring, borrowed from ring memory.
/// Built by [`append_window`].
#[derive(Debug, Clone, Copy)]
pub struct AppendWindow<'a> {
    layout: SlotLayout,
    ring: &'a [u8],
    want: u32,
    capacity: u64,
    /// Newest matched stored sequence number and its position.
    newest: Option<(u32, u64)>,
}

impl<'a> AppendWindow<'a> {
    /// Decode ring position `position` into `(stored_seq, matched, value)`.
    fn entry(&self, position: u64) -> (u32, bool, &'a [u8]) {
        let entry_len = APPEND_SEQ_LEN + self.layout.slot_len();
        let start = position as usize * entry_len;
        let (stored_seq, checksum, value) = append_decode_entry(&self.layout, &self.ring[start..])
            .expect("ring sized to whole entries");
        let in_position = u64::from(stored_seq.wrapping_sub(1)) % self.capacity == position;
        let matched = stored_seq != 0 && checksum == self.want && in_position;
        (stored_seq, matched, value)
    }

    /// Whether no entry of the listkey is in the window.
    pub fn is_empty(&self) -> bool {
        self.newest.is_none()
    }

    /// The in-window values, **oldest first** (each `layout.value_len`
    /// bytes).
    ///
    /// Walks the ring once, starting just after the newest entry: in-window
    /// entries sit at distinct positions `(seq − 1) mod capacity`, so ring
    /// order from there is sequence order.
    pub fn values(self) -> impl Iterator<Item = &'a [u8]> {
        self.newest.into_iter().flat_map(move |(newest, at)| {
            (1..=self.capacity).filter_map(move |step| {
                let (seq, matched, value) = self.entry((at + step) % self.capacity);
                (matched && u64::from(newest.wrapping_sub(seq)) < self.capacity).then_some(value)
            })
        })
    }
}

/// Stateless wraparound-safe read of one append ring.
///
/// `ring` must be exactly `ring_capacity * (APPEND_SEQ_LEN +
/// layout.slot_len())` bytes. `probe` sees every position, in position
/// order. Entries are kept iff:
///
/// 1. they are occupied (stored seq ≠ 0),
/// 2. their stored checksum matches `want_checksum` (listkey ring
///    collisions are detected the same way slot collisions are),
/// 3. their sequence number is consistent with their ring position
///    (`(stored_seq − 1) mod capacity == position` — a torn entry left
///    by a lost write fails this as soon as the ring laps it), and
/// 4. they lie within `capacity` of the newest surviving entry under
///    serial-number arithmetic (entries stranded a lap behind are torn
///    heads and dropped).
pub fn append_window<'a>(
    layout: &SlotLayout,
    ring: &'a [u8],
    want_checksum: u32,
    ring_capacity: u64,
    mut probe: impl FnMut(AppendProbe),
) -> AppendWindow<'a> {
    debug_assert_eq!(
        ring.len(),
        ring_capacity as usize * (APPEND_SEQ_LEN + layout.slot_len())
    );
    let mut window = AppendWindow {
        layout: *layout,
        ring,
        want: layout.checksum.truncate(want_checksum),
        capacity: ring_capacity,
        newest: None,
    };
    // Newest under serial arithmetic, seeded with the first match in
    // position order: every other match is at most half the sequence
    // space behind it.
    for position in 0..ring_capacity {
        let (seq, matched, _) = window.entry(position);
        probe(AppendProbe {
            position,
            occupied: seq != 0,
            matched,
        });
        if matched {
            match window.newest {
                Some((best, _)) if seq.wrapping_sub(best) >= 1 << 31 => {}
                _ => window.newest = Some((seq, position)),
            }
        }
    }
    window
}

/// The newest stored sequence number present in a raw ring byte-slice,
/// under serial-number arithmetic (0 for an empty ring). Checksums are
/// deliberately ignored: the ring's tail is a property of the ring as a
/// whole, shared by every listkey hashing into it. Used to rebuild tail
/// state from memory (collector restart) and by the recovery sweep to
/// find where re-appended entries must continue from.
pub fn append_newest_seq(layout: &SlotLayout, ring: &[u8]) -> u32 {
    let entry_len = APPEND_SEQ_LEN + layout.slot_len();
    let mut newest = 0u32;
    for entry in ring.chunks_exact(entry_len) {
        if let Ok((stored, _, _)) = append_decode_entry(layout, entry) {
            if stored != 0 && (newest == 0 || stored.wrapping_sub(newest) < 1 << 31) {
                newest = stored;
            }
        }
    }
    newest
}

/// The newer of two stored sequence numbers under serial arithmetic
/// (0 = "never written" loses to anything).
pub fn seq_newest(a: u32, b: u32) -> u32 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    if b.wrapping_sub(a) < 1 << 31 {
        b
    } else {
        a
    }
}

/// Encode a Key-Increment delta as its 8-byte big-endian wire value.
pub fn increment_encode(delta: u64) -> [u8; 8] {
    delta.to_be_bytes()
}

/// Decode a Key-Increment counter word.
///
/// Returns [`DartError::ValueLength`] unless `bytes` is exactly 8 bytes.
pub fn increment_decode(bytes: &[u8]) -> Result<u64, DartError> {
    let arr: [u8; 8] = bytes.try_into().map_err(|_| DartError::ValueLength {
        expected: 8,
        actual: bytes.len(),
    })?;
    Ok(u64::from_be_bytes(arr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_wire::dart::ChecksumWidth;

    fn layout() -> SlotLayout {
        SlotLayout {
            checksum: ChecksumWidth::B32,
            value_len: 8,
        }
    }

    fn ring_with(layout: &SlotLayout, cap: u64, entries: &[(u64, u32, &[u8])]) -> Vec<u8> {
        // (position, stored_seq, value)
        let entry_len = APPEND_SEQ_LEN + layout.slot_len();
        let mut ring = vec![0u8; cap as usize * entry_len];
        for &(position, stored_seq, value) in entries {
            let start = position as usize * entry_len;
            append_encode_entry(
                layout,
                stored_seq,
                0xFEED,
                value,
                &mut ring[start..start + entry_len],
            )
            .unwrap();
        }
        ring
    }

    /// Every probe of one ring read, and its window values oldest first.
    fn read(
        layout: &SlotLayout,
        ring: &[u8],
        want: u32,
        cap: u64,
    ) -> (Vec<AppendProbe>, Vec<Vec<u8>>) {
        let mut probes = Vec::new();
        let window = append_window(layout, ring, want, cap, |p| probes.push(p));
        (probes, window.values().map(<[u8]>::to_vec).collect())
    }

    #[test]
    fn kinds_are_named_and_complete() {
        assert_eq!(PrimitiveKind::ALL.len(), 3);
        let names: Vec<_> = PrimitiveKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["key_write", "append", "key_increment"]);
    }

    #[test]
    fn entry_lengths_per_primitive() {
        let l = layout();
        assert_eq!(PrimitiveSpec::KeyWrite.entry_len(&l), 12);
        assert_eq!(PrimitiveSpec::Append { ring_capacity: 8 }.entry_len(&l), 16);
        assert_eq!(PrimitiveSpec::KeyIncrement.entry_len(&l), 8);
    }

    #[test]
    fn validation_rules() {
        let l = layout();
        assert!(PrimitiveSpec::KeyWrite.validate(16, 4, &l).is_ok());
        assert!(PrimitiveSpec::Append { ring_capacity: 8 }
            .validate(64, 1, &l)
            .is_ok());
        // Not a power of two.
        assert!(PrimitiveSpec::Append { ring_capacity: 6 }
            .validate(64, 1, &l)
            .is_err());
        // Larger than the region.
        assert!(PrimitiveSpec::Append { ring_capacity: 128 }
            .validate(64, 1, &l)
            .is_err());
        // Rings are not replicated.
        assert!(PrimitiveSpec::Append { ring_capacity: 8 }
            .validate(64, 2, &l)
            .is_err());
        assert!(PrimitiveSpec::KeyIncrement.validate(64, 2, &l).is_ok());
        let wide = SlotLayout {
            checksum: ChecksumWidth::B32,
            value_len: 20,
        };
        assert!(PrimitiveSpec::KeyIncrement.validate(64, 2, &wide).is_err());
    }

    #[test]
    fn append_entry_roundtrip() {
        let l = layout();
        let mut buf = vec![0u8; PrimitiveSpec::Append { ring_capacity: 2 }.entry_len(&l)];
        append_encode_entry(&l, 7, 0xABCD_1234, &[9u8; 8], &mut buf).unwrap();
        let (seq, sum, value) = append_decode_entry(&l, &buf).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(sum, 0xABCD_1234);
        assert_eq!(value, &[9u8; 8]);
    }

    #[test]
    fn scan_orders_oldest_first() {
        let l = layout();
        // Ring of 4; seqs 3,4,5 live at positions 2,3,0 (5 wrapped).
        let ring = ring_with(
            &l,
            4,
            &[
                (2, 3, b"cccccccc"),
                (3, 4, b"dddddddd"),
                (0, 5, b"eeeeeeee"),
            ],
        );
        let (probes, window) = read(&l, &ring, 0xFEED, 4);
        assert_eq!(
            window,
            vec![
                b"cccccccc".to_vec(),
                b"dddddddd".to_vec(),
                b"eeeeeeee".to_vec()
            ]
        );
        assert_eq!(probes.iter().filter(|s| s.occupied).count(), 3);
    }

    #[test]
    fn scan_drops_checksum_mismatches() {
        let l = layout();
        let ring = ring_with(&l, 4, &[(0, 1, b"aaaaaaaa"), (1, 2, b"bbbbbbbb")]);
        let (probes, window) = read(&l, &ring, 0xBEEF, 4);
        assert!(window.is_empty());
        assert!(probes.iter().all(|s| !s.matched || !s.occupied));
    }

    #[test]
    fn scan_drops_torn_out_of_position_entries() {
        let l = layout();
        // Position 1 holds seq 7: (7-1) % 4 == 2 ≠ 1 → torn.
        let ring = ring_with(&l, 4, &[(0, 5, b"aaaaaaaa"), (1, 7, b"xxxxxxxx")]);
        let (probes, window) = read(&l, &ring, 0xFEED, 4);
        assert_eq!(window, vec![b"aaaaaaaa".to_vec()]);
        assert!(!probes[1].matched);
    }

    #[test]
    fn scan_survives_seq_wrap() {
        let l = layout();
        // Stored seqs u32::MAX-1, u32::MAX, 1 — crossing the stored-0
        // alias. Positions follow (seq-1) % 4.
        let near = u32::MAX - 1;
        let ring = ring_with(
            &l,
            4,
            &[
                (u64::from(near.wrapping_sub(1)) % 4, near, b"oldest__"),
                (u64::from(u32::MAX - 1) % 4, u32::MAX, b"middle__"),
                (0, 1, b"newest__"),
            ],
        );
        let (_, window) = read(&l, &ring, 0xFEED, 4);
        assert_eq!(
            window,
            vec![
                b"oldest__".to_vec(),
                b"middle__".to_vec(),
                b"newest__".to_vec()
            ]
        );
    }

    #[test]
    fn scan_drops_entries_a_lap_behind() {
        let l = layout();
        // Newest is 10 (position 1); position 3 holds a stale seq 4
        // from the previous lap ((4-1)%4 == 3, so it is in position but
        // more than capacity behind).
        let ring = ring_with(&l, 4, &[(1, 10, b"newest__"), (3, 4, b"stale___")]);
        let (_, window) = read(&l, &ring, 0xFEED, 4);
        assert_eq!(window, vec![b"newest__".to_vec()]);
    }

    #[test]
    fn newest_seq_over_raw_ring_bytes() {
        let l = layout();
        assert_eq!(append_newest_seq(&l, &ring_with(&l, 4, &[])), 0);
        let ring = ring_with(&l, 4, &[(2, 3, b"cccccccc"), (3, 4, b"dddddddd")]);
        assert_eq!(append_newest_seq(&l, &ring), 4);
        // Serial arithmetic across the u32 wrap: 1 is newer than MAX.
        let ring = ring_with(&l, 4, &[(2, u32::MAX, b"oldest__"), (0, 1, b"newest__")]);
        assert_eq!(append_newest_seq(&l, &ring), 1);
    }

    #[test]
    fn seq_newest_serial_rules() {
        assert_eq!(seq_newest(0, 7), 7);
        assert_eq!(seq_newest(7, 0), 7);
        assert_eq!(seq_newest(3, 9), 9);
        assert_eq!(seq_newest(u32::MAX, 1), 1);
        assert_eq!(seq_newest(1, u32::MAX), 1);
    }

    #[test]
    fn increment_roundtrip() {
        assert_eq!(increment_decode(&increment_encode(99)).unwrap(), 99);
        assert!(increment_decode(&[0u8; 4]).is_err());
    }
}
