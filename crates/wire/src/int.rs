//! In-band Network Telemetry (INT) formats.
//!
//! DART's headline experiment collects *INT path tracing* on a 5-hop
//! fat-tree (§5): every switch a packet traverses appends its 32-bit
//! switch ID to an INT metadata stack carried in the packet; the last hop
//! (the INT *sink*) strips the stack and reports it to the collector keyed
//! by the flow 5-tuple. In postcard mode every switch reports its own
//! metadata keyed by `(switch ID, 5-tuple)` instead.
//!
//! The formats here are a simplified profile of the P4.org Telemetry
//! Report Format: a fixed [`ReportHeader`] followed by an [`IntStack`] of
//! per-hop metadata. The stack's byte encoding doubles as the DART value
//! (160 bits for five hops — exactly the Figure 4 configuration).

use crate::field::Field;
use crate::{Error, Result};

/// Maximum number of hops an INT stack may carry.
///
/// Mirrors the paper's example of a 64-byte report answering one INT query
/// with 32 bits per hop across at most 9 hops.
pub const MAX_HOPS: usize = 9;

/// Per-hop INT metadata: what a switch pushes onto the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HopMetadata {
    /// The switch's node ID.
    pub switch_id: u32,
}

impl HopMetadata {
    /// Encoded size in bytes.
    pub const WIRE_LEN: usize = 4;
}

/// An INT metadata stack: the ordered list of per-hop entries.
///
/// The first entry is the hop closest to the source (entries are appended
/// in path order by our pipeline; real INT pushes at the head, which is an
/// equivalent choice as long as source and sink agree). Like the header
/// stack a switch parser allots, it has room for [`MAX_HOPS`] entries
/// inline, so transit processing never allocates.
#[derive(Clone)]
pub struct IntStack {
    hops: [HopMetadata; MAX_HOPS],
    len: usize,
}

impl IntStack {
    /// An empty stack.
    pub fn new() -> IntStack {
        IntStack {
            hops: [HopMetadata { switch_id: 0 }; MAX_HOPS],
            len: 0,
        }
    }

    /// Append one hop. Returns [`Error::Overflow`] past [`MAX_HOPS`].
    pub fn push(&mut self, hop: HopMetadata) -> Result<()> {
        let slot = self.hops.get_mut(self.len).ok_or(Error::Overflow)?;
        *slot = hop;
        self.len += 1;
        Ok(())
    }

    /// Number of hops recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The recorded hops in path order.
    pub fn hops(&self) -> &[HopMetadata] {
        &self.hops[..self.len]
    }

    /// The path as switch IDs.
    pub fn switch_ids(&self) -> Vec<u32> {
        self.hops().iter().map(|h| h.switch_id).collect()
    }

    /// Encode as a DART value: each hop as a 32-bit big-endian word.
    /// Five hops yield the paper's 160-bit value.
    pub fn to_value_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len * HopMetadata::WIRE_LEN);
        self.extend_value_bytes(&mut out);
        out
    }

    fn extend_value_bytes(&self, out: &mut Vec<u8>) {
        for hop in self.hops() {
            out.extend_from_slice(&hop.switch_id.to_be_bytes());
        }
    }

    /// Decode from a DART value of whole 32-bit words.
    pub fn from_value_bytes(data: &[u8]) -> Result<IntStack> {
        if data.len() % HopMetadata::WIRE_LEN != 0 {
            return Err(Error::Malformed);
        }
        let n = data.len() / HopMetadata::WIRE_LEN;
        if n > MAX_HOPS {
            return Err(Error::Overflow);
        }
        let mut stack = IntStack::new();
        for chunk in data.chunks_exact(HopMetadata::WIRE_LEN) {
            stack
                .push(HopMetadata {
                    switch_id: u32::from_be_bytes(chunk.try_into().unwrap()),
                })
                .expect("bounded by MAX_HOPS check");
        }
        Ok(stack)
    }

    /// Encode padded with zero words to exactly `hops` entries — DART
    /// slots are fixed-size, so shorter paths are zero-padded.
    pub fn to_padded_value_bytes(&self, hops: usize) -> Result<Vec<u8>> {
        let mut out = vec![0u8; hops * HopMetadata::WIRE_LEN];
        self.write_padded_value_bytes(&mut out)?;
        Ok(out)
    }

    /// [`IntStack::to_padded_value_bytes`] into `out`, whose length
    /// names the padded size (`hops * 4` bytes); no allocation.
    pub fn write_padded_value_bytes(&self, out: &mut [u8]) -> Result<()> {
        if out.len() % HopMetadata::WIRE_LEN != 0 {
            return Err(Error::Malformed);
        }
        if self.len * HopMetadata::WIRE_LEN > out.len() {
            return Err(Error::Overflow);
        }
        let (live, padding) = out.split_at_mut(self.len * HopMetadata::WIRE_LEN);
        for (word, hop) in live
            .chunks_exact_mut(HopMetadata::WIRE_LEN)
            .zip(self.hops())
        {
            word.copy_from_slice(&hop.switch_id.to_be_bytes());
        }
        padding.fill(0);
        Ok(())
    }
}

impl Default for IntStack {
    fn default() -> IntStack {
        IntStack::new()
    }
}

/// Only live hops compare: slots past `len` are scratch.
impl PartialEq for IntStack {
    fn eq(&self, other: &IntStack) -> bool {
        self.hops() == other.hops()
    }
}

impl Eq for IntStack {}

impl core::fmt::Debug for IntStack {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("IntStack")
            .field("hops", &self.hops())
            .finish()
    }
}

/// INT instruction bitmap (INT-MD): which metadata every hop appends.
///
/// Bit assignments follow the INT specification's instruction set, most
/// significant bit first; each selected instruction contributes one
/// 32-bit word per hop. Path tracing is the `NODE_ID`-only profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instructions(u16);

impl Instructions {
    /// Node (switch) ID.
    pub const NODE_ID: Instructions = Instructions(0x8000);
    /// Level-1 ingress + egress port IDs (packed 16+16).
    pub const PORT_IDS: Instructions = Instructions(0x4000);
    /// Hop latency.
    pub const HOP_LATENCY: Instructions = Instructions(0x2000);
    /// Queue ID + occupancy (packed 8+24).
    pub const QUEUE_OCCUPANCY: Instructions = Instructions(0x1000);
    /// Ingress timestamp.
    pub const INGRESS_TS: Instructions = Instructions(0x0800);
    /// Egress timestamp.
    pub const EGRESS_TS: Instructions = Instructions(0x0400);

    /// The empty set.
    pub const fn empty() -> Instructions {
        Instructions(0)
    }

    /// The path-tracing profile used by the paper's evaluation.
    pub const fn path_tracing() -> Instructions {
        Instructions::NODE_ID
    }

    /// Raw bitmap.
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Construct from a raw bitmap (unknown bits are preserved but
    /// contribute no metadata words in this profile).
    pub const fn from_bits(bits: u16) -> Instructions {
        Instructions(bits)
    }

    /// Set union.
    pub const fn with(self, other: Instructions) -> Instructions {
        Instructions(self.0 | other.0)
    }

    /// Membership test.
    pub const fn contains(self, other: Instructions) -> bool {
        self.0 & other.0 == other.0
    }

    /// 32-bit metadata words appended per hop.
    pub const fn words_per_hop(self) -> usize {
        (self.0 & 0xFC00).count_ones() as usize
    }

    /// Bytes appended per hop.
    pub const fn bytes_per_hop(self) -> usize {
        self.words_per_hop() * 4
    }
}

/// The full per-hop metadata a switch can export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RichHopMetadata {
    /// Node (switch) ID.
    pub switch_id: u32,
    /// Ingress port (upper 16 bits) and egress port (lower 16 bits).
    pub port_ids: u32,
    /// Hop latency in nanoseconds.
    pub hop_latency: u32,
    /// Queue ID (upper 8 bits) and occupancy (lower 24 bits).
    pub queue_occupancy: u32,
    /// Ingress timestamp (ns, truncated).
    pub ingress_ts: u32,
    /// Egress timestamp (ns, truncated).
    pub egress_ts: u32,
}

impl RichHopMetadata {
    /// Emit the words selected by `instructions`, in bitmap order.
    pub fn emit(&self, instructions: Instructions, out: &mut Vec<u8>) {
        let fields = [
            (Instructions::NODE_ID, self.switch_id),
            (Instructions::PORT_IDS, self.port_ids),
            (Instructions::HOP_LATENCY, self.hop_latency),
            (Instructions::QUEUE_OCCUPANCY, self.queue_occupancy),
            (Instructions::INGRESS_TS, self.ingress_ts),
            (Instructions::EGRESS_TS, self.egress_ts),
        ];
        for (flag, value) in fields {
            if instructions.contains(flag) {
                out.extend_from_slice(&value.to_be_bytes());
            }
        }
    }

    /// Parse the words selected by `instructions`; unselected fields
    /// stay zero. Returns the metadata and bytes consumed.
    pub fn parse(instructions: Instructions, data: &[u8]) -> Result<(RichHopMetadata, usize)> {
        let needed = instructions.bytes_per_hop();
        if data.len() < needed {
            return Err(Error::Truncated);
        }
        let mut md = RichHopMetadata::default();
        let mut offset = 0;
        let mut read = |target: &mut u32| {
            *target = u32::from_be_bytes(data[offset..offset + 4].try_into().unwrap());
            offset += 4;
        };
        if instructions.contains(Instructions::NODE_ID) {
            read(&mut md.switch_id);
        }
        if instructions.contains(Instructions::PORT_IDS) {
            read(&mut md.port_ids);
        }
        if instructions.contains(Instructions::HOP_LATENCY) {
            read(&mut md.hop_latency);
        }
        if instructions.contains(Instructions::QUEUE_OCCUPANCY) {
            read(&mut md.queue_occupancy);
        }
        if instructions.contains(Instructions::INGRESS_TS) {
            read(&mut md.ingress_ts);
        }
        if instructions.contains(Instructions::EGRESS_TS) {
            read(&mut md.egress_ts);
        }
        Ok((md, offset))
    }
}

/// A metadata stack under an arbitrary instruction bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RichIntStack {
    instructions: Instructions,
    hops: Vec<RichHopMetadata>,
}

impl RichIntStack {
    /// An empty stack collecting `instructions` per hop.
    pub fn new(instructions: Instructions) -> RichIntStack {
        RichIntStack {
            instructions,
            hops: Vec::new(),
        }
    }

    /// The instruction bitmap.
    pub fn instructions(&self) -> Instructions {
        self.instructions
    }

    /// Append one hop. Returns [`Error::Overflow`] past [`MAX_HOPS`].
    pub fn push(&mut self, hop: RichHopMetadata) -> Result<()> {
        if self.hops.len() >= MAX_HOPS {
            return Err(Error::Overflow);
        }
        self.hops.push(hop);
        Ok(())
    }

    /// Recorded hops in path order.
    pub fn hops(&self) -> &[RichHopMetadata] {
        &self.hops
    }

    /// Encode, zero-padded to exactly `hops` entries (fixed-size DART
    /// values).
    pub fn to_padded_value_bytes(&self, hops: usize) -> Result<Vec<u8>> {
        if self.hops.len() > hops {
            return Err(Error::Overflow);
        }
        let mut out = Vec::with_capacity(hops * self.instructions.bytes_per_hop());
        for hop in &self.hops {
            hop.emit(self.instructions, &mut out);
        }
        out.resize(hops * self.instructions.bytes_per_hop(), 0);
        Ok(out)
    }

    /// Decode a padded value; all-zero trailing entries are dropped
    /// (zero node IDs never occur — IDs start at 1).
    pub fn from_value_bytes(instructions: Instructions, data: &[u8]) -> Result<RichIntStack> {
        let per_hop = instructions.bytes_per_hop();
        if per_hop == 0 || data.len() % per_hop != 0 {
            return Err(Error::Malformed);
        }
        if data.len() / per_hop > MAX_HOPS {
            return Err(Error::Overflow);
        }
        let mut stack = RichIntStack::new(instructions);
        let mut offset = 0;
        while offset < data.len() {
            let (md, used) = RichHopMetadata::parse(instructions, &data[offset..])?;
            offset += used;
            if md == RichHopMetadata::default() {
                continue; // padding
            }
            stack.push(md).expect("bounded by MAX_HOPS check");
        }
        Ok(stack)
    }
}

mod fields {
    use super::Field;
    pub const VER_FLAGS: usize = 0; // version(4) | reserved(4)
    pub const HW_ID: usize = 1;
    pub const SEQ_NO: Field = 2..6;
    pub const NODE_ID: Field = 6..10;
    pub const INGRESS_TS: Field = 10..14;
}

/// Length of the telemetry report header.
pub const REPORT_HEADER_LEN: usize = 14;

/// The version emitted by this implementation.
pub const REPORT_VERSION: u8 = 1;

/// A telemetry report header (simplified P4.org Telemetry Report Format).
///
/// Prepended by the INT sink when exporting a report; DART replaces this
/// CPU-bound export path with an RDMA write, but the postcard backend and
/// the CPU-collector baselines still parse it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportHeader {
    /// Format version (must equal [`REPORT_VERSION`]).
    pub version: u8,
    /// Hardware subsystem that generated the report.
    pub hw_id: u8,
    /// Per-switch monotonically increasing report sequence number.
    pub seq_no: u32,
    /// Node (switch) ID of the reporter.
    pub node_id: u32,
    /// Ingress timestamp (nanoseconds, truncated to 32 bits).
    pub ingress_ts: u32,
}

impl ReportHeader {
    /// Parse from bytes.
    pub fn parse(data: &[u8]) -> Result<ReportHeader> {
        if data.len() < REPORT_HEADER_LEN {
            return Err(Error::Truncated);
        }
        let version = data[fields::VER_FLAGS] >> 4;
        if version != REPORT_VERSION {
            return Err(Error::Malformed);
        }
        Ok(ReportHeader {
            version,
            hw_id: data[fields::HW_ID],
            seq_no: u32::from_be_bytes(data[fields::SEQ_NO].try_into().unwrap()),
            node_id: u32::from_be_bytes(data[fields::NODE_ID].try_into().unwrap()),
            ingress_ts: u32::from_be_bytes(data[fields::INGRESS_TS].try_into().unwrap()),
        })
    }

    /// Emitted length.
    pub const fn buffer_len(&self) -> usize {
        REPORT_HEADER_LEN
    }

    /// Emit into a byte slice.
    ///
    /// # Panics
    /// Panics if `data` is shorter than [`REPORT_HEADER_LEN`].
    pub fn emit(&self, data: &mut [u8]) {
        data[fields::VER_FLAGS] = self.version << 4;
        data[fields::HW_ID] = self.hw_id;
        data[fields::SEQ_NO].copy_from_slice(&self.seq_no.to_be_bytes());
        data[fields::NODE_ID].copy_from_slice(&self.node_id.to_be_bytes());
        data[fields::INGRESS_TS].copy_from_slice(&self.ingress_ts.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack(ids: &[u32]) -> IntStack {
        let mut s = IntStack::new();
        for &id in ids {
            s.push(HopMetadata { switch_id: id }).unwrap();
        }
        s
    }

    #[test]
    fn five_hop_stack_is_160_bits() {
        let s = stack(&[1, 2, 3, 4, 5]);
        let bytes = s.to_value_bytes();
        assert_eq!(bytes.len() * 8, 160);
        assert_eq!(IntStack::from_value_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn stack_overflow_rejected() {
        let mut s = stack(&[0; 9]);
        assert_eq!(s.push(HopMetadata { switch_id: 10 }), Err(Error::Overflow));
        assert_eq!(IntStack::from_value_bytes(&[0u8; 40]), Err(Error::Overflow));
    }

    #[test]
    fn stacks_compare_and_print_live_hops_only() {
        assert_eq!(IntStack::new(), IntStack::default());
        assert_eq!(stack(&[1, 2]), stack(&[1, 2]));
        assert_ne!(stack(&[1, 2]), stack(&[1, 2, 0]));
        assert_eq!(
            format!("{:?}", stack(&[7])),
            "IntStack { hops: [HopMetadata { switch_id: 7 }] }"
        );
    }

    #[test]
    fn stack_rejects_ragged_bytes() {
        assert_eq!(IntStack::from_value_bytes(&[0u8; 7]), Err(Error::Malformed));
    }

    #[test]
    fn padded_encoding() {
        let s = stack(&[7, 8]);
        let padded = s.to_padded_value_bytes(5).unwrap();
        assert_eq!(padded.len(), 20);
        let decoded = IntStack::from_value_bytes(&padded).unwrap();
        assert_eq!(decoded.switch_ids(), vec![7, 8, 0, 0, 0]);
        assert_eq!(s.to_padded_value_bytes(1), Err(Error::Overflow));
    }

    #[test]
    fn report_header_roundtrip() {
        let hdr = ReportHeader {
            version: REPORT_VERSION,
            hw_id: 3,
            seq_no: 123_456,
            node_id: 77,
            ingress_ts: 0xDEAD_BEEF,
        };
        let mut buf = [0u8; REPORT_HEADER_LEN];
        hdr.emit(&mut buf);
        assert_eq!(ReportHeader::parse(&buf).unwrap(), hdr);
    }

    #[test]
    fn report_header_rejects_bad_version() {
        let hdr = ReportHeader {
            version: REPORT_VERSION,
            hw_id: 0,
            seq_no: 0,
            node_id: 0,
            ingress_ts: 0,
        };
        let mut buf = [0u8; REPORT_HEADER_LEN];
        hdr.emit(&mut buf);
        buf[0] = 0x20; // version 2
        assert_eq!(ReportHeader::parse(&buf), Err(Error::Malformed));
        assert_eq!(ReportHeader::parse(&buf[..4]), Err(Error::Truncated));
    }

    fn rich_hop(id: u32) -> RichHopMetadata {
        RichHopMetadata {
            switch_id: id,
            port_ids: 0x0001_0002,
            hop_latency: 850 + id,
            queue_occupancy: 0x0300_0011,
            ingress_ts: 1_000_000,
            egress_ts: 1_000_850,
        }
    }

    #[test]
    fn instruction_arithmetic() {
        let i = Instructions::path_tracing();
        assert_eq!(i.words_per_hop(), 1);
        assert_eq!(i.bytes_per_hop(), 4);
        let full = Instructions::NODE_ID
            .with(Instructions::PORT_IDS)
            .with(Instructions::HOP_LATENCY)
            .with(Instructions::QUEUE_OCCUPANCY)
            .with(Instructions::INGRESS_TS)
            .with(Instructions::EGRESS_TS);
        assert_eq!(full.words_per_hop(), 6);
        assert!(full.contains(Instructions::HOP_LATENCY));
        assert!(!Instructions::empty().contains(Instructions::NODE_ID));
        assert_eq!(Instructions::from_bits(full.bits()), full);
    }

    #[test]
    fn rich_hop_roundtrip_all_profiles() {
        let profiles = [
            Instructions::path_tracing(),
            Instructions::NODE_ID.with(Instructions::HOP_LATENCY),
            Instructions::NODE_ID
                .with(Instructions::QUEUE_OCCUPANCY)
                .with(Instructions::EGRESS_TS),
        ];
        for instructions in profiles {
            let hop = rich_hop(7);
            let mut bytes = Vec::new();
            hop.emit(instructions, &mut bytes);
            assert_eq!(bytes.len(), instructions.bytes_per_hop());
            let (parsed, used) = RichHopMetadata::parse(instructions, &bytes).unwrap();
            assert_eq!(used, bytes.len());
            // Selected fields round-trip; unselected are zero.
            if instructions.contains(Instructions::HOP_LATENCY) {
                assert_eq!(parsed.hop_latency, hop.hop_latency);
            } else {
                assert_eq!(parsed.hop_latency, 0);
            }
            assert_eq!(parsed.switch_id, hop.switch_id);
        }
    }

    #[test]
    fn rich_stack_roundtrip_with_padding() {
        let instructions = Instructions::NODE_ID.with(Instructions::HOP_LATENCY);
        let mut stack = RichIntStack::new(instructions);
        for id in [3u32, 4, 5] {
            stack.push(rich_hop(id)).unwrap();
        }
        let bytes = stack.to_padded_value_bytes(5).unwrap();
        assert_eq!(bytes.len(), 5 * 8);
        let decoded = RichIntStack::from_value_bytes(instructions, &bytes).unwrap();
        assert_eq!(decoded.hops().len(), 3);
        assert_eq!(decoded.hops()[1].hop_latency, 854);
        assert_eq!(decoded.instructions(), instructions);
    }

    #[test]
    fn rich_stack_validation() {
        let i = Instructions::path_tracing();
        let mut stack = RichIntStack::new(i);
        for _ in 0..MAX_HOPS {
            stack.push(rich_hop(1)).unwrap();
        }
        assert_eq!(stack.push(rich_hop(2)), Err(Error::Overflow));
        assert_eq!(stack.to_padded_value_bytes(5), Err(Error::Overflow));
        assert_eq!(
            RichIntStack::from_value_bytes(i, &[0u8; 6]),
            Err(Error::Malformed)
        );
        assert_eq!(
            RichIntStack::from_value_bytes(Instructions::empty(), &[]),
            Err(Error::Malformed)
        );
        assert_eq!(
            RichIntStack::from_value_bytes(i, &[1u8; (MAX_HOPS + 1) * 4]),
            Err(Error::Overflow)
        );
    }

    #[test]
    fn rich_hop_parse_truncated() {
        let i = Instructions::NODE_ID.with(Instructions::EGRESS_TS);
        assert_eq!(RichHopMetadata::parse(i, &[0u8; 7]), Err(Error::Truncated));
    }

    #[test]
    fn empty_stack() {
        let s = IntStack::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.to_value_bytes(), Vec::<u8>::new());
        assert_eq!(IntStack::from_value_bytes(&[]).unwrap(), s);
    }
}
