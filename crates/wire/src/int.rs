//! In-band Network Telemetry (INT) formats.
//!
//! DART's headline experiment collects *INT path tracing* on a 5-hop
//! fat-tree (§5): every switch a packet traverses appends its 32-bit
//! switch ID to an INT metadata stack carried in the packet; the last hop
//! (the INT *sink*) strips the stack and reports it to the collector keyed
//! by the flow 5-tuple. In postcard mode every switch reports its own
//! metadata keyed by `(switch ID, 5-tuple)` instead.
//!
//! The format here is the path-tracing profile of INT metadata: an
//! [`IntStack`] of per-hop switch IDs. The stack's byte encoding doubles
//! as the DART value (160 bits for five hops — exactly the Figure 4
//! configuration).

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
    fn empty_stack() {
        let s = IntStack::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.to_value_bytes(), Vec::<u8>::new());
        assert_eq!(IntStack::from_value_bytes(&[]).unwrap(), s);
    }
}
