//! Per-flow packet/byte counters over the Key-Increment primitive.
//!
//! Instead of overwriting a slot per report (Key-Write), every packet of
//! a flow contributes a FETCH_ADD delta into one 8-byte counter word —
//! the aggregation happens *in collector memory*, so switches keep zero
//! per-flow counter state. The query side answers the **minimum**
//! across copies, a Count-Min estimate: lost FETCH_ADDs make it
//! undercount, keys colliding in every copy's slot make it overcount.

use dta_wire::{FiveTuple, Result};

use crate::event::{read_array, tag, Backend};

/// The flow-counter backend: `5-tuple → running u64 total`.
pub struct FlowCountBackend;

impl Backend for FlowCountBackend {
    type Key = FiveTuple;
    type Value = u64;

    /// Key-Increment counter words are always 8 bytes (the RDMA atomic
    /// operand size).
    const VALUE_LEN: usize = 8;

    fn encode_key(flow: &FiveTuple) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + FiveTuple::WIRE_LEN);
        out.push(tag::FLOW_COUNT);
        out.extend_from_slice(&flow.to_bytes());
        out
    }

    fn encode_value(delta: &u64) -> Vec<u8> {
        delta.to_be_bytes().to_vec()
    }

    fn decode_value(bytes: &[u8]) -> Result<u64> {
        Ok(u64::from_be_bytes(read_array::<8>(bytes, 0)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_wire::ipv4;

    fn flow() -> FiveTuple {
        FiveTuple {
            src_ip: ipv4::Address([10, 0, 0, 1]),
            dst_ip: ipv4::Address([10, 0, 1, 9]),
            src_port: 40000,
            dst_port: 80,
            protocol: 6,
        }
    }

    #[test]
    fn value_roundtrip() {
        let bytes = FlowCountBackend::encode_value(&123_456_789);
        assert_eq!(bytes.len(), FlowCountBackend::VALUE_LEN);
        assert_eq!(FlowCountBackend::decode_value(&bytes).unwrap(), 123_456_789);
    }

    #[test]
    fn key_tag_and_distinctness() {
        let key = FlowCountBackend::encode_key(&flow());
        assert_eq!(key[0], tag::FLOW_COUNT);
        let mut other = flow();
        other.dst_port = 443;
        assert_ne!(key, FlowCountBackend::encode_key(&other));
    }

    #[test]
    fn truncated_value_rejected() {
        assert!(FlowCountBackend::decode_value(&[0u8; 7]).is_err());
    }
}
