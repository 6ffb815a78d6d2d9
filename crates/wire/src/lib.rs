//! # dta-wire — wire formats for Direct Telemetry Access
//!
//! Typed, allocation-free views over byte buffers for every protocol DART
//! touches on the wire, in the style of `smoltcp`:
//!
//! * [`ethernet`] — Ethernet II frames.
//! * [`ipv4`] — IPv4 packets with header checksum generation/validation.
//! * [`udp`] — UDP datagrams with pseudo-header checksums.
//! * [`roce`] — RoCEv2 (RDMA over Converged Ethernet): BTH, RETH, AETH and
//!   AtomicETH headers plus the invariant CRC (iCRC) trailer.
//! * [`dart`] — the DART report payload: a key checksum next to the
//!   telemetry value, exactly as stored in collector memory slots.
//! * [`int`] — In-band Network Telemetry per-hop metadata stacks (path
//!   tracing).
//! * [`crc`] — table-driven CRC-16/CRC-32 used by the switch CRC extern and
//!   the RoCEv2 iCRC.
//!
//! Each protocol exposes a *view* type (`Packet<T>`/`Frame<T>`/`Header<T>`)
//! that wraps any `AsRef<[u8]>` buffer and offers field accessors, and a
//! *representation* type (`Repr`) that owns parsed header values and can
//! `emit` itself back into a buffer. Views never allocate; `new_checked`
//! validates lengths up front so accessors cannot panic afterwards.
//!
//! ```
//! use dta_wire::roce::{Bth, BthRepr, Opcode};
//!
//! let repr = BthRepr {
//!     opcode: Opcode::UcRdmaWriteOnly,
//!     solicited: false,
//!     migration: true,
//!     pad_count: 0,
//!     partition_key: 0xffff,
//!     dest_qp: 0x012345,
//!     ack_request: false,
//!     psn: 42,
//! };
//! let mut buf = [0u8; 12];
//! repr.emit(&mut Bth::new_unchecked(&mut buf[..]));
//! let parsed = BthRepr::parse(&Bth::new_checked(&buf[..]).unwrap()).unwrap();
//! assert_eq!(parsed, repr);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod crc;
pub mod dart;
pub mod dissect;
pub mod ethernet;
pub mod int;
pub mod ipv4;
pub mod roce;
pub mod udp;

mod field {
    //! Byte-range constants shared by header views.
    pub type Field = core::ops::Range<usize>;
}

/// Errors returned while parsing or emitting wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is too short to hold the header (or declared payload).
    Truncated,
    /// A field holds a value that the protocol does not allow.
    Malformed,
    /// A checksum did not validate.
    Checksum,
    /// The value is not representable in the target field width.
    Overflow,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Truncated => write!(f, "buffer too short"),
            Error::Malformed => write!(f, "malformed field"),
            Error::Checksum => write!(f, "checksum mismatch"),
            Error::Overflow => write!(f, "value does not fit the field"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias used throughout `dta-wire`.
pub type Result<T> = core::result::Result<T, Error>;

/// A network flow 5-tuple — the canonical telemetry key for in-band INT.
///
/// DART hashes this (or its concatenation with a switch ID, query ID, …)
/// into collector memory addresses. The byte encoding produced by
/// [`FiveTuple::to_bytes`] is the exact 13-byte layout the switch pipeline
/// feeds to its CRC extern: source and destination IPv4 addresses, source
/// and destination ports (big-endian), and the IP protocol number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// IPv4 source address.
    pub src_ip: ipv4::Address,
    /// IPv4 destination address.
    pub dst_ip: ipv4::Address,
    /// Transport source port.
    pub src_port: u16,
    /// Transport destination port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP, …).
    pub protocol: u8,
}

impl FiveTuple {
    /// Length of the canonical byte encoding.
    pub const WIRE_LEN: usize = 13;

    /// Serialize into the canonical 13-byte key layout.
    pub fn to_bytes(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[0..4].copy_from_slice(&self.src_ip.0);
        out[4..8].copy_from_slice(&self.dst_ip.0);
        out[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        out[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        out[12] = self.protocol;
        out
    }

    /// Parse the canonical 13-byte key layout.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < Self::WIRE_LEN {
            return Err(Error::Truncated);
        }
        Ok(FiveTuple {
            src_ip: ipv4::Address([bytes[0], bytes[1], bytes[2], bytes[3]]),
            dst_ip: ipv4::Address([bytes[4], bytes[5], bytes[6], bytes[7]]),
            src_port: u16::from_be_bytes([bytes[8], bytes[9]]),
            dst_port: u16::from_be_bytes([bytes[10], bytes[11]]),
            protocol: bytes[12],
        })
    }
}

impl core::fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> FiveTuple {
        FiveTuple {
            src_ip: ipv4::Address([10, 0, 0, 1]),
            dst_ip: ipv4::Address([10, 0, 1, 9]),
            src_port: 33444,
            dst_port: 80,
            protocol: 6,
        }
    }

    #[test]
    fn five_tuple_roundtrip() {
        let t = tuple();
        let bytes = t.to_bytes();
        assert_eq!(FiveTuple::from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn five_tuple_truncated() {
        assert_eq!(FiveTuple::from_bytes(&[0u8; 12]), Err(Error::Truncated));
    }

    #[test]
    fn five_tuple_display() {
        assert_eq!(tuple().to_string(), "10.0.0.1:33444 -> 10.0.1.9:80 proto 6");
    }

    #[test]
    fn error_display() {
        assert_eq!(Error::Truncated.to_string(), "buffer too short");
        assert_eq!(Error::Checksum.to_string(), "checksum mismatch");
    }
}
