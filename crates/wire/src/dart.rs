//! The DART report payload and collector slot layout.
//!
//! A DART report *is* the slot content: a `b`-bit checksum of the telemetry
//! key followed by the value (§3.1). The switch computes the checksum with
//! its CRC extern, concatenates the value, and ships the result as the
//! payload of an RDMA WRITE; the NIC lands the bytes verbatim in collector
//! memory, so the wire format and the storage format are one and the same.
//!
//! Also defined here is the [`MultiWriteRepr`] framing for the *native
//! direct-telemetry-access protocol* sketched in §7: a SmartNIC-terminated
//! primitive that carries one payload plus the list of slot addresses to
//! replicate it into, removing the standard-RDMA restriction of one memory
//! write per packet.

use crate::{Error, Result};

/// Width of the per-slot key checksum.
///
/// §4 analyses the impact of `b` and recommends 32 bits with a plurality
/// vote as the default; Figure 5 sweeps 8/16/32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChecksumWidth {
    /// No checksum — collisions are undetectable (the `b = 0` baseline).
    None,
    /// 8-bit checksum.
    B8,
    /// 16-bit checksum.
    B16,
    /// 32-bit checksum (the paper's suggested default).
    B32,
}

impl ChecksumWidth {
    /// Width in bits.
    pub const fn bits(self) -> u32 {
        match self {
            ChecksumWidth::None => 0,
            ChecksumWidth::B8 => 8,
            ChecksumWidth::B16 => 16,
            ChecksumWidth::B32 => 32,
        }
    }

    /// Width in bytes.
    pub const fn bytes(self) -> usize {
        (self.bits() / 8) as usize
    }

    /// Truncate a 32-bit checksum to this width.
    pub const fn truncate(self, checksum: u32) -> u32 {
        match self {
            ChecksumWidth::None => 0,
            ChecksumWidth::B8 => checksum & 0xFF,
            ChecksumWidth::B16 => checksum & 0xFFFF,
            ChecksumWidth::B32 => checksum,
        }
    }
}

/// Byte layout of one collector memory slot (= one DART report payload).
///
/// ```text
/// | checksum (0/1/2/4 B, big-endian) | value (value_len B) |
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotLayout {
    /// Checksum width.
    pub checksum: ChecksumWidth,
    /// Telemetry value length in bytes.
    pub value_len: usize,
}

impl SlotLayout {
    /// The paper's Figure 4 configuration: 160-bit values (5-hop INT path
    /// tracing) with 32-bit checksums.
    pub const INT_PATH_TRACING: SlotLayout = SlotLayout {
        checksum: ChecksumWidth::B32,
        value_len: 20,
    };

    /// Total slot size in bytes.
    pub const fn slot_len(&self) -> usize {
        self.checksum.bytes() + self.value_len
    }

    /// Encode a report into `out`.
    ///
    /// The checksum is truncated to the configured width. Returns
    /// [`Error::Truncated`] if `out` is too small and [`Error::Malformed`]
    /// if `value` has the wrong length.
    pub fn encode(&self, key_checksum: u32, value: &[u8], out: &mut [u8]) -> Result<()> {
        if value.len() != self.value_len {
            return Err(Error::Malformed);
        }
        if out.len() < self.slot_len() {
            return Err(Error::Truncated);
        }
        let cb = self.checksum.bytes();
        let truncated = self.checksum.truncate(key_checksum);
        out[..cb].copy_from_slice(&truncated.to_be_bytes()[4 - cb..]);
        out[cb..cb + self.value_len].copy_from_slice(value);
        Ok(())
    }

    /// Decode a slot into `(checksum, value)`.
    pub fn decode<'a>(&self, slot: &'a [u8]) -> Result<(u32, &'a [u8])> {
        if slot.len() < self.slot_len() {
            return Err(Error::Truncated);
        }
        let cb = self.checksum.bytes();
        let mut raw = [0u8; 4];
        raw[4 - cb..].copy_from_slice(&slot[..cb]);
        Ok((u32::from_be_bytes(raw), &slot[cb..self.slot_len()]))
    }
}

/// Framing for the §7 native multi-write primitive.
///
/// ```text
/// | n_addrs (1 B) | addr_0 (8 B BE) | … | addr_{n-1} | payload |
/// ```
///
/// A programmable NIC terminating this protocol performs `n_addrs` DMA
/// writes of the single payload, so a key's `N` redundant slots cost one
/// packet instead of `N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiWriteRepr {
    /// Target virtual addresses (at most 255).
    pub addresses: Vec<u64>,
    /// The payload replicated into every address.
    pub payload: Vec<u8>,
}

impl MultiWriteRepr {
    /// Parse from bytes.
    pub fn parse(data: &[u8]) -> Result<MultiWriteRepr> {
        if data.is_empty() {
            return Err(Error::Truncated);
        }
        let n = usize::from(data[0]);
        if n == 0 {
            return Err(Error::Malformed);
        }
        let header_len = 1 + n * 8;
        if data.len() < header_len {
            return Err(Error::Truncated);
        }
        let mut addresses = Vec::with_capacity(n);
        for i in 0..n {
            let start = 1 + i * 8;
            addresses.push(u64::from_be_bytes(
                data[start..start + 8].try_into().unwrap(),
            ));
        }
        Ok(MultiWriteRepr {
            addresses,
            payload: data[header_len..].to_vec(),
        })
    }

    /// Emitted length.
    pub fn buffer_len(&self) -> usize {
        1 + self.addresses.len() * 8 + self.payload.len()
    }

    /// Emit to a byte vector.
    ///
    /// Returns [`Error::Overflow`] if more than 255 addresses are present
    /// and [`Error::Malformed`] if none are.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        if self.addresses.is_empty() {
            return Err(Error::Malformed);
        }
        if self.addresses.len() > 255 {
            return Err(Error::Overflow);
        }
        let mut out = Vec::with_capacity(self.buffer_len());
        out.push(self.addresses.len() as u8);
        for addr in &self.addresses {
            out.extend_from_slice(&addr.to_be_bytes());
        }
        out.extend_from_slice(&self.payload);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_lengths() {
        assert_eq!(SlotLayout::INT_PATH_TRACING.slot_len(), 24);
        let no_sum = SlotLayout {
            checksum: ChecksumWidth::None,
            value_len: 20,
        };
        assert_eq!(no_sum.slot_len(), 20);
    }

    #[test]
    fn encode_decode_roundtrip_all_widths() {
        for checksum in [
            ChecksumWidth::None,
            ChecksumWidth::B8,
            ChecksumWidth::B16,
            ChecksumWidth::B32,
        ] {
            let layout = SlotLayout {
                checksum,
                value_len: 20,
            };
            let value = [0xA5u8; 20];
            let mut slot = vec![0u8; layout.slot_len()];
            layout.encode(0xDEAD_BEEF, &value, &mut slot).unwrap();
            let (sum, val) = layout.decode(&slot).unwrap();
            assert_eq!(sum, checksum.truncate(0xDEAD_BEEF));
            assert_eq!(val, &value);
        }
    }

    #[test]
    fn truncation_widths() {
        assert_eq!(ChecksumWidth::B8.truncate(0xDEAD_BEEF), 0xEF);
        assert_eq!(ChecksumWidth::B16.truncate(0xDEAD_BEEF), 0xBEEF);
        assert_eq!(ChecksumWidth::B32.truncate(0xDEAD_BEEF), 0xDEAD_BEEF);
        assert_eq!(ChecksumWidth::None.truncate(0xDEAD_BEEF), 0);
    }

    #[test]
    fn encode_validates_lengths() {
        let layout = SlotLayout::INT_PATH_TRACING;
        let mut slot = vec![0u8; layout.slot_len()];
        assert_eq!(
            layout.encode(0, &[0u8; 4], &mut slot),
            Err(Error::Malformed)
        );
        let mut short = vec![0u8; 10];
        assert_eq!(
            layout.encode(0, &[0u8; 20], &mut short),
            Err(Error::Truncated)
        );
        assert_eq!(layout.decode(&short), Err(Error::Truncated));
    }

    #[test]
    fn multi_write_roundtrip() {
        let repr = MultiWriteRepr {
            addresses: vec![0x1000, 0x2000, 0x3000, 0x4000],
            payload: vec![7u8; 24],
        };
        let bytes = repr.to_bytes().unwrap();
        assert_eq!(bytes.len(), repr.buffer_len());
        assert_eq!(MultiWriteRepr::parse(&bytes).unwrap(), repr);
    }

    #[test]
    fn multi_write_validation() {
        assert_eq!(MultiWriteRepr::parse(&[]), Err(Error::Truncated));
        assert_eq!(MultiWriteRepr::parse(&[0u8]), Err(Error::Malformed));
        assert_eq!(MultiWriteRepr::parse(&[2u8, 0, 0]), Err(Error::Truncated));
        let too_many = MultiWriteRepr {
            addresses: vec![0; 256],
            payload: vec![],
        };
        assert_eq!(too_many.to_bytes(), Err(Error::Overflow));
        let none = MultiWriteRepr {
            addresses: vec![],
            payload: vec![],
        };
        assert_eq!(none.to_bytes(), Err(Error::Malformed));
    }
}
