//! RoCEv2 (RDMA over Converged Ethernet v2) wire formats.
//!
//! DART switches craft one-sided RDMA WRITEs as RoCEv2 packets: an IPv4/UDP
//! envelope (destination port 4791) carrying an InfiniBand transport packet
//! — Base Transport Header (BTH), an RDMA Extended Transport Header (RETH)
//! for WRITEs or an AtomicETH for FETCH_ADD / COMPARE_SWAP (§7), the
//! payload, and a 4-byte invariant CRC (iCRC) trailer.
//!
//! The layouts follow the InfiniBand Architecture Specification vol. 1
//! (release 1.3) and the RoCEv2 annex:
//!
//! ```text
//! BTH (12 B):  opcode(8) | SE(1) M(1) Pad(2) TVer(4) | P_Key(16)
//!              | resv8a(8) | DestQP(24) | A(1) resv7(7) | PSN(24)
//! RETH (16 B): VA(64) | R_Key(32) | DMALen(32)
//! AtomicETH (28 B): VA(64) | R_Key(32) | Swap/Add(64) | Compare(64)
//! AETH (4 B):  Syndrome(8) | MSN(24)
//! ```
//!
//! The iCRC is a CRC-32 (Ethernet polynomial) over the packet from the IPv4
//! header to the end of the payload, with *variant* fields masked to ones:
//! eight bytes standing in for the (absent) LRH, the IPv4 TOS, TTL and
//! header checksum, the UDP checksum, and the BTH `resv8a` byte. The switch
//! pipeline generates it with its CRC extern (§6) and the collector NIC
//! validates it before DMA; both sides share this implementation so the
//! check is bit-exact end to end.

use crate::crc::Crc32;
use crate::field::Field;
use crate::{ipv4, udp, Error, Result};

/// Length of the Base Transport Header.
pub const BTH_LEN: usize = 12;
/// Length of the RDMA Extended Transport Header.
pub const RETH_LEN: usize = 16;
/// Length of the Atomic Extended Transport Header.
pub const ATOMIC_ETH_LEN: usize = 28;
/// Length of the ACK Extended Transport Header.
pub const AETH_LEN: usize = 4;
/// Length of the invariant CRC trailer.
pub const ICRC_LEN: usize = 4;

/// IBA transport opcodes used by DART.
///
/// The upper three bits select the transport class (RC = `0b000`,
/// UC = `0b011`), the lower five the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// RC RDMA WRITE Only (`0x0A`).
    RcRdmaWriteOnly,
    /// RC Compare & Swap (`0x13`).
    RcCompareSwap,
    /// RC Fetch & Add (`0x14`).
    RcFetchAdd,
    /// RC Acknowledge (`0x11`).
    RcAcknowledge,
    /// RC Atomic Acknowledge (`0x12`).
    RcAtomicAcknowledge,
    /// UC RDMA WRITE Only (`0x6A`) — the workhorse of DART reporting.
    UcRdmaWriteOnly,
    /// UC Send Only (`0x64`), used by the control plane handshake.
    UcSendOnly,
}

impl Opcode {
    /// The raw 8-bit opcode.
    pub fn to_u8(self) -> u8 {
        match self {
            Opcode::RcRdmaWriteOnly => 0x0A,
            Opcode::RcAcknowledge => 0x11,
            Opcode::RcAtomicAcknowledge => 0x12,
            Opcode::RcCompareSwap => 0x13,
            Opcode::RcFetchAdd => 0x14,
            Opcode::UcRdmaWriteOnly => 0x6A,
            Opcode::UcSendOnly => 0x64,
        }
    }

    /// Decode a raw opcode.
    pub fn from_u8(raw: u8) -> Result<Opcode> {
        match raw {
            0x0A => Ok(Opcode::RcRdmaWriteOnly),
            0x11 => Ok(Opcode::RcAcknowledge),
            0x12 => Ok(Opcode::RcAtomicAcknowledge),
            0x13 => Ok(Opcode::RcCompareSwap),
            0x14 => Ok(Opcode::RcFetchAdd),
            0x6A => Ok(Opcode::UcRdmaWriteOnly),
            0x64 => Ok(Opcode::UcSendOnly),
            _ => Err(Error::Malformed),
        }
    }

    /// Whether this opcode belongs to the Unreliable Connected class.
    pub fn is_unreliable(self) -> bool {
        matches!(self, Opcode::UcRdmaWriteOnly | Opcode::UcSendOnly)
    }

    /// Whether the packet carries a RETH.
    pub fn has_reth(self) -> bool {
        matches!(self, Opcode::RcRdmaWriteOnly | Opcode::UcRdmaWriteOnly)
    }

    /// Whether the packet carries an AtomicETH.
    pub fn has_atomic_eth(self) -> bool {
        matches!(self, Opcode::RcCompareSwap | Opcode::RcFetchAdd)
    }

    /// Whether the packet carries an AETH.
    pub fn has_aeth(self) -> bool {
        matches!(self, Opcode::RcAcknowledge | Opcode::RcAtomicAcknowledge)
    }
}

/// A 24-bit Packet Sequence Number with wrapping arithmetic.
///
/// Switches keep one PSN counter per collector in a register array (§6);
/// the NIC tracks the expected PSN per queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Psn(u32);

impl Psn {
    /// The modulus of PSN arithmetic.
    pub const MODULUS: u32 = 1 << 24;

    /// Construct, truncating to 24 bits.
    pub fn new(raw: u32) -> Psn {
        Psn(raw & (Self::MODULUS - 1))
    }

    /// The raw 24-bit value.
    pub fn value(self) -> u32 {
        self.0
    }

    /// The next PSN (wrapping).
    pub fn next(self) -> Psn {
        Psn::new(self.0.wrapping_add(1))
    }

    /// Wrapping addition.
    #[allow(clippy::should_implement_trait)] // domain-specific 24-bit wrap, not ops::Add
    pub fn add(self, delta: u32) -> Psn {
        Psn::new(self.0.wrapping_add(delta))
    }

    /// Signed distance `self - other` in the 24-bit circular space,
    /// in `[-2^23, 2^23)`. Positive means `self` is ahead of `other`.
    pub fn distance(self, other: Psn) -> i32 {
        let diff = (self.0.wrapping_sub(other.0)) & (Self::MODULUS - 1);
        if diff >= Self::MODULUS / 2 {
            diff as i32 - Self::MODULUS as i32
        } else {
            diff as i32
        }
    }
}

mod bth_fields {
    use super::Field;
    pub const OPCODE: usize = 0;
    pub const FLAGS: usize = 1; // SE(1) M(1) Pad(2) TVer(4)
    pub const PKEY: Field = 2..4;
    pub const RESV8A: usize = 4;
    pub const DEST_QP: Field = 5..8;
    pub const ACK_PSN: Field = 8..12; // A(1) resv7(7) PSN(24)
}

/// A read/write view of a Base Transport Header.
#[derive(Debug, Clone)]
pub struct Bth<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Bth<T> {
    /// Wrap a buffer without checking it.
    pub fn new_unchecked(buffer: T) -> Bth<T> {
        Bth { buffer }
    }

    /// Wrap a buffer, validating its length.
    pub fn new_checked(buffer: T) -> Result<Bth<T>> {
        let bth = Self::new_unchecked(buffer);
        bth.check_len()?;
        Ok(bth)
    }

    /// Validate the buffer length.
    pub fn check_len(&self) -> Result<()> {
        if self.buffer.as_ref().len() < BTH_LEN {
            Err(Error::Truncated)
        } else {
            Ok(())
        }
    }

    /// Raw opcode byte.
    pub fn opcode_raw(&self) -> u8 {
        self.buffer.as_ref()[bth_fields::OPCODE]
    }

    /// Decoded opcode.
    pub fn opcode(&self) -> Result<Opcode> {
        Opcode::from_u8(self.opcode_raw())
    }

    /// Solicited Event bit.
    pub fn solicited(&self) -> bool {
        self.buffer.as_ref()[bth_fields::FLAGS] & 0x80 != 0
    }

    /// MigReq bit.
    pub fn migration(&self) -> bool {
        self.buffer.as_ref()[bth_fields::FLAGS] & 0x40 != 0
    }

    /// Pad count (bytes of payload padding to a 4-byte boundary).
    pub fn pad_count(&self) -> u8 {
        (self.buffer.as_ref()[bth_fields::FLAGS] >> 4) & 0x03
    }

    /// Transport header version.
    pub fn transport_version(&self) -> u8 {
        self.buffer.as_ref()[bth_fields::FLAGS] & 0x0F
    }

    /// Partition key.
    pub fn partition_key(&self) -> u16 {
        let raw = &self.buffer.as_ref()[bth_fields::PKEY];
        u16::from_be_bytes([raw[0], raw[1]])
    }

    /// The reserved byte masked in the iCRC.
    pub fn resv8a(&self) -> u8 {
        self.buffer.as_ref()[bth_fields::RESV8A]
    }

    /// Destination queue pair number (24 bits).
    pub fn dest_qp(&self) -> u32 {
        let raw = &self.buffer.as_ref()[bth_fields::DEST_QP];
        u32::from_be_bytes([0, raw[0], raw[1], raw[2]])
    }

    /// Ack-request bit.
    pub fn ack_request(&self) -> bool {
        self.buffer.as_ref()[bth_fields::ACK_PSN.start] & 0x80 != 0
    }

    /// Packet sequence number.
    pub fn psn(&self) -> Psn {
        let raw = &self.buffer.as_ref()[bth_fields::ACK_PSN];
        Psn::new(u32::from_be_bytes([0, raw[1], raw[2], raw[3]]))
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Bth<T> {
    /// Set the opcode.
    pub fn set_opcode(&mut self, opcode: Opcode) {
        self.buffer.as_mut()[bth_fields::OPCODE] = opcode.to_u8();
    }

    /// Set SE, M, pad count and transport version.
    pub fn set_flags(&mut self, solicited: bool, migration: bool, pad_count: u8, tver: u8) {
        let mut b = 0u8;
        if solicited {
            b |= 0x80;
        }
        if migration {
            b |= 0x40;
        }
        b |= (pad_count & 0x03) << 4;
        b |= tver & 0x0F;
        self.buffer.as_mut()[bth_fields::FLAGS] = b;
    }

    /// Set the partition key.
    pub fn set_partition_key(&mut self, pkey: u16) {
        self.buffer.as_mut()[bth_fields::PKEY].copy_from_slice(&pkey.to_be_bytes());
    }

    /// Clear the reserved byte.
    pub fn set_resv8a(&mut self, value: u8) {
        self.buffer.as_mut()[bth_fields::RESV8A] = value;
    }

    /// Set the destination queue pair number (24 bits).
    pub fn set_dest_qp(&mut self, qpn: u32) {
        let raw = qpn.to_be_bytes();
        self.buffer.as_mut()[bth_fields::DEST_QP].copy_from_slice(&raw[1..4]);
    }

    /// Set the ack-request bit and PSN.
    pub fn set_ack_psn(&mut self, ack_request: bool, psn: Psn) {
        let mut raw = psn.value().to_be_bytes();
        raw[0] = 0;
        if ack_request {
            raw[0] |= 0x80;
        }
        self.buffer.as_mut()[bth_fields::ACK_PSN].copy_from_slice(&raw);
    }
}

/// Owned representation of a BTH.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BthRepr {
    /// Transport opcode.
    pub opcode: Opcode,
    /// Solicited Event bit.
    pub solicited: bool,
    /// MigReq bit (conventionally set on RoCE).
    pub migration: bool,
    /// Payload pad bytes (0–3).
    pub pad_count: u8,
    /// Partition key; `0xffff` is the default partition.
    pub partition_key: u16,
    /// Destination QP number (24 bits).
    pub dest_qp: u32,
    /// Ack-request bit.
    pub ack_request: bool,
    /// Packet sequence number.
    pub psn: u32,
}

impl BthRepr {
    /// Parse a BTH view.
    pub fn parse<T: AsRef<[u8]>>(bth: &Bth<T>) -> Result<BthRepr> {
        bth.check_len()?;
        if bth.transport_version() != 0 {
            return Err(Error::Malformed);
        }
        Ok(BthRepr {
            opcode: bth.opcode()?,
            solicited: bth.solicited(),
            migration: bth.migration(),
            pad_count: bth.pad_count(),
            partition_key: bth.partition_key(),
            dest_qp: bth.dest_qp(),
            ack_request: bth.ack_request(),
            psn: bth.psn().value(),
        })
    }

    /// Length of the emitted header.
    pub const fn buffer_len(&self) -> usize {
        BTH_LEN
    }

    /// Emit into a view.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, bth: &mut Bth<T>) {
        bth.set_opcode(self.opcode);
        bth.set_flags(self.solicited, self.migration, self.pad_count, 0);
        bth.set_partition_key(self.partition_key);
        bth.set_resv8a(0);
        bth.set_dest_qp(self.dest_qp & 0x00FF_FFFF);
        bth.set_ack_psn(self.ack_request, Psn::new(self.psn));
    }
}

mod reth_fields {
    use super::Field;
    pub const VA: Field = 0..8;
    pub const RKEY: Field = 8..12;
    pub const DMA_LEN: Field = 12..16;
}

/// Owned representation of an RDMA Extended Transport Header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RethRepr {
    /// Remote virtual address to write.
    pub virtual_addr: u64,
    /// Remote key authorizing access to the memory region.
    pub rkey: u32,
    /// DMA length in bytes.
    pub dma_len: u32,
}

impl RethRepr {
    /// Parse from a byte slice.
    pub fn parse(data: &[u8]) -> Result<RethRepr> {
        if data.len() < RETH_LEN {
            return Err(Error::Truncated);
        }
        Ok(RethRepr {
            virtual_addr: u64::from_be_bytes(data[reth_fields::VA].try_into().unwrap()),
            rkey: u32::from_be_bytes(data[reth_fields::RKEY].try_into().unwrap()),
            dma_len: u32::from_be_bytes(data[reth_fields::DMA_LEN].try_into().unwrap()),
        })
    }

    /// Length of the emitted header.
    pub const fn buffer_len(&self) -> usize {
        RETH_LEN
    }

    /// Emit into a byte slice.
    ///
    /// # Panics
    /// Panics if `data` is shorter than [`RETH_LEN`].
    pub fn emit(&self, data: &mut [u8]) {
        data[reth_fields::VA].copy_from_slice(&self.virtual_addr.to_be_bytes());
        data[reth_fields::RKEY].copy_from_slice(&self.rkey.to_be_bytes());
        data[reth_fields::DMA_LEN].copy_from_slice(&self.dma_len.to_be_bytes());
    }
}

mod atomic_fields {
    use super::Field;
    pub const VA: Field = 0..8;
    pub const RKEY: Field = 8..12;
    pub const SWAP_ADD: Field = 12..20;
    pub const COMPARE: Field = 20..28;
}

/// Owned representation of an Atomic Extended Transport Header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicEthRepr {
    /// Remote virtual address (must be 8-byte aligned).
    pub virtual_addr: u64,
    /// Remote key.
    pub rkey: u32,
    /// Swap value (COMPARE_SWAP) or addend (FETCH_ADD).
    pub swap_or_add: u64,
    /// Compare value (COMPARE_SWAP only).
    pub compare: u64,
}

impl AtomicEthRepr {
    /// Parse from a byte slice.
    pub fn parse(data: &[u8]) -> Result<AtomicEthRepr> {
        if data.len() < ATOMIC_ETH_LEN {
            return Err(Error::Truncated);
        }
        Ok(AtomicEthRepr {
            virtual_addr: u64::from_be_bytes(data[atomic_fields::VA].try_into().unwrap()),
            rkey: u32::from_be_bytes(data[atomic_fields::RKEY].try_into().unwrap()),
            swap_or_add: u64::from_be_bytes(data[atomic_fields::SWAP_ADD].try_into().unwrap()),
            compare: u64::from_be_bytes(data[atomic_fields::COMPARE].try_into().unwrap()),
        })
    }

    /// Length of the emitted header.
    pub const fn buffer_len(&self) -> usize {
        ATOMIC_ETH_LEN
    }

    /// Emit into a byte slice.
    ///
    /// # Panics
    /// Panics if `data` is shorter than [`ATOMIC_ETH_LEN`].
    pub fn emit(&self, data: &mut [u8]) {
        data[atomic_fields::VA].copy_from_slice(&self.virtual_addr.to_be_bytes());
        data[atomic_fields::RKEY].copy_from_slice(&self.rkey.to_be_bytes());
        data[atomic_fields::SWAP_ADD].copy_from_slice(&self.swap_or_add.to_be_bytes());
        data[atomic_fields::COMPARE].copy_from_slice(&self.compare.to_be_bytes());
    }
}

/// AETH syndrome values (simplified to the cases DART uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Syndrome {
    /// Positive acknowledgement.
    Ack,
    /// Negative acknowledgement: PSN sequence error.
    NakSequenceError,
    /// Negative acknowledgement: remote access error.
    NakRemoteAccessError,
}

impl Syndrome {
    fn to_u8(self) -> u8 {
        match self {
            Syndrome::Ack => 0x00,
            Syndrome::NakSequenceError => 0x60,
            Syndrome::NakRemoteAccessError => 0x62,
        }
    }

    fn from_u8(raw: u8) -> Result<Syndrome> {
        match raw {
            0x00 => Ok(Syndrome::Ack),
            0x60 => Ok(Syndrome::NakSequenceError),
            0x62 => Ok(Syndrome::NakRemoteAccessError),
            _ => Err(Error::Malformed),
        }
    }
}

/// Owned representation of an ACK Extended Transport Header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AethRepr {
    /// ACK/NAK syndrome.
    pub syndrome: Syndrome,
    /// Message sequence number (24 bits).
    pub msn: u32,
}

impl AethRepr {
    /// Parse from a byte slice.
    pub fn parse(data: &[u8]) -> Result<AethRepr> {
        if data.len() < AETH_LEN {
            return Err(Error::Truncated);
        }
        Ok(AethRepr {
            syndrome: Syndrome::from_u8(data[0])?,
            msn: u32::from_be_bytes([0, data[1], data[2], data[3]]),
        })
    }

    /// Length of the emitted header.
    pub const fn buffer_len(&self) -> usize {
        AETH_LEN
    }

    /// Emit into a byte slice.
    ///
    /// # Panics
    /// Panics if `data` is shorter than [`AETH_LEN`].
    pub fn emit(&self, data: &mut [u8]) {
        data[0] = self.syndrome.to_u8();
        let msn = self.msn.to_be_bytes();
        data[1..4].copy_from_slice(&msn[1..4]);
    }
}

/// A fully parsed RoCEv2 transport packet (BTH + extension + payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoceRepr {
    /// One-sided RDMA WRITE carrying `payload` to `reth.virtual_addr`.
    Write {
        /// Base transport header.
        bth: BthRepr,
        /// RDMA extended transport header.
        reth: RethRepr,
        /// Bytes to DMA.
        payload: Vec<u8>,
    },
    /// Fetch & Add on a 64-bit word.
    FetchAdd {
        /// Base transport header.
        bth: BthRepr,
        /// Atomic extended transport header (`swap_or_add` is the addend).
        atomic: AtomicEthRepr,
    },
    /// Compare & Swap on a 64-bit word.
    CompareSwap {
        /// Base transport header.
        bth: BthRepr,
        /// Atomic extended transport header.
        atomic: AtomicEthRepr,
    },
    /// Acknowledgement (RC only).
    Ack {
        /// Base transport header.
        bth: BthRepr,
        /// ACK extended transport header.
        aeth: AethRepr,
    },
    /// SEND carrying a control-plane payload.
    Send {
        /// Base transport header.
        bth: BthRepr,
        /// Message payload.
        payload: Vec<u8>,
    },
}

impl RoceRepr {
    /// The BTH common to all variants.
    pub fn bth(&self) -> &BthRepr {
        match self {
            RoceRepr::Write { bth, .. }
            | RoceRepr::FetchAdd { bth, .. }
            | RoceRepr::CompareSwap { bth, .. }
            | RoceRepr::Ack { bth, .. }
            | RoceRepr::Send { bth, .. } => bth,
        }
    }

    /// Parse an InfiniBand transport packet (UDP payload *without* the
    /// iCRC trailer — strip it first, see [`icrc`]), copying the payload
    /// out. Receive paths that only look at the packet should use
    /// [`RoceView::parse`], which this wraps.
    pub fn parse(data: &[u8]) -> Result<RoceRepr> {
        RoceView::parse(data).map(|view| view.to_repr())
    }

    /// Size of the emitted transport packet (excluding iCRC).
    pub fn buffer_len(&self) -> usize {
        match self {
            RoceRepr::Write { bth, payload, .. } => write_len(payload.len(), bth.pad_count),
            RoceRepr::FetchAdd { .. } | RoceRepr::CompareSwap { .. } => BTH_LEN + ATOMIC_ETH_LEN,
            RoceRepr::Ack { .. } => BTH_LEN + AETH_LEN,
            RoceRepr::Send { bth, payload } => BTH_LEN + payload.len() + usize::from(bth.pad_count),
        }
    }

    /// Emit the transport packet into `data` (excluding iCRC).
    ///
    /// # Panics
    /// Panics if `data` is shorter than [`RoceRepr::buffer_len`].
    pub fn emit(&self, data: &mut [u8]) {
        match self {
            RoceRepr::Write { bth, reth, payload } => {
                emit_write_headers(bth, reth, payload.len(), data).copy_from_slice(payload);
            }
            RoceRepr::FetchAdd { bth, atomic } | RoceRepr::CompareSwap { bth, atomic } => {
                bth.emit(&mut Bth::new_unchecked(&mut data[..BTH_LEN]));
                atomic.emit(&mut data[BTH_LEN..BTH_LEN + ATOMIC_ETH_LEN]);
            }
            RoceRepr::Ack { bth, aeth } => {
                bth.emit(&mut Bth::new_unchecked(&mut data[..BTH_LEN]));
                aeth.emit(&mut data[BTH_LEN..BTH_LEN + AETH_LEN]);
            }
            RoceRepr::Send { bth, payload } => {
                bth.emit(&mut Bth::new_unchecked(&mut data[..BTH_LEN]));
                data[BTH_LEN..BTH_LEN + payload.len()].copy_from_slice(payload);
                for b in &mut data
                    [BTH_LEN + payload.len()..BTH_LEN + payload.len() + usize::from(bth.pad_count)]
                {
                    *b = 0;
                }
            }
        }
    }

    /// Emit the transport packet followed by its iCRC, given the enclosing
    /// IPv4/UDP headers, returning the complete UDP payload.
    pub fn to_udp_payload(&self, ip_header: &[u8], udp_header: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; self.buffer_len() + ICRC_LEN];
        let body_len = self.buffer_len();
        self.emit(&mut out[..body_len]);
        let crc = icrc::compute(ip_header, udp_header, &out[..body_len]);
        out[body_len..].copy_from_slice(&crc.to_le_bytes());
        out
    }
}

/// Length of a WRITE transport packet carrying `payload_len` bytes plus
/// `pad_count` pad bytes (excluding the iCRC).
pub const fn write_len(payload_len: usize, pad_count: u8) -> usize {
    BTH_LEN + RETH_LEN + payload_len + pad_count as usize
}

/// Emit a WRITE's BTH and RETH into `data` and zero its pad bytes,
/// returning the `payload_len`-byte payload region between them so the
/// caller can encode the payload in place.
///
/// # Panics
/// Panics if `data` is shorter than [`write_len`] for this packet.
pub fn emit_write_headers<'d>(
    bth: &BthRepr,
    reth: &RethRepr,
    payload_len: usize,
    data: &'d mut [u8],
) -> &'d mut [u8] {
    bth.emit(&mut Bth::new_unchecked(&mut data[..BTH_LEN]));
    reth.emit(&mut data[BTH_LEN..BTH_LEN + RETH_LEN]);
    let start = BTH_LEN + RETH_LEN;
    let end = start + payload_len;
    data[end..end + usize::from(bth.pad_count)].fill(0);
    &mut data[start..end]
}

/// A parsed RoCEv2 transport packet whose payload stays borrowed from
/// the receive buffer — what a NIC parses per frame. [`RoceRepr`] is
/// the owned form; [`RoceView::to_repr`] converts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoceView<'a> {
    /// One-sided RDMA WRITE carrying `payload` to `reth.virtual_addr`.
    Write {
        /// Base transport header.
        bth: BthRepr,
        /// RDMA extended transport header.
        reth: RethRepr,
        /// Bytes to DMA (padding excluded).
        payload: &'a [u8],
    },
    /// Fetch & Add on a 64-bit word.
    FetchAdd {
        /// Base transport header.
        bth: BthRepr,
        /// Atomic extended transport header (`swap_or_add` is the addend).
        atomic: AtomicEthRepr,
    },
    /// Compare & Swap on a 64-bit word.
    CompareSwap {
        /// Base transport header.
        bth: BthRepr,
        /// Atomic extended transport header.
        atomic: AtomicEthRepr,
    },
    /// Acknowledgement (RC only).
    Ack {
        /// Base transport header.
        bth: BthRepr,
        /// ACK extended transport header.
        aeth: AethRepr,
    },
    /// SEND carrying a control-plane payload.
    Send {
        /// Base transport header.
        bth: BthRepr,
        /// Message payload (padding excluded).
        payload: &'a [u8],
    },
}

impl<'a> RoceView<'a> {
    /// Parse an InfiniBand transport packet (UDP payload *without* the
    /// iCRC trailer — strip it first, see [`icrc`]) without copying.
    pub fn parse(data: &'a [u8]) -> Result<RoceView<'a>> {
        let bth_view = Bth::new_checked(data)?;
        let bth = BthRepr::parse(&bth_view)?;
        let rest = &data[BTH_LEN..];
        let pad = usize::from(bth.pad_count);
        match bth.opcode {
            op if op.has_reth() => {
                let reth = RethRepr::parse(rest)?;
                let payload_raw = &rest[RETH_LEN..];
                if payload_raw.len() < pad {
                    return Err(Error::Truncated);
                }
                let payload = &payload_raw[..payload_raw.len() - pad];
                if payload.len() != reth.dma_len as usize {
                    return Err(Error::Malformed);
                }
                Ok(RoceView::Write { bth, reth, payload })
            }
            Opcode::RcFetchAdd => Ok(RoceView::FetchAdd {
                bth,
                atomic: AtomicEthRepr::parse(rest)?,
            }),
            Opcode::RcCompareSwap => Ok(RoceView::CompareSwap {
                bth,
                atomic: AtomicEthRepr::parse(rest)?,
            }),
            op if op.has_aeth() => Ok(RoceView::Ack {
                bth,
                aeth: AethRepr::parse(rest)?,
            }),
            Opcode::UcSendOnly => {
                if rest.len() < pad {
                    return Err(Error::Truncated);
                }
                Ok(RoceView::Send {
                    bth,
                    payload: &rest[..rest.len() - pad],
                })
            }
            _ => Err(Error::Malformed),
        }
    }

    /// The BTH common to all variants.
    pub fn bth(&self) -> &BthRepr {
        match self {
            RoceView::Write { bth, .. }
            | RoceView::FetchAdd { bth, .. }
            | RoceView::CompareSwap { bth, .. }
            | RoceView::Ack { bth, .. }
            | RoceView::Send { bth, .. } => bth,
        }
    }

    /// The owned form, copying any payload.
    pub fn to_repr(&self) -> RoceRepr {
        match *self {
            RoceView::Write { bth, reth, payload } => RoceRepr::Write {
                bth,
                reth,
                payload: payload.to_vec(),
            },
            RoceView::FetchAdd { bth, atomic } => RoceRepr::FetchAdd { bth, atomic },
            RoceView::CompareSwap { bth, atomic } => RoceRepr::CompareSwap { bth, atomic },
            RoceView::Ack { bth, aeth } => RoceRepr::Ack { bth, aeth },
            RoceView::Send { bth, payload } => RoceRepr::Send {
                bth,
                payload: payload.to_vec(),
            },
        }
    }
}

pub mod icrc {
    //! RoCEv2 invariant CRC computation.
    //!
    //! Covers the IPv4 header, UDP header and IB transport packet with
    //! variant fields masked to ones, preceded by eight `0xFF` bytes that
    //! stand in for the masked LRH of native InfiniBand.

    use super::*;

    /// Compute the iCRC.
    ///
    /// * `ip_header` — the 20-byte IPv4 header as it appears on the wire.
    /// * `udp_header` — the 8-byte UDP header.
    /// * `ib_packet` — BTH through payload, *excluding* the iCRC trailer.
    ///
    /// # Panics
    /// Panics if the headers are shorter than their fixed sizes.
    pub fn compute(ip_header: &[u8], udp_header: &[u8], ib_packet: &[u8]) -> u32 {
        assert!(ip_header.len() >= ipv4::HEADER_LEN, "short IPv4 header");
        assert!(udp_header.len() >= udp::HEADER_LEN, "short UDP header");
        assert!(ib_packet.len() >= BTH_LEN, "short IB packet");

        let engine = Crc32::ieee();
        let mut digest = engine.digest();

        // Masked LRH stand-in.
        digest.update(&[0xFF; 8]);

        // IPv4 header with TOS, TTL and checksum masked.
        let mut ip = [0u8; ipv4::HEADER_LEN];
        ip.copy_from_slice(&ip_header[..ipv4::HEADER_LEN]);
        ip[1] = 0xFF; // TOS (DSCP + ECN)
        ip[8] = 0xFF; // TTL
        ip[10] = 0xFF; // header checksum
        ip[11] = 0xFF;
        digest.update(&ip);

        // UDP header with the checksum masked.
        let mut udph = [0u8; udp::HEADER_LEN];
        udph.copy_from_slice(&udp_header[..udp::HEADER_LEN]);
        udph[6] = 0xFF;
        udph[7] = 0xFF;
        digest.update(&udph);

        // BTH with resv8a masked, then the rest verbatim.
        let mut bth = [0u8; BTH_LEN];
        bth.copy_from_slice(&ib_packet[..BTH_LEN]);
        bth[4] = 0xFF;
        digest.update(&bth);
        digest.update(&ib_packet[BTH_LEN..]);

        digest.finalize()
    }

    /// Verify the iCRC of a complete UDP payload (IB packet + trailer).
    pub fn verify(ip_header: &[u8], udp_header: &[u8], udp_payload: &[u8]) -> Result<()> {
        if udp_payload.len() < BTH_LEN + ICRC_LEN {
            return Err(Error::Truncated);
        }
        let (body, trailer) = udp_payload.split_at(udp_payload.len() - ICRC_LEN);
        let expected = compute(ip_header, udp_header, body);
        let actual = u32::from_le_bytes(trailer.try_into().unwrap());
        if expected == actual {
            Ok(())
        } else {
            Err(Error::Checksum)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bth() -> BthRepr {
        BthRepr {
            opcode: Opcode::UcRdmaWriteOnly,
            solicited: false,
            migration: true,
            pad_count: 0,
            partition_key: 0xFFFF,
            dest_qp: 0x0001_0203,
            ack_request: false,
            psn: 0x00AB_CDEF,
        }
    }

    #[test]
    fn bth_roundtrip() {
        let repr = bth();
        let mut buf = [0u8; BTH_LEN];
        repr.emit(&mut Bth::new_unchecked(&mut buf[..]));
        let parsed = BthRepr::parse(&Bth::new_checked(&buf[..]).unwrap()).unwrap();
        assert_eq!(parsed, repr);
    }

    #[test]
    fn bth_field_extremes() {
        let mut repr = bth();
        repr.pad_count = 3;
        repr.solicited = true;
        repr.ack_request = true;
        repr.psn = Psn::MODULUS - 1;
        repr.dest_qp = 0x00FF_FFFF;
        let mut buf = [0u8; BTH_LEN];
        repr.emit(&mut Bth::new_unchecked(&mut buf[..]));
        let parsed = BthRepr::parse(&Bth::new_checked(&buf[..]).unwrap()).unwrap();
        assert_eq!(parsed, repr);
    }

    #[test]
    fn bth_rejects_bad_tver() {
        let repr = bth();
        let mut buf = [0u8; BTH_LEN];
        repr.emit(&mut Bth::new_unchecked(&mut buf[..]));
        buf[1] |= 0x05; // tver = 5
        assert_eq!(
            BthRepr::parse(&Bth::new_checked(&buf[..]).unwrap()),
            Err(Error::Malformed)
        );
    }

    #[test]
    fn reth_roundtrip() {
        let repr = RethRepr {
            virtual_addr: 0x0000_7F00_DEAD_BEE0,
            rkey: 0x1234_5678,
            dma_len: 24,
        };
        let mut buf = [0u8; RETH_LEN];
        repr.emit(&mut buf);
        assert_eq!(RethRepr::parse(&buf).unwrap(), repr);
    }

    #[test]
    fn atomic_eth_roundtrip() {
        let repr = AtomicEthRepr {
            virtual_addr: 0x1000,
            rkey: 7,
            swap_or_add: u64::MAX,
            compare: 0,
        };
        let mut buf = [0u8; ATOMIC_ETH_LEN];
        repr.emit(&mut buf);
        assert_eq!(AtomicEthRepr::parse(&buf).unwrap(), repr);
    }

    #[test]
    fn aeth_roundtrip() {
        for syndrome in [
            Syndrome::Ack,
            Syndrome::NakSequenceError,
            Syndrome::NakRemoteAccessError,
        ] {
            let repr = AethRepr { syndrome, msn: 99 };
            let mut buf = [0u8; AETH_LEN];
            repr.emit(&mut buf);
            assert_eq!(AethRepr::parse(&buf).unwrap(), repr);
        }
    }

    #[test]
    fn write_packet_roundtrip() {
        let repr = RoceRepr::Write {
            bth: bth(),
            reth: RethRepr {
                virtual_addr: 0x2000,
                rkey: 42,
                dma_len: 8,
            },
            payload: b"\x01\x02\x03\x04\x05\x06\x07\x08".to_vec(),
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        assert_eq!(RoceRepr::parse(&buf).unwrap(), repr);
    }

    #[test]
    fn write_packet_with_padding() {
        let mut header = bth();
        header.pad_count = 2;
        let repr = RoceRepr::Write {
            bth: header,
            reth: RethRepr {
                virtual_addr: 0x2000,
                rkey: 42,
                dma_len: 6,
            },
            payload: b"\x01\x02\x03\x04\x05\x06".to_vec(),
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        assert_eq!(buf.len() % 4, 0);
        assert_eq!(RoceRepr::parse(&buf).unwrap(), repr);
    }

    #[test]
    fn dma_len_mismatch_rejected() {
        let repr = RoceRepr::Write {
            bth: bth(),
            reth: RethRepr {
                virtual_addr: 0x2000,
                rkey: 42,
                dma_len: 100, // lies about the payload length
            },
            payload: b"\x01\x02\x03\x04".to_vec(),
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        // Emit raw parts manually to bypass the invariant.
        if let RoceRepr::Write { bth, reth, payload } = &repr {
            bth.emit(&mut Bth::new_unchecked(&mut buf[..BTH_LEN]));
            reth.emit(&mut buf[BTH_LEN..BTH_LEN + RETH_LEN]);
            buf[BTH_LEN + RETH_LEN..].copy_from_slice(payload);
        }
        assert_eq!(RoceRepr::parse(&buf), Err(Error::Malformed));
    }

    #[test]
    fn atomic_packets_roundtrip() {
        let mut header = bth();
        header.opcode = Opcode::RcFetchAdd;
        let fa = RoceRepr::FetchAdd {
            bth: header,
            atomic: AtomicEthRepr {
                virtual_addr: 0x4000,
                rkey: 3,
                swap_or_add: 1,
                compare: 0,
            },
        };
        let mut buf = vec![0u8; fa.buffer_len()];
        fa.emit(&mut buf);
        assert_eq!(RoceRepr::parse(&buf).unwrap(), fa);

        let mut header = bth();
        header.opcode = Opcode::RcCompareSwap;
        let cs = RoceRepr::CompareSwap {
            bth: header,
            atomic: AtomicEthRepr {
                virtual_addr: 0x4008,
                rkey: 3,
                swap_or_add: 0xAAAA,
                compare: 0,
            },
        };
        let mut buf = vec![0u8; cs.buffer_len()];
        cs.emit(&mut buf);
        assert_eq!(RoceRepr::parse(&buf).unwrap(), cs);
    }

    #[test]
    fn psn_arithmetic() {
        let p = Psn::new(Psn::MODULUS - 1);
        assert_eq!(p.next(), Psn::new(0));
        assert_eq!(Psn::new(5).distance(Psn::new(3)), 2);
        assert_eq!(Psn::new(3).distance(Psn::new(5)), -2);
        // Wrap-around distance.
        assert_eq!(Psn::new(1).distance(Psn::new(Psn::MODULUS - 1)), 2);
        assert_eq!(Psn::new(Psn::MODULUS - 1).distance(Psn::new(1)), -2);
    }

    fn headers() -> ([u8; ipv4::HEADER_LEN], [u8; udp::HEADER_LEN]) {
        let ip_repr = ipv4::Repr {
            src_addr: ipv4::Address::new(10, 0, 0, 1),
            dst_addr: ipv4::Address::new(10, 0, 0, 2),
            protocol: ipv4::Protocol::Udp,
            payload_len: 64,
            ttl: 64,
            tos: 0,
        };
        let mut ip = [0u8; ipv4::HEADER_LEN + 64];
        ip_repr.emit(&mut ipv4::Packet::new_unchecked(&mut ip[..]));
        let mut ip_hdr = [0u8; ipv4::HEADER_LEN];
        ip_hdr.copy_from_slice(&ip[..ipv4::HEADER_LEN]);

        let udp_repr = udp::Repr {
            src_port: 49152,
            dst_port: udp::ROCEV2_PORT,
            payload_len: 56,
        };
        let mut udp_buf = [0u8; udp::HEADER_LEN];
        udp_repr.emit(&mut udp::Datagram::new_unchecked(&mut udp_buf[..]));
        (ip_hdr, udp_buf)
    }

    #[test]
    fn icrc_roundtrip() {
        let (ip, udph) = headers();
        let repr = RoceRepr::Write {
            bth: bth(),
            reth: RethRepr {
                virtual_addr: 0x2000,
                rkey: 42,
                dma_len: 8,
            },
            payload: vec![9; 8],
        };
        let payload = repr.to_udp_payload(&ip, &udph);
        assert!(icrc::verify(&ip, &udph, &payload).is_ok());
    }

    #[test]
    fn icrc_detects_payload_corruption() {
        let (ip, udph) = headers();
        let repr = RoceRepr::Write {
            bth: bth(),
            reth: RethRepr {
                virtual_addr: 0x2000,
                rkey: 42,
                dma_len: 8,
            },
            payload: vec![9; 8],
        };
        let mut payload = repr.to_udp_payload(&ip, &udph);
        payload[BTH_LEN + RETH_LEN] ^= 0xFF;
        assert_eq!(icrc::verify(&ip, &udph, &payload), Err(Error::Checksum));
    }

    #[test]
    fn icrc_invariant_under_variant_fields() {
        // Mutating TTL, TOS, IP checksum and UDP checksum must not change
        // the iCRC — that is what makes it "invariant".
        let (mut ip, mut udph) = headers();
        let repr = RoceRepr::Write {
            bth: bth(),
            reth: RethRepr {
                virtual_addr: 0x2000,
                rkey: 42,
                dma_len: 8,
            },
            payload: vec![7; 8],
        };
        let payload = repr.to_udp_payload(&ip, &udph);
        ip[1] = 0x22; // TOS
        ip[8] = 1; // TTL decremented along the path
        ip[10] = 0xAB; // stale checksum
        ip[11] = 0xCD;
        udph[6] = 0x11;
        udph[7] = 0x22;
        assert!(icrc::verify(&ip, &udph, &payload).is_ok());
    }

    #[test]
    fn icrc_rejects_short_payload() {
        let (ip, udph) = headers();
        assert_eq!(icrc::verify(&ip, &udph, &[0u8; 8]), Err(Error::Truncated));
    }

    #[test]
    fn opcode_conversions() {
        for op in [
            Opcode::RcRdmaWriteOnly,
            Opcode::RcCompareSwap,
            Opcode::RcFetchAdd,
            Opcode::RcAcknowledge,
            Opcode::RcAtomicAcknowledge,
            Opcode::UcRdmaWriteOnly,
            Opcode::UcSendOnly,
        ] {
            assert_eq!(Opcode::from_u8(op.to_u8()).unwrap(), op);
        }
        assert_eq!(Opcode::from_u8(0xFF), Err(Error::Malformed));
        assert!(Opcode::UcRdmaWriteOnly.is_unreliable());
        assert!(!Opcode::RcRdmaWriteOnly.is_unreliable());
    }
}
