//! The RNIC receive pipeline: parse → validate → DMA, no CPU involved.
//!
//! [`RNic::handle_frame`] is the whole "zero-CPU collection" story in one
//! function. It performs, in order, exactly the checks a real RoCEv2 HCA
//! performs in hardware:
//!
//! 1. Ethernet destination + EtherType, IPv4 header checksum and
//!    destination address, UDP port 4791;
//! 2. the invariant CRC over the transport packet ([`dta_wire::roce::icrc`]);
//! 3. queue-pair lookup and receive-side PSN processing
//!    ([`crate::qp::QueuePair`]);
//! 4. rkey lookup, bounds and permission checks on the target memory
//!    region;
//! 5. the DMA itself: WRITE payloads land verbatim, FETCH_ADD and
//!    COMPARE_SWAP execute atomically (RC only, with ACKs).
//!
//! Malformed or unauthorized packets are *dropped and counted*, never
//! escalated — a NIC has nobody to complain to, and DART's probabilistic
//! store is explicitly designed to tolerate missing writes (§3).

use std::collections::VecDeque;

use dta_wire::{ethernet, ipv4, roce, udp};

use crate::id_table::IdTable;
use crate::mr::{AccessError, AccessKind, CommitKind, MemoryRegion};
use crate::qp::{PsnVerdict, QueuePair, Transport};

/// Bounded retries for the FETCH_ADD compare-swap commit loop before
/// falling back to the region's native fetch-add. Real HCAs serialize
/// atomics in the PCIe complex; the emulation models the same
/// read-modify-write as optimistic CAS with a small retry budget.
const FETCH_ADD_CAS_RETRIES: usize = 8;

/// Why a frame was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Not addressed to this NIC (MAC or IP).
    NotForUs,
    /// Could not be parsed at some layer.
    Malformed,
    /// IPv4 header checksum failed.
    IpChecksum,
    /// Not UDP port 4791.
    NotRoce,
    /// Invariant CRC mismatch.
    Icrc,
    /// No queue pair with the packet's destination QPN.
    QpNotFound,
    /// Opcode transport class does not match the QP's transport.
    TransportMismatch,
    /// PSN processing rejected the packet (duplicate / out-of-sequence).
    Psn,
    /// Unknown rkey.
    BadRkey,
    /// Memory region refused the access (bounds / permission / alignment).
    AccessViolation,
    /// The destination collector host is down (injected crash fault);
    /// emitted by the cluster fabric, never by a NIC itself.
    CollectorDown,
    /// The destination NIC is silently discarding frames (injected
    /// blackhole fault); emitted by the cluster fabric.
    Blackholed,
    /// Lost on a degraded (high-loss) last-hop link (injected fault);
    /// emitted by the cluster fabric.
    DegradedLink,
}

impl DropReason {
    /// Every variant, in pipeline order. Consumers that enumerate drop
    /// reasons (histograms, metric registries) must iterate this const
    /// instead of hand-listing variants; `tests` pins its completeness
    /// with an exhaustive match so adding a variant without extending
    /// `ALL` fails to compile the test suite.
    pub const ALL: [DropReason; 13] = [
        DropReason::NotForUs,
        DropReason::Malformed,
        DropReason::IpChecksum,
        DropReason::NotRoce,
        DropReason::Icrc,
        DropReason::QpNotFound,
        DropReason::TransportMismatch,
        DropReason::Psn,
        DropReason::BadRkey,
        DropReason::AccessViolation,
        DropReason::CollectorDown,
        DropReason::Blackholed,
        DropReason::DegradedLink,
    ];

    /// A stable snake_case name for counters, exporters and event logs.
    pub fn name(&self) -> &'static str {
        match self {
            DropReason::NotForUs => "not_for_us",
            DropReason::Malformed => "malformed",
            DropReason::IpChecksum => "ip_checksum",
            DropReason::NotRoce => "not_roce",
            DropReason::Icrc => "icrc",
            DropReason::QpNotFound => "qp_not_found",
            DropReason::TransportMismatch => "transport_mismatch",
            DropReason::Psn => "psn",
            DropReason::BadRkey => "bad_rkey",
            DropReason::AccessViolation => "access_violation",
            DropReason::CollectorDown => "collector_down",
            DropReason::Blackholed => "blackholed",
            DropReason::DegradedLink => "degraded_link",
        }
    }
}

/// Host-side API errors (not packet drops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicError {
    /// An rkey is already registered.
    DuplicateRkey(u32),
    /// A QPN is already in use.
    DuplicateQpn(u32),
    /// Referenced QP does not exist.
    UnknownQpn(u32),
    /// Referenced memory region does not exist.
    UnknownRkey(u32),
    /// A host-side access fell outside the region's bounds.
    OutOfRegion,
}

impl core::fmt::Display for NicError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NicError::DuplicateRkey(k) => write!(f, "rkey {k:#x} already registered"),
            NicError::DuplicateQpn(q) => write!(f, "qpn {q:#x} already in use"),
            NicError::UnknownQpn(q) => write!(f, "unknown qpn {q:#x}"),
            NicError::UnknownRkey(k) => write!(f, "unknown rkey {k:#x}"),
            NicError::OutOfRegion => write!(f, "host access outside region bounds"),
        }
    }
}

impl std::error::Error for NicError {}

/// What the NIC did with a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RxAction {
    /// A WRITE payload was DMA'd.
    WriteExecuted {
        /// Target rkey.
        rkey: u32,
        /// Target virtual address.
        va: u64,
        /// Bytes written.
        len: usize,
        /// Whether the target range was all-zero before the DMA (first
        /// report into the slot) as opposed to overwriting an earlier
        /// report.
        fresh: bool,
    },
    /// An atomic executed; `original` is the value before the operation.
    AtomicExecuted {
        /// Value at the target address before the atomic.
        original: u64,
    },
    /// A SEND payload was delivered to the control-plane inbox.
    SendDelivered {
        /// Payload length.
        len: usize,
    },
    /// The frame was dropped.
    Dropped(DropReason),
}

/// Result of processing one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxOutcome {
    /// What happened.
    pub action: RxAction,
    /// A response to transmit (RC ACK/NAK), if any.
    pub response: Option<Response>,
}

/// An RC ACK/NAK the NIC owes the requester.
///
/// The response is described, not serialized: its frame is built only
/// when a transmit path asks for it ([`Response::to_frame`]), so
/// executing an ACK-requesting atomic allocates nothing. DART switches
/// fire and forget their FETCH_ADDs (§6), so in the pipeline nobody does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// The responding NIC's MAC (frame source).
    pub src_mac: ethernet::Address,
    /// The responding NIC's IP.
    pub src_ip: ipv4::Address,
    /// The requester's MAC.
    pub dst_mac: ethernet::Address,
    /// The requester's IP.
    pub dst_ip: ipv4::Address,
    /// The response's UDP source port: the requester's source port,
    /// echoed (the destination port is RoCEv2's 4791 both ways).
    pub udp_src_port: u16,
    /// The requester's QPN.
    pub dest_qp: u32,
    /// The PSN being acknowledged.
    pub psn: u32,
    /// ACK or NAK.
    pub syndrome: roce::Syndrome,
}

impl Response {
    /// Serialize the ACK/NAK as a complete RoCEv2 frame.
    pub fn to_frame(&self) -> Vec<u8> {
        let ack = roce::RoceRepr::Ack {
            bth: roce::BthRepr {
                opcode: roce::Opcode::RcAcknowledge,
                solicited: false,
                migration: true,
                pad_count: 0,
                partition_key: 0xFFFF,
                dest_qp: self.dest_qp,
                ack_request: false,
                psn: self.psn,
            },
            aeth: roce::AethRepr {
                syndrome: self.syndrome,
                msn: 0,
            },
        };
        build_roce_frame(
            self.src_mac,
            self.dst_mac,
            self.src_ip,
            self.dst_ip,
            self.udp_src_port,
            &ack,
        )
    }
}

impl RxOutcome {
    fn drop(reason: DropReason) -> RxOutcome {
        RxOutcome {
            action: RxAction::Dropped(reason),
            response: None,
        }
    }
}

/// Receive-path counters (one per drop reason plus per executed op).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicCounters {
    /// Frames handed to the NIC.
    pub frames_rx: u64,
    /// RDMA WRITEs executed.
    pub writes: u64,
    /// WRITEs that landed in a previously all-zero target range
    /// (first report into the slot).
    pub writes_fresh: u64,
    /// WRITEs that overwrote non-zero bytes (newer report, or a
    /// colliding key, replacing an older one — §4's overwrite model).
    pub writes_overwritten: u64,
    /// Payload bytes DMA'd by WRITEs.
    pub write_bytes: u64,
    /// WRITEs that landed in a region registered with
    /// [`CommitKind::Append`] — ring-entry commits. A subset of
    /// `writes`, so the fresh/overwritten identities still hold.
    pub appends: u64,
    /// FETCH_ADD operations executed.
    pub fetch_adds: u64,
    /// COMPARE_SWAP operations executed.
    pub compare_swaps: u64,
    /// SENDs delivered to the inbox.
    pub sends: u64,
    /// ACK/NAK responses generated.
    pub responses: u64,
    /// Frames not addressed to us.
    pub not_for_us: u64,
    /// Parse failures.
    pub malformed: u64,
    /// IPv4 checksum failures.
    pub ip_checksum: u64,
    /// Non-RoCE UDP traffic.
    pub not_roce: u64,
    /// iCRC failures.
    pub icrc: u64,
    /// Unknown destination QPN.
    pub qp_not_found: u64,
    /// Transport class mismatches.
    pub transport_mismatch: u64,
    /// PSN rejections.
    pub psn: u64,
    /// Unknown rkey.
    pub bad_rkey: u64,
    /// Bounds/permission/alignment violations.
    pub access_violations: u64,
}

impl NicCounters {
    /// Total dropped frames.
    pub fn dropped(&self) -> u64 {
        DropReason::ALL.iter().map(|&r| self.count(r)).sum()
    }

    /// The drop counter for `reason`. The match is exhaustive on
    /// purpose: adding a `DropReason` variant without deciding where it
    /// is counted becomes a compile error here. The fabric-emitted
    /// reasons (`CollectorDown`/`Blackholed`/`DegradedLink`) never
    /// reach a NIC, so their NIC-side count is zero by construction —
    /// `dta-collector`'s `FaultDrops` owns those.
    pub fn count(&self, reason: DropReason) -> u64 {
        match reason {
            DropReason::NotForUs => self.not_for_us,
            DropReason::Malformed => self.malformed,
            DropReason::IpChecksum => self.ip_checksum,
            DropReason::NotRoce => self.not_roce,
            DropReason::Icrc => self.icrc,
            DropReason::QpNotFound => self.qp_not_found,
            DropReason::TransportMismatch => self.transport_mismatch,
            DropReason::Psn => self.psn,
            DropReason::BadRkey => self.bad_rkey,
            DropReason::AccessViolation => self.access_violations,
            DropReason::CollectorDown | DropReason::Blackholed | DropReason::DegradedLink => 0,
        }
    }
}

/// A simulated RDMA NIC.
pub struct RNic {
    mac: ethernet::Address,
    ip: ipv4::Address,
    /// Memory regions by rkey, queue pairs by QPN: both direct-indexed,
    /// since the verbs layer allocates rkeys and QPNs sequentially.
    mrs: IdTable<MemoryRegion>,
    qps: IdTable<QueuePair>,
    inbox: VecDeque<Vec<u8>>,
    counters: NicCounters,
    /// When false, skip iCRC validation (some deployments offload it).
    pub validate_icrc: bool,
}

impl RNic {
    /// Create a NIC with the given link-layer and IP addresses.
    pub fn new(mac: ethernet::Address, ip: ipv4::Address) -> RNic {
        RNic {
            mac,
            ip,
            mrs: IdTable::new(),
            qps: IdTable::new(),
            inbox: VecDeque::new(),
            counters: NicCounters::default(),
            validate_icrc: true,
        }
    }

    /// The NIC's MAC address.
    pub fn mac(&self) -> ethernet::Address {
        self.mac
    }

    /// The NIC's IP address.
    pub fn ip(&self) -> ipv4::Address {
        self.ip
    }

    /// Receive counters.
    pub fn counters(&self) -> NicCounters {
        self.counters
    }

    /// Register a memory region; its rkey must be unique on this NIC.
    pub fn register_mr(&mut self, mr: MemoryRegion) -> Result<(), NicError> {
        if self.mrs.contains(mr.rkey()) {
            return Err(NicError::DuplicateRkey(mr.rkey()));
        }
        self.mrs.insert(mr.rkey(), mr);
        Ok(())
    }

    /// Look up a registered region.
    pub fn mr(&self, rkey: u32) -> Option<&MemoryRegion> {
        self.mrs.get(rkey)
    }

    /// Number of registered memory regions.
    pub fn registered_regions(&self) -> usize {
        self.mrs.len()
    }

    /// Host-side zeroing of `[va, va+len)` inside a registered region —
    /// how a collector tombstones a stranded failover slot after the
    /// recovery sweep's write-back is ACKed. This is the owning host
    /// writing its own memory (an ordinary cache-coherent store), so no
    /// remote-access permissions are consulted; only bounds are.
    pub fn host_zero(&self, rkey: u32, va: u64, len: usize) -> Result<(), NicError> {
        let mr = self.mrs.get(rkey).ok_or(NicError::UnknownRkey(rkey))?;
        mr.zero_range(va, len).map_err(|_| NicError::OutOfRegion)
    }

    /// Create a queue pair.
    pub fn create_qp(&mut self, qp: QueuePair) -> Result<(), NicError> {
        if self.qps.contains(qp.qpn()) {
            return Err(NicError::DuplicateQpn(qp.qpn()));
        }
        self.qps.insert(qp.qpn(), qp);
        Ok(())
    }

    /// Mutable access to a QP (for `modify_qp`-style transitions).
    pub fn qp_mut(&mut self, qpn: u32) -> Result<&mut QueuePair, NicError> {
        self.qps.get_mut(qpn).ok_or(NicError::UnknownQpn(qpn))
    }

    /// Re-handshake every queue pair (see [`QueuePair::resync`]): each
    /// adopts the PSN of the next packet it receives.
    pub fn resync_qps(&mut self) {
        for qp in self.qps.values_mut() {
            qp.resync();
        }
    }

    /// Immutable access to a QP.
    pub fn qp(&self, qpn: u32) -> Option<&QueuePair> {
        self.qps.get(qpn)
    }

    /// Pop the oldest control-plane SEND payload, if any.
    pub fn pop_send(&mut self) -> Option<Vec<u8>> {
        self.inbox.pop_front()
    }

    /// Return a SEND payload to the front of the inbox (used by protocol
    /// layers that peek at SENDs and pass non-matching ones through).
    pub fn push_send_back(&mut self, payload: Vec<u8>) {
        self.inbox.push_front(payload);
    }

    /// Process one Ethernet frame through the full receive pipeline.
    pub fn handle_frame(&mut self, frame: &[u8]) -> RxOutcome {
        self.counters.frames_rx += 1;

        // Layer 2.
        let eth = match ethernet::Frame::new_checked(frame) {
            Ok(eth) => eth,
            Err(_) => {
                self.counters.malformed += 1;
                return RxOutcome::drop(DropReason::Malformed);
            }
        };
        if eth.dst_addr() != self.mac && !eth.dst_addr().is_broadcast() {
            self.counters.not_for_us += 1;
            return RxOutcome::drop(DropReason::NotForUs);
        }
        if eth.ethertype() != ethernet::EtherType::Ipv4 {
            self.counters.not_roce += 1;
            return RxOutcome::drop(DropReason::NotRoce);
        }

        // Layer 3.
        let ip = match ipv4::Packet::new_checked(eth.payload()) {
            Ok(ip) => ip,
            Err(_) => {
                self.counters.malformed += 1;
                return RxOutcome::drop(DropReason::Malformed);
            }
        };
        if !ip.verify_checksum() {
            self.counters.ip_checksum += 1;
            return RxOutcome::drop(DropReason::IpChecksum);
        }
        if ip.dst_addr() != self.ip {
            self.counters.not_for_us += 1;
            return RxOutcome::drop(DropReason::NotForUs);
        }
        if ip.protocol() != ipv4::Protocol::Udp {
            self.counters.not_roce += 1;
            return RxOutcome::drop(DropReason::NotRoce);
        }

        // Layer 4.
        let dgram = match udp::Datagram::new_checked(ip.payload()) {
            Ok(d) => d,
            Err(_) => {
                self.counters.malformed += 1;
                return RxOutcome::drop(DropReason::Malformed);
            }
        };
        if dgram.dst_port() != udp::ROCEV2_PORT {
            self.counters.not_roce += 1;
            return RxOutcome::drop(DropReason::NotRoce);
        }

        // iCRC.
        let ip_header = ip.header_bytes();
        let udp_bytes = ip.payload();
        let udp_header = &udp_bytes[..udp::HEADER_LEN];
        let udp_payload = dgram.payload();
        if self.validate_icrc && roce::icrc::verify(ip_header, udp_header, udp_payload).is_err() {
            self.counters.icrc += 1;
            return RxOutcome::drop(DropReason::Icrc);
        }
        if udp_payload.len() < roce::BTH_LEN + roce::ICRC_LEN {
            self.counters.malformed += 1;
            return RxOutcome::drop(DropReason::Malformed);
        }
        let transport_packet = &udp_payload[..udp_payload.len() - roce::ICRC_LEN];
        let packet = match roce::RoceView::parse(transport_packet) {
            Ok(p) => p,
            Err(_) => {
                self.counters.malformed += 1;
                return RxOutcome::drop(DropReason::Malformed);
            }
        };

        // Queue pair + PSN.
        let bth = *packet.bth();
        let qp = match self.qps.get_mut(bth.dest_qp) {
            Some(qp) => qp,
            None => {
                self.counters.qp_not_found += 1;
                return RxOutcome::drop(DropReason::QpNotFound);
            }
        };
        let class_matches = match qp.transport() {
            Transport::Uc => bth.opcode.is_unreliable(),
            Transport::Rc => !bth.opcode.is_unreliable(),
        };
        if !class_matches {
            self.counters.transport_mismatch += 1;
            return RxOutcome::drop(DropReason::TransportMismatch);
        }
        let verdict = qp.receive_psn(roce::Psn::new(bth.psn));
        let peer_qpn = qp.peer_qpn();
        let transport = qp.transport();
        match verdict {
            PsnVerdict::InSequence | PsnVerdict::GapDetected { .. } => {}
            PsnVerdict::Duplicate => {
                self.counters.psn += 1;
                return RxOutcome::drop(DropReason::Psn);
            }
            PsnVerdict::OutOfSequence => {
                self.counters.psn += 1;
                let nak = self.build_response(
                    &eth,
                    &ip,
                    &dgram,
                    peer_qpn,
                    bth.psn,
                    roce::Syndrome::NakSequenceError,
                );
                self.counters.responses += 1;
                return RxOutcome {
                    action: RxAction::Dropped(DropReason::Psn),
                    response: Some(nak),
                };
            }
        }

        // Execute.
        let (action, syndrome) = self.execute(&packet);
        let response = match (&action, transport) {
            (
                RxAction::Dropped(DropReason::BadRkey | DropReason::AccessViolation),
                Transport::Rc,
            ) => {
                self.counters.responses += 1;
                Some(self.build_response(
                    &eth,
                    &ip,
                    &dgram,
                    peer_qpn,
                    bth.psn,
                    roce::Syndrome::NakRemoteAccessError,
                ))
            }
            (_, Transport::Rc) if bth.ack_request || syndrome.is_some() => {
                self.counters.responses += 1;
                Some(self.build_response(&eth, &ip, &dgram, peer_qpn, bth.psn, roce::Syndrome::Ack))
            }
            _ => None,
        };
        RxOutcome { action, response }
    }

    fn execute(&mut self, packet: &roce::RoceView<'_>) -> (RxAction, Option<roce::Syndrome>) {
        match packet {
            roce::RoceView::Write { reth, payload, .. } => {
                let mr = match self.mrs.get(reth.rkey) {
                    Some(mr) => mr,
                    None => {
                        self.counters.bad_rkey += 1;
                        return (RxAction::Dropped(DropReason::BadRkey), None);
                    }
                };
                // The region classifies fresh vs. overwrite under the
                // DMA's own lock.
                let commit = mr.commit();
                match mr.write(reth.virtual_addr, payload) {
                    Ok(fresh) => {
                        self.counters.writes += 1;
                        if commit == CommitKind::Append {
                            self.counters.appends += 1;
                        }
                        if fresh {
                            self.counters.writes_fresh += 1;
                        } else {
                            self.counters.writes_overwritten += 1;
                        }
                        self.counters.write_bytes += payload.len() as u64;
                        (
                            RxAction::WriteExecuted {
                                rkey: reth.rkey,
                                va: reth.virtual_addr,
                                len: payload.len(),
                                fresh,
                            },
                            None,
                        )
                    }
                    Err(
                        AccessError::OutOfBounds
                        | AccessError::Permission
                        | AccessError::Misaligned,
                    ) => {
                        self.counters.access_violations += 1;
                        (RxAction::Dropped(DropReason::AccessViolation), None)
                    }
                }
            }
            roce::RoceView::FetchAdd { atomic, .. } => self.run_atomic(atomic, true, |mr, a| {
                // Commit as an optimistic compare-swap retry loop: peek
                // the current big-endian word, attempt to swap in
                // current + addend, and succeed only if nobody raced in
                // between. Bounded, with the region's serialized
                // fetch-add as the guaranteed-progress fallback.
                mr.check_access(a.virtual_addr, 8, AccessKind::Atomic)?;
                let handle = mr.handle();
                let off = (a.virtual_addr - mr.base_va()) as usize;
                for _ in 0..FETCH_ADD_CAS_RETRIES {
                    let current = handle
                        .with(|mem| u64::from_be_bytes(mem[off..off + 8].try_into().unwrap()));
                    let original = mr.compare_swap(
                        a.virtual_addr,
                        current,
                        current.wrapping_add(a.swap_or_add),
                    )?;
                    if original == current {
                        return Ok(original);
                    }
                }
                mr.fetch_add(a.virtual_addr, a.swap_or_add)
            }),
            roce::RoceView::CompareSwap { atomic, .. } => {
                self.run_atomic(atomic, false, |mr, a| {
                    mr.compare_swap(a.virtual_addr, a.compare, a.swap_or_add)
                })
            }
            roce::RoceView::Send { payload, .. } => {
                self.counters.sends += 1;
                self.inbox.push_back(payload.to_vec());
                (RxAction::SendDelivered { len: payload.len() }, None)
            }
            roce::RoceView::Ack { .. } => {
                // A requester-side NIC would match this to an outstanding
                // WQE; the collector side just counts it.
                (RxAction::SendDelivered { len: 0 }, None)
            }
        }
    }

    fn run_atomic(
        &mut self,
        atomic: &roce::AtomicEthRepr,
        is_fetch_add: bool,
        op: impl FnOnce(&MemoryRegion, &roce::AtomicEthRepr) -> Result<u64, AccessError>,
    ) -> (RxAction, Option<roce::Syndrome>) {
        let mr = match self.mrs.get(atomic.rkey) {
            Some(mr) => mr,
            None => {
                self.counters.bad_rkey += 1;
                return (RxAction::Dropped(DropReason::BadRkey), None);
            }
        };
        match op(mr, atomic) {
            Ok(original) => {
                if is_fetch_add {
                    self.counters.fetch_adds += 1;
                } else {
                    self.counters.compare_swaps += 1;
                }
                (
                    RxAction::AtomicExecuted { original },
                    Some(roce::Syndrome::Ack),
                )
            }
            Err(_) => {
                self.counters.access_violations += 1;
                (RxAction::Dropped(DropReason::AccessViolation), None)
            }
        }
    }

    /// Describe an ACK/NAK back to the requester of the frame whose
    /// headers are `eth`/`ip`/`dgram`.
    fn build_response<T: AsRef<[u8]>, U: AsRef<[u8]>, V: AsRef<[u8]>>(
        &self,
        eth: &ethernet::Frame<T>,
        ip: &ipv4::Packet<U>,
        dgram: &udp::Datagram<V>,
        peer_qpn: u32,
        psn: u32,
        syndrome: roce::Syndrome,
    ) -> Response {
        Response {
            src_mac: self.mac,
            src_ip: self.ip,
            dst_mac: eth.src_addr(),
            dst_ip: ip.src_addr(),
            udp_src_port: dgram.src_port(),
            dest_qp: peer_qpn,
            psn,
            syndrome,
        }
    }
}

impl core::fmt::Debug for RNic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RNic")
            .field("mac", &self.mac)
            .field("ip", &self.ip)
            .field("mrs", &self.mrs.len())
            .field("qps", &self.qps.len())
            .field("counters", &self.counters)
            .finish()
    }
}

/// Build a complete Ethernet frame carrying a RoCEv2 transport packet
/// (IPv4 + UDP 4791 + packet + iCRC). Shared by the NIC's responder path
/// and by tests; the switch pipeline has its own P4-style builder that
/// must produce byte-identical output (`dta-switch` golden tests).
pub fn build_roce_frame(
    src_mac: ethernet::Address,
    dst_mac: ethernet::Address,
    src_ip: ipv4::Address,
    dst_ip: ipv4::Address,
    src_port: u16,
    packet: &roce::RoceRepr,
) -> Vec<u8> {
    let transport_len = packet.buffer_len() + roce::ICRC_LEN;
    let udp_repr = udp::Repr {
        src_port,
        dst_port: udp::ROCEV2_PORT,
        payload_len: transport_len,
    };
    let ip_repr = ipv4::Repr {
        src_addr: src_ip,
        dst_addr: dst_ip,
        protocol: ipv4::Protocol::Udp,
        payload_len: udp::HEADER_LEN + transport_len,
        ttl: 64,
        tos: 0,
    };
    let eth_repr = ethernet::Repr {
        src_addr: src_mac,
        dst_addr: dst_mac,
        ethertype: ethernet::EtherType::Ipv4,
    };

    let total = ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN + transport_len;
    let mut frame_bytes = vec![0u8; total];

    let mut eth = ethernet::Frame::new_unchecked(&mut frame_bytes[..]);
    eth_repr.emit(&mut eth);
    let mut ip = ipv4::Packet::new_unchecked(eth.payload_mut());
    ip_repr.emit(&mut ip);
    let mut dgram = udp::Datagram::new_unchecked(ip.payload_mut());
    udp_repr.emit(&mut dgram);

    // Emit transport packet + iCRC into the UDP payload.
    let ip_start = ethernet::HEADER_LEN;
    let udp_start = ip_start + ipv4::HEADER_LEN;
    let roce_start = udp_start + udp::HEADER_LEN;
    packet.emit(&mut frame_bytes[roce_start..roce_start + packet.buffer_len()]);
    let (head, tail) = frame_bytes.split_at_mut(roce_start);
    let crc = roce::icrc::compute(
        &head[ip_start..ip_start + ipv4::HEADER_LEN],
        &head[udp_start..udp_start + udp::HEADER_LEN],
        &tail[..packet.buffer_len()],
    );
    tail[packet.buffer_len()..packet.buffer_len() + roce::ICRC_LEN]
        .copy_from_slice(&crc.to_le_bytes());
    frame_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::AccessFlags;
    use dta_wire::roce::{BthRepr, Opcode, Psn, RethRepr, RoceRepr};

    const NIC_MAC: ethernet::Address = ethernet::Address([0x02, 0, 0, 0, 0, 1]);
    const NIC_IP: ipv4::Address = ipv4::Address([10, 0, 0, 2]);
    const SW_MAC: ethernet::Address = ethernet::Address([0x02, 0, 0, 0, 0, 9]);
    const SW_IP: ipv4::Address = ipv4::Address([10, 0, 0, 9]);
    const RKEY: u32 = 0xBEEF;
    const QPN: u32 = 0x11;

    fn nic() -> RNic {
        let mut nic = RNic::new(NIC_MAC, NIC_IP);
        nic.register_mr(MemoryRegion::new(
            0x10000,
            4096,
            RKEY,
            AccessFlags::DART_COLLECTOR,
        ))
        .unwrap();
        let mut qp = QueuePair::new(QPN, Transport::Uc);
        qp.ready(Psn::new(0));
        nic.create_qp(qp).unwrap();
        nic
    }

    fn write_frame(psn: u32, va: u64, payload: &[u8]) -> Vec<u8> {
        let packet = RoceRepr::Write {
            bth: BthRepr {
                opcode: Opcode::UcRdmaWriteOnly,
                solicited: false,
                migration: true,
                pad_count: (4 - (payload.len() % 4) as u8) % 4,
                partition_key: 0xFFFF,
                dest_qp: QPN,
                ack_request: false,
                psn,
            },
            reth: RethRepr {
                virtual_addr: va,
                rkey: RKEY,
                dma_len: payload.len() as u32,
            },
            payload: payload.to_vec(),
        };
        build_roce_frame(SW_MAC, NIC_MAC, SW_IP, NIC_IP, 49152, &packet)
    }

    #[test]
    fn write_lands_in_memory() {
        let mut nic = nic();
        let outcome = nic.handle_frame(&write_frame(0, 0x10010, b"telemetry-report"));
        assert_eq!(
            outcome.action,
            RxAction::WriteExecuted {
                rkey: RKEY,
                va: 0x10010,
                len: 16,
                fresh: true
            }
        );
        assert!(outcome.response.is_none(), "UC generates no ACKs");
        let mr = nic.mr(RKEY).unwrap();
        let handle = mr.handle();
        handle.with(|mem| assert_eq!(&mem[0x10..0x20], b"telemetry-report"));
        assert_eq!(nic.counters().writes, 1);
        assert_eq!(nic.counters().write_bytes, 16);
    }

    #[test]
    fn wrong_mac_dropped() {
        let mut nic = RNic::new(ethernet::Address([0x02, 0, 0, 0, 0, 7]), NIC_IP);
        let outcome = nic.handle_frame(&write_frame(0, 0x10000, b"data"));
        assert_eq!(outcome.action, RxAction::Dropped(DropReason::NotForUs));
    }

    #[test]
    fn corrupted_icrc_dropped() {
        let mut nic = nic();
        let mut frame = write_frame(0, 0x10000, b"data4444");
        let n = frame.len();
        frame[n - 1] ^= 0xFF; // corrupt iCRC trailer
        let outcome = nic.handle_frame(&frame);
        assert_eq!(outcome.action, RxAction::Dropped(DropReason::Icrc));
        assert_eq!(nic.counters().icrc, 1);
        // Memory untouched.
        nic.mr(RKEY)
            .unwrap()
            .handle()
            .with(|mem| assert!(mem.iter().all(|&b| b == 0)));
    }

    #[test]
    fn payload_corruption_caught_by_icrc() {
        let mut nic = nic();
        let mut frame = write_frame(0, 0x10000, b"data4444");
        let n = frame.len();
        frame[n - 10] ^= 0x01; // corrupt payload, keep stale iCRC
        assert_eq!(
            nic.handle_frame(&frame).action,
            RxAction::Dropped(DropReason::Icrc)
        );
    }

    #[test]
    fn bad_rkey_dropped() {
        let mut nic = nic();
        let packet = RoceRepr::Write {
            bth: BthRepr {
                opcode: Opcode::UcRdmaWriteOnly,
                solicited: false,
                migration: true,
                pad_count: 0,
                partition_key: 0xFFFF,
                dest_qp: QPN,
                ack_request: false,
                psn: 0,
            },
            reth: RethRepr {
                virtual_addr: 0x10000,
                rkey: 0xDEAD, // unregistered
                dma_len: 4,
            },
            payload: b"data".to_vec(),
        };
        let frame = build_roce_frame(SW_MAC, NIC_MAC, SW_IP, NIC_IP, 49152, &packet);
        assert_eq!(
            nic.handle_frame(&frame).action,
            RxAction::Dropped(DropReason::BadRkey)
        );
        assert_eq!(nic.counters().bad_rkey, 1);
    }

    #[test]
    fn out_of_bounds_write_dropped() {
        let mut nic = nic();
        let outcome = nic.handle_frame(&write_frame(0, 0x10000 + 4090, b"12345678"));
        assert_eq!(
            outcome.action,
            RxAction::Dropped(DropReason::AccessViolation)
        );
        assert_eq!(nic.counters().access_violations, 1);
    }

    #[test]
    fn unknown_qp_dropped() {
        let mut nic = RNic::new(NIC_MAC, NIC_IP);
        nic.register_mr(MemoryRegion::new(0x10000, 4096, RKEY, AccessFlags::ALL))
            .unwrap();
        let outcome = nic.handle_frame(&write_frame(0, 0x10000, b"data"));
        assert_eq!(outcome.action, RxAction::Dropped(DropReason::QpNotFound));
    }

    #[test]
    fn uc_loss_gap_still_executes() {
        let mut nic = nic();
        nic.handle_frame(&write_frame(0, 0x10000, b"aaaa"));
        // PSNs 1-4 lost; PSN 5 must still execute (UC).
        let outcome = nic.handle_frame(&write_frame(5, 0x10020, b"bbbb"));
        assert!(matches!(outcome.action, RxAction::WriteExecuted { .. }));
        assert_eq!(nic.qp(QPN).unwrap().counters().psn_gaps, 4);
    }

    #[test]
    fn uc_duplicate_dropped() {
        let mut nic = nic();
        nic.handle_frame(&write_frame(0, 0x10000, b"aaaa"));
        let outcome = nic.handle_frame(&write_frame(0, 0x10020, b"bbbb"));
        assert_eq!(outcome.action, RxAction::Dropped(DropReason::Psn));
    }

    #[test]
    fn rc_atomics_ack_and_execute() {
        let mut nic = nic();
        let mut qp = QueuePair::new(0x22, Transport::Rc);
        qp.ready(Psn::new(0));
        qp.set_peer(0x33);
        nic.create_qp(qp).unwrap();

        let packet = RoceRepr::FetchAdd {
            bth: BthRepr {
                opcode: Opcode::RcFetchAdd,
                solicited: false,
                migration: true,
                pad_count: 0,
                partition_key: 0xFFFF,
                dest_qp: 0x22,
                ack_request: true,
                psn: 0,
            },
            atomic: dta_wire::roce::AtomicEthRepr {
                virtual_addr: 0x10000,
                rkey: RKEY,
                swap_or_add: 41,
                compare: 0,
            },
        };
        let frame = build_roce_frame(SW_MAC, NIC_MAC, SW_IP, NIC_IP, 49152, &packet);
        let outcome = nic.handle_frame(&frame);
        assert_eq!(outcome.action, RxAction::AtomicExecuted { original: 0 });
        let ack = outcome.response.expect("RC must ACK atomics").to_frame();

        // The ACK must itself be a parseable RoCE frame addressed back.
        let eth = ethernet::Frame::new_checked(&ack[..]).unwrap();
        assert_eq!(eth.dst_addr(), SW_MAC);
        assert_eq!(eth.src_addr(), NIC_MAC);
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.dst_addr(), SW_IP);
        let dgram = udp::Datagram::new_checked(ip.payload()).unwrap();
        let payload = dgram.payload();
        let parsed = RoceRepr::parse(&payload[..payload.len() - roce::ICRC_LEN]).unwrap();
        match parsed {
            RoceRepr::Ack { bth, aeth } => {
                assert_eq!(bth.dest_qp, 0x33);
                assert_eq!(aeth.syndrome, roce::Syndrome::Ack);
            }
            other => panic!("expected Ack, got {other:?}"),
        }

        // Memory was incremented.
        nic.mr(RKEY)
            .unwrap()
            .handle()
            .with(|mem| assert_eq!(&mem[..8], &41u64.to_be_bytes()));
    }

    #[test]
    fn rc_out_of_sequence_naks() {
        let mut nic = nic();
        let mut qp = QueuePair::new(0x22, Transport::Rc);
        qp.ready(Psn::new(0));
        nic.create_qp(qp).unwrap();
        let packet = RoceRepr::FetchAdd {
            bth: BthRepr {
                opcode: Opcode::RcFetchAdd,
                solicited: false,
                migration: true,
                pad_count: 0,
                partition_key: 0xFFFF,
                dest_qp: 0x22,
                ack_request: true,
                psn: 7, // expected 0
            },
            atomic: dta_wire::roce::AtomicEthRepr {
                virtual_addr: 0x10000,
                rkey: RKEY,
                swap_or_add: 1,
                compare: 0,
            },
        };
        let frame = build_roce_frame(SW_MAC, NIC_MAC, SW_IP, NIC_IP, 49152, &packet);
        let outcome = nic.handle_frame(&frame);
        assert_eq!(outcome.action, RxAction::Dropped(DropReason::Psn));
        assert!(outcome.response.is_some(), "NAK expected");
    }

    #[test]
    fn transport_mismatch_dropped() {
        let mut nic = nic();
        // RC FetchAdd aimed at the UC QP.
        let packet = RoceRepr::FetchAdd {
            bth: BthRepr {
                opcode: Opcode::RcFetchAdd,
                solicited: false,
                migration: true,
                pad_count: 0,
                partition_key: 0xFFFF,
                dest_qp: QPN,
                ack_request: false,
                psn: 0,
            },
            atomic: dta_wire::roce::AtomicEthRepr {
                virtual_addr: 0x10000,
                rkey: RKEY,
                swap_or_add: 1,
                compare: 0,
            },
        };
        let frame = build_roce_frame(SW_MAC, NIC_MAC, SW_IP, NIC_IP, 49152, &packet);
        assert_eq!(
            nic.handle_frame(&frame).action,
            RxAction::Dropped(DropReason::TransportMismatch)
        );
    }

    #[test]
    fn send_reaches_inbox() {
        let mut nic = nic();
        let packet = RoceRepr::Send {
            bth: BthRepr {
                opcode: Opcode::UcSendOnly,
                solicited: false,
                migration: true,
                pad_count: 0,
                partition_key: 0xFFFF,
                dest_qp: QPN,
                ack_request: false,
                psn: 0,
            },
            payload: b"hello control plane!".to_vec(),
        };
        let frame = build_roce_frame(SW_MAC, NIC_MAC, SW_IP, NIC_IP, 49152, &packet);
        let outcome = nic.handle_frame(&frame);
        assert_eq!(outcome.action, RxAction::SendDelivered { len: 20 });
        assert_eq!(nic.pop_send().unwrap(), b"hello control plane!");
        assert!(nic.pop_send().is_none());
    }

    #[test]
    fn host_zero_tombstones_without_remote_permissions() {
        let mut nic = nic();
        nic.handle_frame(&write_frame(0, 0x10010, b"stranded-report!"));
        nic.host_zero(RKEY, 0x10010, 16).unwrap();
        nic.mr(RKEY)
            .unwrap()
            .handle()
            .with(|mem| assert!(mem[0x10..0x20].iter().all(|&b| b == 0)));
        assert_eq!(
            nic.host_zero(0xDEAD, 0x10010, 16),
            Err(NicError::UnknownRkey(0xDEAD))
        );
        assert_eq!(
            nic.host_zero(RKEY, 0x10000 + 4090, 16),
            Err(NicError::OutOfRegion)
        );
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut nic = nic();
        assert_eq!(
            nic.register_mr(MemoryRegion::new(0, 16, RKEY, AccessFlags::ALL)),
            Err(NicError::DuplicateRkey(RKEY))
        );
        assert_eq!(
            nic.create_qp(QueuePair::new(QPN, Transport::Uc)),
            Err(NicError::DuplicateQpn(QPN))
        );
        assert!(matches!(nic.qp_mut(0x99), Err(NicError::UnknownQpn(0x99))));
    }

    #[test]
    fn counters_sum_consistently() {
        let mut nic = nic();
        nic.handle_frame(&write_frame(0, 0x10000, b"aaaa"));
        nic.handle_frame(&write_frame(0, 0x10000, b"bbbb")); // dup PSN
        let c = nic.counters();
        assert_eq!(c.frames_rx, 2);
        assert_eq!(c.writes, 1);
        assert_eq!(c.dropped(), 1);
    }

    #[test]
    fn writes_classified_fresh_vs_overwrite() {
        let mut nic = nic();
        // First write into zeroed memory: fresh.
        let a = nic.handle_frame(&write_frame(0, 0x10010, b"report-aaaaaaaaa"));
        assert!(matches!(
            a.action,
            RxAction::WriteExecuted { fresh: true, .. }
        ));
        // Same slot again: overwrite.
        let b = nic.handle_frame(&write_frame(1, 0x10010, b"report-bbbbbbbbb"));
        assert!(matches!(
            b.action,
            RxAction::WriteExecuted { fresh: false, .. }
        ));
        // A different, untouched slot: fresh again.
        let c = nic.handle_frame(&write_frame(2, 0x10110, b"report-ccccccccc"));
        assert!(matches!(
            c.action,
            RxAction::WriteExecuted { fresh: true, .. }
        ));
        let counters = nic.counters();
        assert_eq!(counters.writes_fresh, 2);
        assert_eq!(counters.writes_overwritten, 1);
        assert_eq!(
            counters.writes,
            counters.writes_fresh + counters.writes_overwritten
        );
    }

    #[test]
    fn drop_reason_all_is_exhaustive() {
        // Compile-time: this match must name every variant; adding one
        // without extending it is a build failure.
        let index_of = |r: DropReason| -> usize {
            match r {
                DropReason::NotForUs => 0,
                DropReason::Malformed => 1,
                DropReason::IpChecksum => 2,
                DropReason::NotRoce => 3,
                DropReason::Icrc => 4,
                DropReason::QpNotFound => 5,
                DropReason::TransportMismatch => 6,
                DropReason::Psn => 7,
                DropReason::BadRkey => 8,
                DropReason::AccessViolation => 9,
                DropReason::CollectorDown => 10,
                DropReason::Blackholed => 11,
                DropReason::DegradedLink => 12,
            }
        };
        // Runtime: ALL covers each variant exactly once...
        let mut seen = [false; DropReason::ALL.len()];
        for &reason in DropReason::ALL.iter() {
            let i = index_of(reason);
            assert!(!seen[i], "{reason:?} listed twice in ALL");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "ALL misses a variant");
        // ...with distinct stable names, and count() accepts each.
        let counters = NicCounters::default();
        let mut names: Vec<&str> = DropReason::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DropReason::ALL.len());
        for &reason in DropReason::ALL.iter() {
            assert_eq!(counters.count(reason), 0);
        }
    }

    #[test]
    fn non_roce_udp_ignored() {
        let mut nic = nic();
        // Craft a frame to UDP port 53.
        let packet = RoceRepr::Send {
            bth: BthRepr {
                opcode: Opcode::UcSendOnly,
                solicited: false,
                migration: true,
                pad_count: 0,
                partition_key: 0xFFFF,
                dest_qp: QPN,
                ack_request: false,
                psn: 0,
            },
            payload: b"dns?".to_vec(),
        };
        let mut frame = build_roce_frame(SW_MAC, NIC_MAC, SW_IP, NIC_IP, 49152, &packet);
        // Rewrite the UDP destination port and fix the IP checksum chain:
        // port lives at eth(14) + ip(20) + 2.
        frame[14 + 20 + 2..14 + 20 + 4].copy_from_slice(&53u16.to_be_bytes());
        assert_eq!(
            nic.handle_frame(&frame).action,
            RxAction::Dropped(DropReason::NotRoce)
        );
    }
}
