//! Queue pairs and receive-side PSN tracking.
//!
//! DART switches talk to collectors over *Unreliable Connected* (UC)
//! queue pairs: one-sided WRITEs with no ACKs, so a lost report merely
//! leaves a slot stale — the probabilistic store absorbs it (§3). The
//! atomics of §7 (FETCH_ADD / COMPARE_SWAP) are only defined for
//! *Reliable Connected* (RC) QPs, which ACK/NAK every request.
//!
//! PSN semantics implemented here (receive side, "Only"-type packets):
//!
//! * **UC** — a packet whose PSN is exactly the expected PSN is in
//!   sequence; a PSN *ahead* of expected indicates loss: the packet is
//!   still executed (each WRITE ONLY is self-contained) and the gap is
//!   counted; a PSN *behind* expected is a duplicate/stray and dropped.
//! * **RC** — in-sequence packets are executed and ACKed; anything else
//!   is dropped with a NAK-sequence-error, as real HCAs do.

use dta_wire::roce::Psn;

/// Transport service type of a queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Unreliable Connected — DART's reporting path.
    Uc,
    /// Reliable Connected — required for atomics.
    Rc,
}

/// Queue pair state (condensed from the IBA state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Created, not yet ready.
    Init,
    /// Ready to receive.
    ReadyToReceive,
    /// Ready to send and receive.
    ReadyToSend,
    /// Error; all packets dropped.
    Error,
}

/// Verdict of receive-side PSN processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsnVerdict {
    /// In sequence: execute.
    InSequence,
    /// Gap detected (UC): execute, `lost` packets were never seen.
    GapDetected {
        /// How many PSNs were skipped.
        lost: u32,
    },
    /// Duplicate or stray old packet: drop silently (UC).
    Duplicate,
    /// Out of sequence on RC: drop and NAK.
    OutOfSequence,
}

/// Per-QP receive counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QpCounters {
    /// Packets accepted and executed.
    pub accepted: u64,
    /// Packets dropped (duplicate / out-of-sequence / bad state).
    pub dropped: u64,
    /// Total PSNs skipped over (UC loss gaps).
    pub psn_gaps: u64,
}

/// A receive-side queue pair.
#[derive(Debug, Clone)]
pub struct QueuePair {
    qpn: u32,
    transport: Transport,
    state: QpState,
    expected_psn: Psn,
    /// Adopt the next arriving PSN as in sequence (set by
    /// [`QueuePair::resync`]).
    adopt_next_psn: bool,
    peer_qpn: u32,
    counters: QpCounters,
}

impl QueuePair {
    /// Create a QP in the `Init` state.
    pub fn new(qpn: u32, transport: Transport) -> QueuePair {
        QueuePair {
            qpn,
            transport,
            state: QpState::Init,
            expected_psn: Psn::new(0),
            adopt_next_psn: false,
            peer_qpn: 0,
            counters: QpCounters::default(),
        }
    }

    /// The queue pair number.
    pub fn qpn(&self) -> u32 {
        self.qpn
    }

    /// The transport type.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Current state.
    pub fn state(&self) -> QpState {
        self.state
    }

    /// Receive counters.
    pub fn counters(&self) -> QpCounters {
        self.counters
    }

    /// Transition to ready-to-receive with the peer's starting PSN
    /// (the `rq_psn` of a real `modify_qp` to RTR).
    pub fn ready(&mut self, start_psn: Psn) {
        self.expected_psn = start_psn;
        self.state = QpState::ReadyToReceive;
    }

    /// Record the peer's QPN (connection context, needed to address
    /// ACK/NAK responses on RC).
    pub fn set_peer(&mut self, peer_qpn: u32) {
        self.peer_qpn = peer_qpn;
    }

    /// The connected peer's QPN (0 if never set).
    pub fn peer_qpn(&self) -> u32 {
        self.peer_qpn
    }

    /// Re-handshake with the peer without knowing its current PSN: the
    /// next arriving packet is accepted as in sequence whatever its PSN,
    /// and sequencing continues from there. Models the control plane
    /// re-reading the sender's PSN register when a restarted host comes
    /// back — without it an RC queue pair would NAK every later packet
    /// after the PSNs the sender spent while the host was down.
    pub fn resync(&mut self) {
        self.adopt_next_psn = true;
    }

    /// Force the error state (administratively or after a fatal error).
    pub fn set_error(&mut self) {
        self.state = QpState::Error;
    }

    /// The PSN the QP expects next.
    pub fn expected_psn(&self) -> Psn {
        self.expected_psn
    }

    /// Process the PSN of an arriving "Only"-type packet and update
    /// expected-PSN state.
    pub fn receive_psn(&mut self, psn: Psn) -> PsnVerdict {
        if !matches!(self.state, QpState::ReadyToReceive | QpState::ReadyToSend) {
            self.counters.dropped += 1;
            return PsnVerdict::Duplicate;
        }
        if self.adopt_next_psn {
            self.adopt_next_psn = false;
            self.expected_psn = psn;
        }
        let distance = psn.distance(self.expected_psn);
        match (self.transport, distance) {
            (_, 0) => {
                self.expected_psn = psn.next();
                self.counters.accepted += 1;
                PsnVerdict::InSequence
            }
            (Transport::Uc, d) if d > 0 => {
                // Packets were lost; accept this one, resynchronize.
                self.expected_psn = psn.next();
                self.counters.accepted += 1;
                self.counters.psn_gaps += d as u64;
                PsnVerdict::GapDetected { lost: d as u32 }
            }
            (Transport::Uc, _) => {
                self.counters.dropped += 1;
                PsnVerdict::Duplicate
            }
            (Transport::Rc, _) => {
                self.counters.dropped += 1;
                PsnVerdict::OutOfSequence
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uc() -> QueuePair {
        let mut qp = QueuePair::new(0x11, Transport::Uc);
        qp.ready(Psn::new(100));
        qp
    }

    fn rc() -> QueuePair {
        let mut qp = QueuePair::new(0x22, Transport::Rc);
        qp.ready(Psn::new(0));
        qp
    }

    #[test]
    fn resync_adopts_the_next_psn_once() {
        let mut qp = rc();
        qp.resync();
        assert_eq!(qp.receive_psn(Psn::new(5_000)), PsnVerdict::InSequence);
        assert_eq!(qp.expected_psn(), Psn::new(5_001));
        // Sequencing is strict again afterwards.
        assert_eq!(qp.receive_psn(Psn::new(5_003)), PsnVerdict::OutOfSequence);
        assert_eq!(qp.receive_psn(Psn::new(5_001)), PsnVerdict::InSequence);
    }

    #[test]
    fn init_state_drops() {
        let mut qp = QueuePair::new(1, Transport::Uc);
        assert_eq!(qp.receive_psn(Psn::new(0)), PsnVerdict::Duplicate);
        assert_eq!(qp.counters().dropped, 1);
    }

    #[test]
    fn uc_in_sequence() {
        let mut qp = uc();
        assert_eq!(qp.receive_psn(Psn::new(100)), PsnVerdict::InSequence);
        assert_eq!(qp.receive_psn(Psn::new(101)), PsnVerdict::InSequence);
        assert_eq!(qp.expected_psn(), Psn::new(102));
        assert_eq!(qp.counters().accepted, 2);
    }

    #[test]
    fn uc_gap_resynchronizes() {
        let mut qp = uc();
        assert_eq!(
            qp.receive_psn(Psn::new(105)),
            PsnVerdict::GapDetected { lost: 5 }
        );
        assert_eq!(qp.expected_psn(), Psn::new(106));
        assert_eq!(qp.counters().psn_gaps, 5);
        // Continues in sequence afterwards.
        assert_eq!(qp.receive_psn(Psn::new(106)), PsnVerdict::InSequence);
    }

    #[test]
    fn uc_duplicate_dropped() {
        let mut qp = uc();
        qp.receive_psn(Psn::new(100));
        assert_eq!(qp.receive_psn(Psn::new(100)), PsnVerdict::Duplicate);
        assert_eq!(qp.receive_psn(Psn::new(50)), PsnVerdict::Duplicate);
        assert_eq!(qp.counters().dropped, 2);
    }

    #[test]
    fn rc_out_of_sequence_naks() {
        let mut qp = rc();
        assert_eq!(qp.receive_psn(Psn::new(0)), PsnVerdict::InSequence);
        assert_eq!(qp.receive_psn(Psn::new(2)), PsnVerdict::OutOfSequence);
        // Expected PSN unchanged after NAK.
        assert_eq!(qp.expected_psn(), Psn::new(1));
        assert_eq!(qp.receive_psn(Psn::new(1)), PsnVerdict::InSequence);
    }

    #[test]
    fn psn_wraparound() {
        let mut qp = QueuePair::new(3, Transport::Uc);
        qp.ready(Psn::new(Psn::MODULUS - 1));
        assert_eq!(
            qp.receive_psn(Psn::new(Psn::MODULUS - 1)),
            PsnVerdict::InSequence
        );
        assert_eq!(qp.expected_psn(), Psn::new(0));
        assert_eq!(qp.receive_psn(Psn::new(0)), PsnVerdict::InSequence);
    }

    #[test]
    fn error_state_drops_everything() {
        let mut qp = uc();
        qp.set_error();
        assert_eq!(qp.state(), QpState::Error);
        assert_eq!(qp.receive_psn(Psn::new(100)), PsnVerdict::Duplicate);
    }
}
