//! INT source/transit/sink behaviour glued to DART reporting.
//!
//! For in-band INT (Table 1, row 1): every switch on the path appends its
//! metadata to the packet's INT stack, and only the *sink* (last hop)
//! reports — key = flow 5-tuple, value = the per-hop data. [`IntSwitch`]
//! bundles that behaviour with the mirror and the DART egress engine, so
//! a topology of `IntSwitch`es is a faithful model of the paper's
//! fat-tree experiment: data packets accumulate 5 hops of switch IDs and
//! the sink emits RDMA WRITE frames toward the collectors.

use dta_wire::int::{HopMetadata, IntStack};
use dta_wire::FiveTuple;

use crate::control_plane::{ControlPlane, DART_MIRROR_SESSION};
use crate::egress::{CraftedReport, DartEgress, EgressConfig, SwitchError};
use crate::mirror::{decode_trigger, Mirror, MirrorError};
use crate::SwitchIdentity;

/// The role a switch plays for a given packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntRole {
    /// First hop: starts the INT stack.
    Source,
    /// Middle hop: appends metadata.
    Transit,
    /// Last hop: appends metadata, strips the stack, reports to DART.
    Sink,
}

/// A data packet as seen by the INT pipeline: its flow key and the
/// telemetry stack it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntPacket {
    /// The flow 5-tuple (the DART key for in-band INT).
    pub flow: FiveTuple,
    /// The accumulated INT metadata stack.
    pub stack: IntStack,
}

impl IntPacket {
    /// A fresh packet with an empty stack.
    pub fn new(flow: FiveTuple) -> IntPacket {
        IntPacket {
            flow,
            stack: IntStack::new(),
        }
    }
}

/// Errors from INT processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntError {
    /// The INT stack overflowed its hop budget.
    StackOverflow,
    /// The egress engine rejected the report.
    Switch(SwitchError),
    /// The mirror rejected the trigger.
    Mirror(MirrorError),
}

impl core::fmt::Display for IntError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IntError::StackOverflow => write!(f, "INT stack overflow"),
            IntError::Switch(e) => write!(f, "egress error: {e}"),
            IntError::Mirror(e) => write!(f, "mirror error: {e}"),
        }
    }
}

impl std::error::Error for IntError {}

impl From<SwitchError> for IntError {
    fn from(e: SwitchError) -> Self {
        IntError::Switch(e)
    }
}

impl From<MirrorError> for IntError {
    fn from(e: MirrorError) -> Self {
        IntError::Mirror(e)
    }
}

/// A switch that does INT transit processing and DART reporting.
pub struct IntSwitch {
    identity: SwitchIdentity,
    egress: DartEgress,
    mirror: Mirror,
    /// Fixed number of hop entries each DART value carries (shorter
    /// paths are zero-padded so slots stay fixed-size).
    padded_hops: usize,
}

impl IntSwitch {
    /// Build a switch; `padded_hops * 4` must equal the configured
    /// value length.
    pub fn new(
        identity: SwitchIdentity,
        config: EgressConfig,
        padded_hops: usize,
        rng_seed: u64,
    ) -> Result<IntSwitch, SwitchError> {
        // In-band path values are only produced by the WRITE-based
        // primitives; Key-Increment stores 8-byte counter words and its
        // INT reporting path is guarded off in the egress.
        debug_assert!(
            config.primitive == dta_core::PrimitiveSpec::KeyIncrement
                || padded_hops * HopMetadata::WIRE_LEN == config.layout.value_len,
            "value length must fit the padded hop count"
        );
        let egress = DartEgress::new(identity, config, rng_seed)?;
        let mut mirror = Mirror::new();
        ControlPlane::new().configure_mirror(
            &mut mirror,
            FiveTuple::WIRE_LEN,
            config.layout.value_len,
        );
        Ok(IntSwitch {
            identity,
            egress,
            mirror,
            padded_hops,
        })
    }

    /// This switch's identity.
    pub fn identity(&self) -> SwitchIdentity {
        self.identity
    }

    /// Access the egress engine (e.g. for the control plane to install
    /// collectors).
    pub fn egress_mut(&mut self) -> &mut DartEgress {
        &mut self.egress
    }

    /// Read-only access to the egress engine.
    pub fn egress(&self) -> &DartEgress {
        &self.egress
    }

    /// Process a data packet in `role`. Sinks return the crafted DART
    /// report frame(s) — one RDMA WRITE per call, with the copy index
    /// drawn by the RNG (real INT generates a report per packet of the
    /// flow, so all `N` slots fill across a handful of packets).
    pub fn process(
        &mut self,
        packet: &mut IntPacket,
        role: IntRole,
    ) -> Result<Option<CraftedReport>, IntError> {
        // Every role appends its own metadata first.
        packet
            .stack
            .push(HopMetadata {
                switch_id: self.identity.switch_id,
            })
            .map_err(|_| IntError::StackOverflow)?;

        if role != IntRole::Sink {
            return Ok(None);
        }

        // Sink: strip the stack and report via mirror → egress.
        let key = packet.flow.to_bytes();
        let value = packet
            .stack
            .to_padded_value_bytes(self.padded_hops)
            .map_err(|_| IntError::StackOverflow)?;
        let clone = self
            .mirror
            .clone_to_egress(DART_MIRROR_SESSION, &key, &value)?;
        let (k, v) = decode_trigger(&clone.payload)?;
        let report = self.egress.craft_report(k, v)?;
        packet.stack = IntStack::new();
        Ok(Some(report))
    }

    /// Emit all `N` copies for a finished flow (what repeated per-packet
    /// reports converge to; used by the simulator's "flow completed"
    /// event).
    pub fn report_all_copies(
        &mut self,
        flow: &FiveTuple,
        stack: &IntStack,
    ) -> Result<Vec<CraftedReport>, IntError> {
        let key = flow.to_bytes();
        let value = stack
            .to_padded_value_bytes(self.padded_hops)
            .map_err(|_| IntError::StackOverflow)?;
        self.egress.require_key_write()?;
        Ok(self.egress.craft(&key, &value)?)
    }
}

impl core::fmt::Debug for IntSwitch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("IntSwitch")
            .field("identity", &self.identity)
            .field("padded_hops", &self.padded_hops)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_rdma::verbs::RemoteEndpoint;
    use dta_wire::dart::{ChecksumWidth, SlotLayout};
    use dta_wire::roce::Psn;
    use dta_wire::{ethernet, ipv4};

    fn config() -> EgressConfig {
        EgressConfig {
            copies: 2,
            slots: 1024,
            layout: SlotLayout {
                checksum: ChecksumWidth::B32,
                value_len: 20,
            },
            collectors: 1,
            udp_src_port: 49152,
            primitive: dta_core::PrimitiveSpec::KeyWrite,
        }
    }

    fn endpoint() -> RemoteEndpoint {
        RemoteEndpoint {
            mac: ethernet::Address([0x02, 0, 0, 0, 0, 2]),
            ip: ipv4::Address([10, 0, 0, 2]),
            qpn: 0x100,
            rkey: 0x1000,
            base_va: 0,
            region_len: 24 * 1024,
            start_psn: Psn::new(0),
        }
    }

    fn switch(id: u32) -> IntSwitch {
        let mut sw = IntSwitch::new(SwitchIdentity::derived(id), config(), 5, 7).unwrap();
        sw.egress_mut().install_collector(0, endpoint()).unwrap();
        sw
    }

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
    fn five_hop_path_produces_report_at_sink() {
        let mut packet = IntPacket::new(flow());
        let mut switches: Vec<IntSwitch> = (1..=5).map(switch).collect();
        for (i, sw) in switches.iter_mut().enumerate() {
            let role = match i {
                0 => IntRole::Source,
                4 => IntRole::Sink,
                _ => IntRole::Transit,
            };
            let report = sw.process(&mut packet, role).unwrap();
            if i < 4 {
                assert!(report.is_none());
                assert_eq!(packet.stack.len(), i + 1);
            } else {
                let report = report.expect("sink must report");
                assert!(!report.frame.is_empty());
                // Stack stripped after reporting.
                assert!(packet.stack.is_empty());
            }
        }
    }

    #[test]
    fn transit_appends_own_id() {
        let mut packet = IntPacket::new(flow());
        let mut sw = switch(42);
        sw.process(&mut packet, IntRole::Transit).unwrap();
        assert_eq!(
            packet.stack.switch_ids(),
            vec![SwitchIdentity::derived(42).switch_id]
        );
    }

    #[test]
    fn report_all_copies_covers_all_slots() {
        let mut sw = switch(1);
        let mut stack = IntStack::new();
        for id in [1u32, 2, 3] {
            stack.push(HopMetadata { switch_id: id }).unwrap();
        }
        let reports = sw.report_all_copies(&flow(), &stack).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].copy, 0);
        assert_eq!(reports[1].copy, 1);
        assert_ne!(reports[0].slot, reports[1].slot);
    }

    #[test]
    fn stack_overflow_detected() {
        let mut packet = IntPacket::new(flow());
        let mut sw = switch(1);
        for _ in 0..dta_wire::int::MAX_HOPS {
            packet
                .stack
                .push(HopMetadata { switch_id: 0 })
                .unwrap_or(());
        }
        assert_eq!(
            sw.process(&mut packet, IntRole::Transit),
            Err(IntError::StackOverflow)
        );
    }

    #[test]
    fn long_path_exceeding_padding_rejected_at_sink() {
        let mut packet = IntPacket::new(flow());
        let mut sw = switch(1);
        // 6 hops on a value sized for 5.
        for _ in 0..5 {
            packet.stack.push(HopMetadata { switch_id: 9 }).unwrap();
        }
        let result = sw.process(&mut packet, IntRole::Sink);
        assert_eq!(result, Err(IntError::StackOverflow));
    }
}
