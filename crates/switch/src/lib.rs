//! # dta-switch — a software model of the Tofino DART prototype
//!
//! The paper's §6 prototype is ~1K lines of P4_16 plus 150 lines of
//! control-plane Python. This crate reproduces that switch, component by
//! component, under the same architectural constraints a Tofino pipeline
//! imposes — per-packet feed-forward processing, no dynamic allocation,
//! state only in register arrays, hashing only via CRC externs:
//!
//! * [`externs`] — the Tofino-like externs the P4 program calls: CRC
//!   units ([`externs::CrcExtern`]), the random-number generator
//!   ([`externs::RandomExtern`]) and register arrays
//!   ([`externs::RegisterArray`], which hold per-collector PSN counters).
//! * [`tables`] — exact-match match-action tables with hit/miss counters
//!   and bounded capacity (the collector lookup table lives here).
//! * [`mirror`] — I2E mirroring: telemetry-triggered packets are cloned,
//!   truncated, and injected into the egress pipeline as the base for a
//!   DART report.
//! * [`egress`] — the report-crafting engine: pick a random copy index
//!   `n ∈ [0, N)`, CRC-hash `(n, key)` to a collector and slot, read and
//!   increment the PSN register, and deparse a complete RoCEv2 WRITE
//!   frame with its iCRC.
//! * [`control_plane`] — the "150 lines of Python": installs collector
//!   endpoints, verifies SRAM budgets, resets PSN state.
//! * [`int_transit`] — INT source/transit/sink behaviour so a fat-tree of
//!   these switches produces the paper's 5-hop path-tracing workload.
//!
//! The egress hashing is bit-exact with `dta_core::hash::CrcMapping`, so
//! an operator querying collector memory with `MappingKind::Crc` finds
//! exactly the slots the hardware pipeline wrote — that equivalence is
//! pinned by tests here and in `tests/switch_to_nic.rs`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod control_plane;
pub mod deparse;
pub mod egress;
pub mod event_filter;
pub mod externs;
pub mod int_transit;
pub mod mirror;
pub mod pipeline;
pub mod tables;

pub use control_plane::ControlPlane;
pub use egress::{DartEgress, EgressConfig, SwitchError};
pub use int_transit::{IntRole, IntSwitch};

/// Identity and addressing of one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchIdentity {
    /// The switch's node ID (what INT path tracing records).
    pub switch_id: u32,
    /// Source MAC used on crafted report frames.
    pub mac: dta_wire::ethernet::Address,
    /// Source IP used on crafted report frames.
    pub ip: dta_wire::ipv4::Address,
}

impl SwitchIdentity {
    /// Derive a deterministic identity from a switch ID (handy for
    /// building large topologies).
    pub fn derived(switch_id: u32) -> SwitchIdentity {
        let id = switch_id.to_be_bytes();
        SwitchIdentity {
            switch_id,
            mac: dta_wire::ethernet::Address([0x02, 0xDA, id[0], id[1], id[2], id[3]]),
            ip: dta_wire::ipv4::Address([10, 128 | (id[1] & 0x7F), id[2], id[3]]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_identities_are_unique() {
        let a = SwitchIdentity::derived(1);
        let b = SwitchIdentity::derived(2);
        assert_ne!(a.mac, b.mac);
        assert_ne!(a.ip, b.ip);
        assert_eq!(a.switch_id, 1);
    }

    #[test]
    fn derived_macs_are_unicast_local() {
        let id = SwitchIdentity::derived(77);
        assert!(id.mac.is_unicast());
        assert_eq!(id.mac.0[0], 0x02, "locally administered");
    }
}
