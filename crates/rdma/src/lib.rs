//! # dta-rdma — a simulated RDMA NIC for direct telemetry access
//!
//! DART's zero-CPU property rests on one hardware behaviour: an
//! RDMA-capable NIC parses incoming RoCEv2 packets and DMAs their
//! payloads straight into registered host memory, never interrupting a
//! core. This crate reproduces that data path in software, faithfully
//! enough that the rest of the system cannot tell the difference:
//!
//! * [`mr`] — registered memory regions with virtual base addresses,
//!   remote keys (rkeys) and access flags; reads/writes are bounds- and
//!   permission-checked exactly like a real HCA's MTT/MPT lookup.
//! * [`qp`] — queue pairs (UC and RC) with 24-bit PSN tracking: UC
//!   tolerates gaps silently (lost reports simply age the data, §3), RC
//!   answers ACK/NAK.
//! * [`nic`] — the receive pipeline: Ethernet → IPv4 → UDP(4791) → iCRC
//!   verification → QP/PSN checks → rkey/bounds checks → DMA or atomic
//!   execution (WRITE, FETCH_ADD, COMPARE_SWAP) — plus counters for every
//!   drop reason.
//! * [`native`] — the §7 SmartNIC extension: one packet carrying a list
//!   of slot addresses, fanned out into `N` DMA writes.
//! * [`link`] — a lossy, reordering link model connecting switches to
//!   collectors, carrying batches of frames in a reusable
//!   [`link::FrameArena`] (or single owned frames over a crossbeam
//!   channel, for switch and collector on separate threads).
//! * [`verbs`] — the host-side API: register memory, create QPs, export
//!   the [`verbs::RemoteEndpoint`] descriptor that the switch control
//!   plane loads into its collector lookup table.
//!
//! What is modelled *behaviourally* rather than cycle-accurately: DMA
//! bandwidth and message-rate ceilings live in `dta-collector::cycles`
//! (used for the Figure 1 arithmetic); this crate executes the semantics.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod id_table;
pub mod link;
pub mod mr;
pub mod native;
pub mod nic;
pub mod qp;
pub mod verbs;

pub use mr::{AccessFlags, CommitKind, MemoryHandle, MemoryRegion};
pub use nic::{NicCounters, NicError, RNic};
pub use qp::{QpState, QueuePair, Transport};
pub use verbs::{Device, RemoteEndpoint};
