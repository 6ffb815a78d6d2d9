//! # dta-topology — fat-trees, workloads, and the end-to-end simulator
//!
//! The paper's evaluation collects INT path tracing "on a 5-hop fat-tree
//! topology" (§1, §5). This crate supplies that substrate:
//!
//! * [`fattree`] — k-ary fat-trees (edge/aggregation/core) with host
//!   addressing and ECMP routing; inter-pod paths are exactly the 5
//!   switch hops of Figure 4.
//! * [`flowgen`] — reproducible flow workloads: uniform or Zipf-skewed
//!   host pairs, realistic 5-tuples, no duplicate keys unless asked.
//! * [`sim`] — the end-to-end simulator: every switch is a
//!   `dta_switch::IntSwitch` running the real report-crafting pipeline,
//!   frames cross a lossy [`dta_rdma::link`], land in a
//!   `dta_collector::CollectorCluster` via the simulated RNIC, and
//!   queries run against the DMA'd bytes. Nothing is short-circuited:
//!   a queryability number out of this simulator exercised parser,
//!   iCRC, PSN, rkey and slot logic on every single report. The same
//!   simulator runs the steady-state regime: `FatTreeSim::tick` sends
//!   one packet of every long-lived flow under change-triggered
//!   reporting, and `FatTreeSim::fail_switch` drives ECMP failover and
//!   re-reports.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fattree;
pub mod flowgen;
pub mod sim;

pub use fattree::{FatTree, Host, Layer, Path};
pub use flowgen::FlowGenerator;
pub use sim::{FatTreeSim, SimConfig, SimReport};
