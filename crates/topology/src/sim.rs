//! The end-to-end DART simulator.
//!
//! Wires the whole paper together: a fat-tree of `IntSwitch`es (real
//! pipeline, real CRC hashing, real RoCEv2 deparsing), a lossy link, and
//! a collector cluster whose simulated RNICs parse, validate and DMA
//! every report. Ground truth is one packed flow id per flow, from which
//! the flow's key and true value are derived, so queries can be
//! classified as correct / empty / error — the §5 metrics — including
//! per-age buckets for the Figure 4 aging curves.
//!
//! The same switches also run §2's production regime, event-triggered
//! collection: [`FatTreeSim::tick`] sends one more packet of every flow
//! run so far, and each sink reports only when its event filter sees a
//! path change. [`FatTreeSim::fail_switch`] takes an aggregation or core
//! switch down, so ECMP failover moves paths and the next tick re-reports
//! exactly the affected flows.

use dta_collector::{CollectorCluster, CollectorHealth, FaultDrops, SweepConfig};
use dta_core::config::DartConfig;
use dta_core::hash::MappingKind;
use dta_core::primitive::{increment_encode, seq_newest, PrimitiveSpec};
use dta_core::query::{classify, QueryClass, QueryOutcome, ReturnPolicy};
use dta_obs::{EventKind, Gauge, Obs};
use dta_rdma::link::{link, FaultModel, FrameArena, LinkStats, LinkTx};
use dta_rdma::nic::DropReason;
use dta_switch::control_plane::{ControlPlane, HealthMonitor, ProbeConfig};
use dta_switch::egress::{EgressConfig, SwitchError};
use dta_switch::event_filter::EventFilter;
use dta_switch::int_transit::{IntError, IntPacket, IntRole, IntSwitch};
use dta_switch::SwitchIdentity;
use dta_wire::dart::ChecksumWidth;
use dta_wire::int::{HopMetadata, IntStack};
use dta_wire::roce::Psn;
use dta_wire::FiveTuple;

use dta_telemetry::int_path::PATH_HOPS;

use crate::fattree::{FatTree, Layer, Path, TopologyError};
use crate::flowgen::{Flow, FlowGenerator, Skew};

/// How a finished flow's report copies reach the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportMode {
    /// Emit all `N` copies deterministically (the steady-state of
    /// per-packet reporting — every slot eventually written).
    AllCopies,
    /// Emit this many reports, each to an RNG-chosen copy slot (models
    /// a flow with few packets that may not cover every slot).
    PerPacket(u8),
}

/// What breaks when a scheduled collector fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The host dies: frames vanish, probes time out, queries error.
    /// Recovery restarts it with *wiped memory*.
    Crash,
    /// The NIC silently eats telemetry and probes; the host stays up
    /// (queries over the management network still reach it).
    Blackhole,
    /// The last-hop link turns lossy.
    Degrade {
        /// Loss probability in `[0, 1]`.
        loss: f64,
    },
}

/// One scheduled collector fault, driven by the simulator's frame clock
/// (total frames sent on the switch→collector link).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectorFault {
    /// Which collector breaks.
    pub index: u32,
    /// Fires once the link has carried this many frames.
    pub after_frames: u64,
    /// What breaks.
    pub kind: FaultKind,
    /// Recover this many frames after the fault fires (`None` = never).
    pub recover_after: Option<u64>,
}

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Fat-tree arity.
    pub k: u8,
    /// The translation primitive reports commit through (§4). Key-Write
    /// overwrites slots, Append grows per-listkey rings, Key-Increment
    /// accumulates counters — all three ride the same egress → link →
    /// NIC → store → query pipeline.
    pub primitive: PrimitiveSpec,
    /// Slots per collector (power of two — switch constraint).
    pub slots: u64,
    /// Redundant copies per key (`N`).
    pub copies: u8,
    /// Number of collectors.
    pub collectors: u32,
    /// Stored checksum width.
    pub checksum: ChecksumWidth,
    /// Link fault model between switches and collectors.
    pub fault: FaultModel,
    /// Destination skew of the workload.
    pub skew: Skew,
    /// Report emission mode.
    pub mode: ReportMode,
    /// Query return policy.
    pub policy: ReturnPolicy,
    /// Master seed.
    pub seed: u64,
    /// Scheduled collector faults (the chaos schedule).
    pub faults: Vec<CollectorFault>,
    /// First PSN on every switch→collector queue pair (lets tests start
    /// just below the 24-bit wrap).
    pub initial_psn: u32,
    /// Health-monitor probe loop parameters (ticks = link frames sent).
    pub probe: ProbeConfig,
    /// Recovery re-replication sweep pacing (batch size, inter-batch
    /// gap, retry policy).
    pub sweep: SweepConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            k: 4,
            primitive: PrimitiveSpec::KeyWrite,
            slots: 1 << 14,
            copies: 2,
            collectors: 1,
            checksum: ChecksumWidth::B32,
            fault: FaultModel::Perfect,
            skew: Skew::Uniform,
            mode: ReportMode::AllCopies,
            policy: ReturnPolicy::Plurality,
            seed: 0xDA27,
            faults: Vec::new(),
            initial_psn: 0,
            probe: ProbeConfig::default(),
            sweep: SweepConfig::default(),
        }
    }
}

/// Report candidates and reports of event-triggered collection
/// ([`FatTreeSim::tick`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Report candidates (one per flow packet reaching its sink).
    pub candidates: u64,
    /// Reports emitted (× `N` RDMA WRITEs each).
    pub reports: u64,
}

/// Register cells of each sink's event filter.
const EVENT_FILTER_CELLS: u64 = 1 << 14;

/// Outcome tallies plus per-age buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Keys answered correctly.
    pub correct: u64,
    /// Keys with empty returns.
    pub empty: u64,
    /// Keys answered incorrectly.
    pub error: u64,
    /// Keys whose every holding collector was unreachable at query time
    /// (the detection window of a crash, before failover kicks in).
    pub unreachable: u64,
    /// Success rate per age bucket, oldest first (Figure 4's x-axis).
    pub age_buckets: Vec<f64>,
    /// Link delivery statistics.
    pub link: LinkStats,
    /// Total RDMA WRITEs executed by collector NICs.
    pub nic_writes: u64,
    /// Total RDMA FETCH_ADDs executed by collector NICs (the
    /// Key-Increment commit count; zero for the WRITE-based primitives).
    pub nic_atomics: u64,
    /// Per-collector drop histograms (NIC receive-path reasons plus
    /// fabric-level fault drops), indexed by collector ID.
    pub drop_histograms: Vec<Vec<(DropReason, u64)>>,
    /// Per-collector fault-drop tallies, indexed by collector ID.
    pub fault_drops: Vec<FaultDrops>,
}

impl SimReport {
    /// Total keys queried.
    pub fn total(&self) -> u64 {
        self.correct + self.empty + self.error + self.unreachable
    }

    /// Overall query success rate.
    pub fn success_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.correct as f64 / self.total() as f64
        }
    }
}

/// Errors from the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Topology-level failure.
    Topology(TopologyError),
    /// Switch-pipeline failure.
    Switch(IntError),
    /// Store/collector configuration failure.
    Config(dta_core::DartError),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::Topology(e) => write!(f, "topology: {e}"),
            SimError::Switch(e) => write!(f, "switch: {e}"),
            SimError::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<TopologyError> for SimError {
    fn from(e: TopologyError) -> Self {
        SimError::Topology(e)
    }
}

impl From<IntError> for SimError {
    fn from(e: IntError) -> Self {
        SimError::Switch(e)
    }
}

impl From<dta_core::DartError> for SimError {
    fn from(e: dta_core::DartError) -> Self {
        SimError::Config(e)
    }
}

/// FETCH_ADD deltas of 1 a Key-Increment flow sends: `PerPacket(n)`
/// models an n-packet flow, and its total is its true value.
fn increments_per_flow(mode: ReportMode) -> u64 {
    match mode {
        ReportMode::AllCopies => 1,
        ReportMode::PerPacket(count) => u64::from(count),
    }
}

/// A flow's true value, rebuilt inline: the padded INT path (Key-Write,
/// Append) or the 8-byte counter total (Key-Increment).
struct TrueValue {
    bytes: [u8; PATH_HOPS * 4],
    len: usize,
}

impl core::ops::Deref for TrueValue {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Position of switch `id` in [`FatTreeSim`]'s switch table.
fn switch_index(id: u32) -> usize {
    id as usize - 1
}

/// The end-to-end simulator.
pub struct FatTreeSim {
    tree: FatTree,
    config: SimConfig,
    /// Every switch, indexed by `id - 1` (fat-tree switch IDs are dense
    /// from 1), so iteration — and with it the order failover records
    /// drain in — is ascending switch ID.
    switches: Vec<IntSwitch>,
    cluster: CollectorCluster,
    tx: LinkTx,
    /// The frames of the flow in flight: crafted here by the sink's
    /// egress, rewritten by the link into what it delivered, read in
    /// place by the cluster, then cleared for the next flow.
    arena: FrameArena,
    flowgen: FlowGenerator,
    /// Ground truth in insertion (age) order: flow `i`'s packed id
    /// ([`FlowGenerator::next_flow_and_id`]) is `truth_ids[i]`. Its key
    /// is the id's inverse and its true value a pure function of the key
    /// (see [`FatTreeSim::true_value`]). The flow generator never repeats
    /// a tuple, so every flow has its own entry.
    truth_ids: Vec<u64>,
    monitor: HealthMonitor,
    /// Scheduled faults not yet fired.
    pending_faults: Vec<CollectorFault>,
    /// `(due_frame, collector)` recoveries for fired faults.
    pending_recoveries: Vec<(u64, u32)>,
    obs: Obs,
    /// The `dta_link_{sent,delivered,dropped}` gauges, registered once
    /// when `obs` is enabled so a drain only stores three values.
    link_gauges: Option<[Gauge; 3]>,
    /// `LinkStats::dropped` at the last drain, so link-level losses can
    /// be logged as individual events.
    link_dropped_seen: u64,
    /// Aggregation and core switches taken down by
    /// [`FatTreeSim::fail_switch`]; every route steers around them.
    failed: Vec<u32>,
    /// The event filter of every edge switch (the sink of every route),
    /// indexed like `switches`; built by the first [`FatTreeSim::tick`].
    filters: Vec<EventFilter>,
}

impl FatTreeSim {
    /// Build the full system: tree, switches, collectors, links.
    ///
    /// Observability is a no-op by default (zero-cost call sites); use
    /// [`FatTreeSim::new_with_obs`] to trace every report's life.
    pub fn new(config: SimConfig) -> Result<FatTreeSim, SimError> {
        Self::new_with_obs(config, Obs::noop())
    }

    /// Like [`FatTreeSim::new`], threading `obs` through every stage:
    /// switch egresses (report crafting, failover remaps), the health
    /// monitor (probe misses, liveness flips, backoff), the link (frame
    /// events), and the cluster (NIC verdicts, slot writes, query
    /// probes and decisions).
    pub fn new_with_obs(config: SimConfig, obs: Obs) -> Result<FatTreeSim, SimError> {
        let tree = FatTree::new(config.k)?;

        // Collectors first (their directory configures the switches).
        // The builder normalises the geometry per primitive — Append has
        // no copy fan-out, Key-Increment stores 8-byte counter words —
        // so the switch egress config is derived from the *built* DART
        // config, keeping both sides of the wire on one layout.
        let dart_config = DartConfig::builder()
            .slots(config.slots)
            .copies(config.copies)
            .checksum(config.checksum)
            .value_len(PATH_HOPS * 4)
            .collectors(config.collectors)
            .mapping(MappingKind::Crc)
            .policy(config.policy)
            .primitive(config.primitive)
            .build()?;
        let layout = dart_config.layout;
        let copies = dart_config.copies;
        let mut cluster = CollectorCluster::with_fault_seed(dart_config, config.seed ^ 0xFA17)?;
        cluster.attach_obs(&obs);

        // Switches, each running the real egress pipeline.
        let egress_config = EgressConfig {
            primitive: config.primitive,
            copies,
            slots: config.slots,
            layout,
            collectors: config.collectors,
            udp_src_port: 49152,
        };
        let mut switches = Vec::new();
        for id in tree.all_switch_ids() {
            debug_assert_eq!(switch_index(id), switches.len(), "dense switch IDs");
            let mut sw = IntSwitch::new(
                SwitchIdentity::derived(id),
                egress_config,
                PATH_HOPS,
                config.seed ^ u64::from(id),
            )
            .map_err(|e| SimError::Switch(IntError::Switch(e)))?;
            // Each switch gets its own QPs at every collector so its PSN
            // sequence is independently tracked.
            let directory = cluster.directory_for_switch_from(Psn::new(config.initial_psn));
            ControlPlane::new()
                .install_directory(sw.egress_mut(), &directory)
                .map_err(|e| SimError::Switch(IntError::Switch(e)))?;
            sw.egress_mut().attach_obs(&obs);
            switches.push(sw);
        }

        // Frames travel in the arena, never over the link's channel.
        let (tx, _rx) = link(config.fault, config.seed ^ 0x11A);
        let flowgen = FlowGenerator::new(tree, config.skew, config.seed ^ 0xF10);
        let mut monitor = HealthMonitor::new(config.collectors, config.probe);
        monitor.attach_obs(&obs);
        let pending_faults = config.faults.clone();
        let link_gauges = obs.is_enabled().then(|| {
            ["dta_link_sent", "dta_link_delivered", "dta_link_dropped"]
                .map(|name| obs.registry().gauge(name))
        });
        Ok(FatTreeSim {
            tree,
            config,
            switches,
            cluster,
            tx,
            arena: FrameArena::new(),
            flowgen,
            truth_ids: Vec::new(),
            monitor,
            pending_faults,
            pending_recoveries: Vec::new(),
            obs,
            link_gauges,
            link_dropped_seen: 0,
            failed: Vec::new(),
            filters: Vec::new(),
        })
    }

    /// The observability handle this simulator reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The underlying topology.
    pub fn tree(&self) -> FatTree {
        self.tree
    }

    /// Number of flows simulated so far.
    pub fn flows_run(&self) -> u64 {
        self.truth_ids.len() as u64
    }

    /// Every reported flow's key and true value, oldest first, both
    /// rebuilt from the flow's packed id.
    fn truths(&self) -> impl Iterator<Item = (FiveTuple, TrueValue)> + '_ {
        self.truth_ids.iter().map(|&id| {
            let flow = self.flowgen.flow_from_id(id);
            (flow.tuple, self.true_value(&flow))
        })
    }

    /// The value a correct query for `flow` returns. Key-Write and
    /// Append: the INT path its route's switches stamp, padded to
    /// `PATH_HOPS` hops. Key-Increment: its packet count (the generator
    /// never repeats a tuple, so the total is this flow's alone).
    fn true_value(&self, flow: &Flow) -> TrueValue {
        let mut value = TrueValue {
            bytes: [0; PATH_HOPS * 4],
            len: PATH_HOPS * 4,
        };
        if self.config.primitive == PrimitiveSpec::KeyIncrement {
            let total = increment_encode(increments_per_flow(self.config.mode));
            value.bytes[..total.len()].copy_from_slice(&total);
            value.len = total.len();
            return value;
        }
        let route = self
            .route(flow)
            .expect("recorded flows route within the tree");
        let mut stack = IntStack::new();
        for switch_id in route {
            stack
                .push(HopMetadata { switch_id })
                .expect("fat-tree routes fit the INT stack");
        }
        stack
            .write_padded_value_bytes(&mut value.bytes)
            .expect("fat-tree routes fit the padded value");
        value
    }

    /// The route `flow`'s packets take now, around failed switches.
    fn route(&self, flow: &Flow) -> Result<Path, TopologyError> {
        self.tree
            .route_with_failures(flow.src, flow.dst, &flow.tuple, &self.failed)
    }

    /// One packet of `flow` accumulating INT along `route`.
    fn int_packet(&mut self, flow: &Flow, route: &Path) -> Result<IntPacket, IntError> {
        let mut packet = IntPacket::new(flow.tuple);
        for (i, &hop) in route.iter().enumerate() {
            let role = if i == 0 {
                IntRole::Source
            } else {
                IntRole::Transit
            };
            self.switches[switch_index(hop)].process(&mut packet, role)?;
        }
        Ok(packet)
    }

    /// Run one flow end to end; returns its key.
    pub fn run_flow(&mut self) -> Result<FiveTuple, SimError> {
        let (flow, id) = self.flowgen.next_flow_and_id();
        let route = self.route(&flow)?;
        let packet = self.int_packet(&flow, &route)?;

        // Sink reporting (the last hop on the route): every frame of the
        // flow is crafted straight into the arena.
        let sink_id = *route.last().expect("routes are non-empty");
        let sink = self.switches[switch_index(sink_id)].egress_mut();
        let key = flow.tuple.to_bytes();
        let frames = &mut self.arena;
        match self.config.primitive {
            PrimitiveSpec::KeyWrite | PrimitiveSpec::Append { .. } => {
                let mut value = [0u8; PATH_HOPS * 4];
                packet
                    .stack
                    .write_padded_value_bytes(&mut value)
                    .map_err(|_| SimError::Switch(IntError::StackOverflow))?;
                match (self.config.primitive, self.config.mode) {
                    // Reports to RNG-chosen copy slots.
                    (PrimitiveSpec::KeyWrite, ReportMode::PerPacket(count)) => {
                        for _ in 0..count {
                            sink.craft_report_into(&key, &value, frames)
                                .map_err(IntError::Switch)?;
                        }
                    }
                    // Key-Write: all `N` copies. Append: one ring entry
                    // per finished flow, whatever the report mode — it
                    // has no copy fan-out to cover, and a repeated entry
                    // would (correctly) read back twice.
                    _ => sink
                        .craft_into(&key, &value, frames)
                        .map_err(IntError::Switch)?,
                }
            }
            PrimitiveSpec::KeyIncrement => {
                let delta = increment_encode(1);
                for _ in 0..increments_per_flow(self.config.mode) {
                    sink.craft_into(&key, &delta, frames)
                        .map_err(IntError::Switch)?;
                }
            }
        }
        self.truth_ids.push(id);

        // Drain the wire into the collectors.
        self.drain_link();
        self.advance_faults();

        Ok(flow.tuple)
    }

    /// Take aggregation or core switch `id` down. From now on every route,
    /// and with it every flow's true value, fails over around it, so the
    /// next [`FatTreeSim::tick`] re-reports exactly the flows whose path
    /// moved. An edge switch is refused: its hosts have no other path.
    pub fn fail_switch(&mut self, id: u32) -> Result<(), TopologyError> {
        if !matches!(
            self.tree.layer_of(id),
            Some(Layer::Aggregation | Layer::Core)
        ) {
            return Err(TopologyError::NotFailable(id));
        }
        if !self.failed.contains(&id) {
            self.failed.push(id);
        }
        Ok(())
    }

    /// Every flow run so far, oldest first, with the route its packets
    /// take now.
    pub fn routes(&self) -> impl Iterator<Item = (FiveTuple, Path)> + '_ {
        self.truth_ids.iter().map(|&id| {
            let flow = self.flowgen.flow_from_id(id);
            let route = self
                .route(&flow)
                .expect("recorded flows route within the tree");
            (flow.tuple, route)
        })
    }

    /// One tick of event-triggered collection (§2): every flow run so far
    /// sends one packet along its current route through the INT pipeline,
    /// and its sink's event filter decides whether it reports. A filter
    /// reports a first sighting, a path change, and a flow whose cell a
    /// colliding flow overwrote (an extra report, never a missed change).
    /// A report is all `N` copies, crafted into the arena as
    /// [`FatTreeSim::run_flow`] crafts them; the link drains and the fault
    /// machinery advances once per tick. Key-Write only: the other
    /// primitives return an error.
    pub fn tick(&mut self) -> Result<TickStats, SimError> {
        if self.config.primitive != PrimitiveSpec::KeyWrite {
            return Err(SimError::Switch(IntError::Switch(
                SwitchError::InvalidPrimitive("event-triggered ticks report Key-Write paths"),
            )));
        }
        if self.filters.is_empty() {
            let (edges, _, _) = self.tree.layer_counts();
            self.filters = (0..edges)
                .map(|_| EventFilter::new(EVENT_FILTER_CELLS))
                .collect();
        }
        let mut stats = TickStats::default();
        for i in 0..self.truth_ids.len() {
            let flow = self.flowgen.flow_from_id(self.truth_ids[i]);
            let route = self.route(&flow)?;
            let packet = self.int_packet(&flow, &route)?;
            let sink = switch_index(*route.last().expect("routes are non-empty"));
            let key = flow.tuple.to_bytes();
            let mut value = [0u8; PATH_HOPS * 4];
            packet
                .stack
                .write_padded_value_bytes(&mut value)
                .map_err(|_| SimError::Switch(IntError::StackOverflow))?;
            stats.candidates += 1;
            if self.filters[sink].should_report(&key, &value) {
                stats.reports += 1;
                self.switches[sink]
                    .egress_mut()
                    .craft_into(&key, &value, &mut self.arena)
                    .map_err(IntError::Switch)?;
            }
        }
        self.drain_link();
        self.advance_faults();
        Ok(stats)
    }

    /// [`TickStats`] summed over every tick so far.
    pub fn tick_totals(&self) -> TickStats {
        self.filters
            .iter()
            .fold(TickStats::default(), |totals, filter| {
                let stats = filter.stats();
                TickStats {
                    candidates: totals.candidates + stats.reported + stats.suppressed,
                    reports: totals.reports + stats.reported,
                }
            })
    }

    /// Put the arena's frames on the link, flush it, and feed every
    /// delivered frame to the cluster (which logs each as a delivered
    /// link frame); then log the link-level drops and advance the
    /// observability clock to the frame count.
    fn drain_link(&mut self) {
        self.tx.transmit(&mut self.arena);
        self.tx.flush_into(&mut self.arena);
        self.cluster.deliver_batch(&self.arena);
        self.arena.clear();
        let stats = self.tx.stats();
        if self.obs.is_enabled() {
            for _ in self.link_dropped_seen..stats.dropped {
                self.obs.event(EventKind::LinkFrame { delivered: false });
            }
        }
        if let Some([sent, delivered, dropped]) = &self.link_gauges {
            sent.set(stats.sent as i64);
            delivered.set(stats.delivered as i64);
            dropped.set(stats.dropped as i64);
        }
        self.link_dropped_seen = stats.dropped;
        self.obs.set_tick(stats.sent);
    }

    /// Advance the chaos machinery to the current frame clock: fire due
    /// faults, perform due recoveries, and run the health monitor's probe
    /// loop. A verdict flip pushes the new liveness mask into every
    /// switch's liveness registers and the query side — the detection
    /// path the data plane never sees per packet.
    fn advance_faults(&mut self) {
        let now = self.tx.stats().sent;
        let mut i = 0;
        while i < self.pending_faults.len() {
            if self.pending_faults[i].after_frames <= now {
                let fault = self.pending_faults.remove(i);
                let health = match fault.kind {
                    FaultKind::Crash => CollectorHealth::Crashed,
                    FaultKind::Blackhole => CollectorHealth::Blackholed,
                    FaultKind::Degrade { loss } => CollectorHealth::Degraded { loss },
                };
                self.cluster.set_health(fault.index, health);
                if let Some(after) = fault.recover_after {
                    self.pending_recoveries.push((now + after, fault.index));
                }
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.pending_recoveries.len() {
            if self.pending_recoveries[i].0 <= now {
                let (_, index) = self.pending_recoveries.remove(i);
                self.cluster.recover(index);
            } else {
                i += 1;
            }
        }
        let prev = self.monitor.mask();
        let cluster = &mut self.cluster;
        if let Some(mask) = self.monitor.tick(now, |id| cluster.probe_rtt(id)) {
            for sw in &mut self.switches {
                for id in 0..mask.total() {
                    sw.egress_mut()
                        .set_collector_liveness(id, mask.is_live(id))
                        .expect("mask sized to the directory");
                }
            }
            self.cluster.set_liveness_mask(mask);
            // Any collector transitioning dead→alive gets a recovery
            // sweep: the switches' failover logs say which keys were
            // remapped during the outage, the pre-flip mask says where
            // they went, and (for Append) the switch tail registers say
            // where the primary's rings left off.
            for id in 0..mask.total() {
                if mask.is_live(id) && !prev.is_live(id) {
                    let mut records = Vec::new();
                    for sw in &mut self.switches {
                        records.extend(sw.egress_mut().drain_failover_records(id));
                    }
                    let mut tails: Vec<(u64, u32)> = Vec::new();
                    if matches!(self.config.primitive, PrimitiveSpec::Append { .. }) {
                        for ring in 0..self.config.primitive.rings(self.config.slots) {
                            let mut newest = 0u32;
                            for sw in &self.switches {
                                if let Some(tail) = sw.egress().ring_tail(id, ring) {
                                    newest = seq_newest(newest, tail);
                                }
                            }
                            if newest != 0 {
                                tails.push((ring, newest));
                            }
                        }
                    }
                    self.cluster
                        .schedule_rerepl(id, prev, records, &tails, self.config.sweep, now);
                }
            }
        }
        // Drive in-flight sweeps one frame-clock step; a completed sweep
        // hands back the ring tails its re-appends advanced, which every
        // switch must adopt before its next append to those rings.
        for rec in self.cluster.rerepl_tick(now) {
            for sw in &mut self.switches {
                sw.egress_mut()
                    .set_ring_tail(rec.collector, rec.ring, rec.stored_seq)
                    .expect("reconciled ring within geometry");
            }
        }
    }

    /// The control plane's current liveness verdicts.
    pub fn liveness_mask(&self) -> dta_core::hash::LivenessMask {
        self.monitor.mask()
    }

    /// Run `n` flows.
    pub fn run_flows(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.run_flow()?;
        }
        Ok(())
    }

    /// Query one previously reported flow under the configured policy,
    /// surfacing unreachable collectors as errors (not as `Empty`).
    pub fn try_query_flow(
        &self,
        tuple: &FiveTuple,
    ) -> Result<QueryOutcome, dta_collector::QueryError> {
        self.cluster.try_query(&tuple.to_bytes())
    }

    /// Run one flow in *postcard mode* (Table 1 row 2): every switch on
    /// the path reports its own local measurement keyed by
    /// `(switch ID, 5-tuple)`. Returns the flow key and its route.
    ///
    /// Postcard truths are not entered into the aging bookkeeping (their
    /// key space is disjoint from the in-band keys); query them back via
    /// [`dta_collector::QueryService::postcard`] over
    /// [`FatTreeSim::cluster`].
    pub fn run_flow_postcards(&mut self) -> Result<(FiveTuple, Path), SimError> {
        use dta_telemetry::event::Backend;
        use dta_telemetry::postcard::{PostcardBackend, PostcardKey};

        let flow = self.flowgen.next_flow();
        let route = self.route(&flow)?;
        for (hop, &switch_id) in route.iter().enumerate() {
            let record = PostcardBackend::record(
                &PostcardKey {
                    switch_id,
                    flow: flow.tuple,
                },
                &Self::synthetic_measurement(hop as u32, switch_id),
            );
            let sw = &mut self.switches[switch_index(switch_id)];
            for copy in 0..self.config.copies {
                sw.egress_mut()
                    .craft_report_copy_into(&record.key, &record.value, copy, &mut self.arena)
                    .map_err(IntError::Switch)?;
            }
        }
        self.drain_link();
        self.advance_faults();
        Ok((flow.tuple, route))
    }

    /// The deterministic per-hop measurement postcard mode reports
    /// (reproducible ground truth for tests).
    pub fn synthetic_measurement(
        hop: u32,
        switch_id: u32,
    ) -> dta_telemetry::postcard::LocalMeasurement {
        dta_telemetry::postcard::LocalMeasurement {
            ingress_ts: 1_000 * (hop + 1),
            egress_ts: 1_000 * (hop + 1) + 100 + switch_id,
            queue_depth: switch_id % 64,
            egress_port: (hop % 48) as u16,
            queue_id: 0,
            flags: 0,
            hop_latency: 100 + switch_id,
        }
    }

    /// Run one flow in *postcard-log mode*: every switch on the path
    /// **appends** its local measurement to the `(switch ID, 5-tuple)`
    /// event-log listkey, so the operator reads the recent measurement
    /// history instead of only the freshest postcard. Requires the sim
    /// to be configured with [`PrimitiveSpec::Append`].
    pub fn run_flow_postcard_log(&mut self) -> Result<(FiveTuple, Path), SimError> {
        use dta_telemetry::event::Backend;
        use dta_telemetry::postcard::{PostcardBackend, PostcardKey};

        let flow = self.flowgen.next_flow();
        let route = self.route(&flow)?;
        for (hop, &switch_id) in route.iter().enumerate() {
            let key = PostcardBackend::encode_log_key(&PostcardKey {
                switch_id,
                flow: flow.tuple,
            });
            let value =
                PostcardBackend::encode_value(&Self::synthetic_measurement(hop as u32, switch_id));
            self.switches[switch_index(switch_id)]
                .egress_mut()
                .craft_into(&key, &value, &mut self.arena)
                .map_err(IntError::Switch)?;
        }
        self.drain_link();
        self.advance_faults();
        Ok((flow.tuple, route))
    }

    /// Query every reported flow and tally outcomes into `buckets` age
    /// buckets (oldest first).
    pub fn query_all(&self, buckets: usize) -> SimReport {
        let buckets = buckets.max(1);
        let total = self.truth_ids.len().max(1);
        let mut correct = 0u64;
        let mut empty = 0u64;
        let mut error = 0u64;
        let mut unreachable = 0u64;
        let mut bucket_correct = vec![0u64; buckets];
        let mut bucket_total = vec![0u64; buckets];

        for (i, (tuple, truth)) in self.truths().enumerate() {
            let bucket = i * buckets / total;
            bucket_total[bucket] += 1;
            match self.cluster.try_query(&tuple.to_bytes()) {
                Err(_) => unreachable += 1,
                Ok(outcome) => match classify(&outcome, &truth) {
                    QueryClass::Correct => {
                        correct += 1;
                        bucket_correct[bucket] += 1;
                    }
                    QueryClass::EmptyReturn => empty += 1,
                    QueryClass::ReturnError => error += 1,
                },
            }
        }

        // Fold the §5 outcome tallies onto the registry, so exporters
        // see the same numbers the report carries.
        if self.obs.is_enabled() {
            let registry = self.obs.registry();
            registry
                .counter("dta_sim_queries_correct_total")
                .add(correct);
            registry.counter("dta_sim_queries_empty_total").add(empty);
            registry.counter("dta_sim_queries_error_total").add(error);
            registry
                .counter("dta_sim_queries_unreachable_total")
                .add(unreachable);
            registry
                .gauge("dta_sim_nic_writes")
                .set(self.cluster.total_writes() as i64);
            registry
                .gauge("dta_sim_nic_atomics")
                .set(self.cluster.total_atomics() as i64);
        }

        SimReport {
            correct,
            empty,
            error,
            unreachable,
            age_buckets: bucket_correct
                .iter()
                .zip(&bucket_total)
                .map(|(&c, &t)| if t == 0 { 0.0 } else { c as f64 / t as f64 })
                .collect(),
            link: self.tx.stats(),
            nic_writes: self.cluster.total_writes(),
            nic_atomics: self.cluster.total_atomics(),
            drop_histograms: (0..self.config.collectors)
                .map(|id| self.cluster.drop_histogram(id))
                .collect(),
            fault_drops: (0..self.config.collectors)
                .map(|id| self.cluster.fault_drops(id))
                .collect(),
        }
    }

    /// Access the collector cluster (e.g. for NIC counters).
    pub fn cluster(&self) -> &CollectorCluster {
        &self.cluster
    }

    /// Mutable access to the cluster (chaos tests inject unscheduled
    /// faults through this). Queries, explicit-policy ones included, are
    /// reads and go through [`FatTreeSim::cluster`].
    pub fn cluster_mut(&mut self) -> &mut CollectorCluster {
        &mut self.cluster
    }
}

impl core::fmt::Debug for FatTreeSim {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FatTreeSim")
            .field("k", &self.config.k)
            .field("flows_run", &self.truth_ids.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_collector::QueryService;

    #[test]
    fn low_load_everything_queryable() {
        let mut sim = FatTreeSim::new(SimConfig {
            slots: 1 << 12,
            ..SimConfig::default()
        })
        .unwrap();
        sim.run_flows(100).unwrap();
        let report = sim.query_all(4);
        assert_eq!(report.total(), 100);
        assert_eq!(report.error, 0);
        // 200 writes into 4096 slots: ~0.2 keys expected to lose both
        // copies to collisions, so allow one aged-out flow.
        assert!(
            report.success_rate() >= 0.99,
            "success {}",
            report.success_rate()
        );
        // Each flow wrote N=2 copies.
        assert_eq!(report.nic_writes, 200);
    }

    #[test]
    fn query_returns_the_actual_path() {
        let mut sim = FatTreeSim::new(SimConfig {
            slots: 1 << 12,
            ..SimConfig::default()
        })
        .unwrap();
        let tuple = sim.run_flow().unwrap();
        match sim.try_query_flow(&tuple).unwrap() {
            QueryOutcome::Answer(value) => {
                let path = dta_telemetry::int_path::IntPathBackend::decode_path(&value).unwrap();
                assert!(!path.is_empty() && path.len() <= 5);
                // Every hop must be a real switch of the tree.
                for id in path {
                    assert!(sim.tree().layer_of(id).is_some(), "bogus hop {id}");
                }
            }
            QueryOutcome::Empty => panic!("fresh flow must be queryable"),
        }
    }

    #[test]
    fn overload_ages_out_old_flows() {
        let mut sim = FatTreeSim::new(SimConfig {
            slots: 256,
            ..SimConfig::default()
        })
        .unwrap();
        sim.run_flows(512).unwrap();
        let report = sim.query_all(4);
        assert!(report.success_rate() < 0.9);
        // Younger buckets must do better than the oldest.
        let first = report.age_buckets[0];
        let last = *report.age_buckets.last().unwrap();
        assert!(last > first, "newest {last} should beat oldest {first}");
        // 32-bit checksums: no wrong answers expected at this scale.
        assert_eq!(report.error, 0);
    }

    #[test]
    fn loss_reduces_but_does_not_break_collection() {
        let mut sim = FatTreeSim::new(SimConfig {
            slots: 1 << 12,
            fault: FaultModel::Bernoulli { loss: 0.3 },
            mode: ReportMode::PerPacket(1),
            ..SimConfig::default()
        })
        .unwrap();
        sim.run_flows(300).unwrap();
        let report = sim.query_all(2);
        assert!(report.link.dropped > 0, "loss model must bite");
        // With one report per flow and 30% loss, roughly 70% remain
        // queryable; allow wide slack.
        let rate = report.success_rate();
        assert!(
            (0.5..0.95).contains(&rate),
            "success {rate} out of expected band"
        );
    }

    #[test]
    fn multi_collector_sharding_works_end_to_end() {
        let mut sim = FatTreeSim::new(SimConfig {
            slots: 1 << 10,
            collectors: 4,
            ..SimConfig::default()
        })
        .unwrap();
        sim.run_flows(200).unwrap();
        let report = sim.query_all(2);
        assert!(report.success_rate() > 0.99);
        // Writes must be spread over several collectors.
        let with_writes = (0..4)
            .filter(|&i| sim.cluster().collector(i).unwrap().nic_counters().writes > 0)
            .count();
        assert!(with_writes >= 2, "only {with_writes} collectors used");
    }

    #[test]
    fn postcard_mode_reconstructs_per_hop_measurements() {
        let mut sim = FatTreeSim::new(SimConfig {
            slots: 1 << 12,
            ..SimConfig::default()
        })
        .unwrap();
        let (tuple, route) = sim.run_flow_postcards().unwrap();
        assert!(!route.is_empty());
        // One query per (switch, flow) reconstructs the whole path view.
        let mut service = QueryService::new(sim.cluster());
        for (hop, &switch_id) in route.iter().enumerate() {
            let m = service
                .postcard(switch_id, tuple)
                .value()
                .unwrap_or_else(|| panic!("postcard from switch {switch_id} lost"));
            assert_eq!(m, FatTreeSim::synthetic_measurement(hop as u32, switch_id));
        }
        // A switch not on the route has nothing to say.
        let off_route = sim
            .tree()
            .all_switch_ids()
            .into_iter()
            .find(|id| !route.contains(id))
            .expect("k=4 has 20 switches");
        assert!(!service.postcard(off_route, tuple).is_value());
    }

    #[test]
    fn scheduled_crash_is_detected_and_failed_over() {
        let mut sim = FatTreeSim::new(SimConfig {
            slots: 1 << 10,
            collectors: 4,
            faults: vec![CollectorFault {
                index: 1,
                after_frames: 200,
                kind: FaultKind::Crash,
                recover_after: None,
            }],
            ..SimConfig::default()
        })
        .unwrap();
        sim.run_flows(400).unwrap();
        // The monitor must have noticed by now.
        assert!(!sim.liveness_mask().is_live(1), "crash went undetected");
        let report = sim.query_all(2);
        // Frames crafted between the crash and its detection died at the
        // crashed host, with the right reason on the books.
        assert!(report.fault_drops[1].crashed > 0, "no crash drops logged");
        assert!(report.drop_histograms[1]
            .iter()
            .any(|&(r, n)| r == DropReason::CollectorDown && n > 0));
        // Never a wrong answer — lost writes read as empty/unreachable.
        assert_eq!(report.error, 0);
        // Flows reported after detection failed over and stay queryable,
        // so the overall rate remains high.
        assert!(
            report.success_rate() > 0.8,
            "success {} too low after failover",
            report.success_rate()
        );
    }

    #[test]
    fn recovery_restores_full_health() {
        let mut sim = FatTreeSim::new(SimConfig {
            slots: 1 << 10,
            collectors: 4,
            faults: vec![CollectorFault {
                index: 2,
                after_frames: 100,
                kind: FaultKind::Blackhole,
                recover_after: Some(300),
            }],
            ..SimConfig::default()
        })
        .unwrap();
        sim.run_flows(600).unwrap();
        // Blackhole fired, was detected, then cleared and re-detected.
        assert!(sim.liveness_mask().is_live(2), "recovery went undetected");
        assert_eq!(
            sim.cluster().health(2),
            dta_collector::CollectorHealth::Healthy
        );
        let report = sim.query_all(2);
        assert!(report.fault_drops[2].blackholed > 0);
        assert_eq!(report.error, 0);
    }

    #[test]
    fn obs_traces_the_full_report_lifecycle() {
        let obs = Obs::new();
        let mut sim = FatTreeSim::new_with_obs(
            SimConfig {
                slots: 1 << 12,
                ..SimConfig::default()
            },
            obs.clone(),
        )
        .unwrap();
        let tuple = sim.run_flow().unwrap();
        assert!(sim.try_query_flow(&tuple).unwrap().is_answer());

        // One flow's full life, in causal order: the sink egress crafts
        // N = 2 copies, the link carries them, the NIC writes two slots,
        // and the query probes both before the policy decides.
        let ring = obs.ring();
        let crafted = ring.events_named("report_crafted");
        assert_eq!(crafted.len(), 2);
        assert!(!ring.events_named("link_frame").is_empty());
        let writes = ring.events_named("slot_write");
        assert_eq!(writes.len(), 2);
        let probes = ring.events_named("query_probe");
        assert_eq!(probes.len(), 2);
        let decisions = ring.events_named("query_decision");
        assert_eq!(decisions.len(), 1);
        assert!(crafted[0].seq < writes[0].seq);
        assert!(writes.last().unwrap().seq < probes[0].seq);
        assert!(probes.last().unwrap().seq < decisions[0].seq);
        assert!(matches!(
            decisions[0].kind,
            EventKind::QueryDecision { answered: true, .. }
        ));

        // The registry agrees with the SimReport it mirrors.
        let report = sim.query_all(1);
        let registry = obs.registry();
        assert_eq!(
            registry.counter_value("dta_sim_queries_correct_total"),
            Some(report.correct)
        );
        assert_eq!(
            registry
                .counter_value("dta_nic_writes_fresh_total")
                .unwrap()
                + registry
                    .counter_value("dta_nic_writes_overwritten_total")
                    .unwrap(),
            report.nic_writes
        );
        assert_eq!(registry.counter_value("dta_switch_reports_total"), Some(2));
    }

    #[test]
    fn append_primitive_end_to_end() {
        let mut sim = FatTreeSim::new(SimConfig {
            primitive: PrimitiveSpec::Append { ring_capacity: 4 },
            slots: 1 << 12,
            ..SimConfig::default()
        })
        .unwrap();
        sim.run_flows(100).unwrap();
        let report = sim.query_all(4);
        assert_eq!(report.total(), 100);
        assert_eq!(report.error, 0);
        // 100 listkeys over 1024 rings of 4 entries. Ring sharing is the
        // loss mode: tail registers are *switch-held*, so two sink
        // switches appending to one ring keep independent tails and can
        // clobber each other's positions (the reader detects this and
        // reports the clobbered listkey as aged out, never wrong).
        assert!(
            report.success_rate() >= 0.9,
            "success {}",
            report.success_rate()
        );
        // One ring WRITE per flow (no copy fan-out), all tagged appends.
        assert_eq!(report.nic_writes, 100);
        assert_eq!(sim.cluster().total_appends(), 100);
        assert_eq!(report.nic_atomics, 0);
    }

    #[test]
    fn append_postcard_log_reads_history_oldest_first() {
        let mut sim = FatTreeSim::new(SimConfig {
            primitive: PrimitiveSpec::Append { ring_capacity: 8 },
            slots: 1 << 12,
            ..SimConfig::default()
        })
        .unwrap();
        let (tuple, route) = sim.run_flow_postcard_log().unwrap();
        let (tuple2, _) = sim.run_flow_postcard_log().unwrap();
        assert_ne!(tuple, tuple2, "flowgen produces distinct flows here");
        let mut service = QueryService::new(sim.cluster());
        for (hop, &switch_id) in route.iter().enumerate() {
            let log = service
                .postcard_log(switch_id, tuple)
                .value()
                .unwrap_or_else(|| panic!("log from switch {switch_id} lost"));
            assert_eq!(
                log,
                vec![FatTreeSim::synthetic_measurement(hop as u32, switch_id)]
            );
        }
    }

    #[test]
    fn key_increment_totals_are_exact_without_loss() {
        let mut sim = FatTreeSim::new(SimConfig {
            primitive: PrimitiveSpec::KeyIncrement,
            slots: 1 << 12,
            mode: ReportMode::PerPacket(5),
            ..SimConfig::default()
        })
        .unwrap();
        sim.run_flows(100).unwrap();
        // Loss-free, every delta lands: no total can vanish or
        // undercount. Counter words carry no key checksum, so a key
        // whose copy slots are shared with another flow reads a *merged*
        // (inflated) total — that is Key-Increment's intrinsic collision
        // mode, bounded here, and exactness holds for everyone else.
        let mut merged = 0u64;
        for (tuple, truth) in sim.truths() {
            let expected = u64::from_be_bytes(truth[..].try_into().unwrap());
            match sim.try_query_flow(&tuple).unwrap() {
                QueryOutcome::Empty => panic!("loss-free increments cannot vanish"),
                QueryOutcome::Answer(bytes) => {
                    let total = u64::from_be_bytes(bytes.as_slice().try_into().unwrap());
                    assert!(
                        total >= expected,
                        "loss-free total undercounts: {total} < {expected}"
                    );
                    if total > expected {
                        merged += 1;
                    }
                }
            }
        }
        assert!(merged <= 5, "too many collision-merged counters: {merged}");
        // 100 flows × 5 packets × N=2 copies, all as FETCH_ADDs.
        assert_eq!(sim.cluster().total_atomics(), 1000);
        assert_eq!(sim.cluster().total_writes(), 0);
    }

    #[test]
    fn key_increment_undercounts_never_overcounts_under_loss() {
        let mut sim = FatTreeSim::new(SimConfig {
            primitive: PrimitiveSpec::KeyIncrement,
            slots: 1 << 12,
            fault: FaultModel::Bernoulli { loss: 0.25 },
            mode: ReportMode::PerPacket(4),
            ..SimConfig::default()
        })
        .unwrap();
        sim.run_flows(200).unwrap();
        assert!(sim.tx.stats().dropped > 0, "loss model must bite");
        // The min-over-copies answer is conservative: totals may lag the
        // truth (lost FETCH_ADDs) but can never exceed it.
        let mut lagging = 0u64;
        for (tuple, truth) in sim.truths() {
            let expected = u64::from_be_bytes(truth[..].try_into().unwrap());
            match sim.try_query_flow(&tuple).unwrap() {
                QueryOutcome::Empty => lagging += 1,
                QueryOutcome::Answer(bytes) => {
                    let total = u64::from_be_bytes(bytes.as_slice().try_into().unwrap());
                    assert!(
                        total <= expected,
                        "overcount: {total} > {expected} for {tuple:?}"
                    );
                    if total < expected {
                        lagging += 1;
                    }
                }
            }
        }
        assert!(lagging > 0, "25% loss must leave some totals lagging");
    }

    /// 200 long-lived flows for event-triggered collection, each reported
    /// once by `run_flow` before any tick. The simulator seeds its flow
    /// generator with `seed ^ 0xF10`, so these are flow-generator seed
    /// 0x71's first 200 flows.
    fn event_sim(collectors: u32) -> FatTreeSim {
        let mut sim = FatTreeSim::new(SimConfig {
            slots: 1 << 14,
            collectors,
            seed: 0x71 ^ 0xF10,
            ..SimConfig::default()
        })
        .unwrap();
        sim.run_flows(200).unwrap();
        sim
    }

    /// The path an operator query returns for `tuple`.
    fn queried_path(sim: &FatTreeSim, tuple: &FiveTuple) -> Option<Vec<u32>> {
        match sim.try_query_flow(tuple).ok()? {
            QueryOutcome::Answer(value) => {
                dta_telemetry::int_path::IntPathBackend::decode_path(&value).ok()
            }
            QueryOutcome::Empty => None,
        }
    }

    #[test]
    fn steady_state_suppresses_almost_everything() {
        let mut sim = event_sim(1);
        let first = sim.tick().unwrap();
        assert_eq!(first.candidates, 200);
        assert_eq!(first.reports, 200, "first sighting always reports");
        for _ in 0..20 {
            let tick = sim.tick().unwrap();
            // Direct-mapped filter cells can collide (two flows evicting
            // each other's digests every tick) — extra reports, never
            // missed changes. Allow a handful.
            assert!(
                tick.reports <= 4,
                "stable paths mostly suppressed, got {}",
                tick.reports
            );
        }
        let totals = sim.tick_totals();
        assert_eq!(totals.candidates, 21 * 200);
        assert!(totals.reports < 200 + 21 * 4);
    }

    #[test]
    fn failure_triggers_rereports_with_new_paths() {
        for collectors in [1, 4] {
            let mut sim = event_sim(collectors);
            sim.tick().unwrap();

            // Pick a core switch actually used by some flows.
            let used_core = sim
                .routes()
                .map(|(_, route)| route)
                .find(|route| route.len() == 5)
                .expect("some inter-pod flow exists")[2];
            let affected: Vec<_> = sim
                .routes()
                .filter(|(_, route)| route.contains(&used_core))
                .map(|(tuple, _)| tuple)
                .collect();
            assert!(!affected.is_empty());

            // Baseline flapping from filter-cell collisions (constant per
            // tick for a fixed flow population).
            let baseline = sim.tick().unwrap().reports;

            sim.fail_switch(used_core).unwrap();
            let tick = sim.tick().unwrap();
            // The affected flows re-report (plus the collision baseline).
            assert!(
                tick.reports >= affected.len() as u64
                    && tick.reports <= affected.len() as u64 + baseline + 2,
                "{collectors} collectors: reports {} vs affected {}",
                tick.reports,
                affected.len()
            );

            // Queries now return the new path, which avoids the failed core.
            for tuple in &affected {
                let path = queried_path(&sim, tuple).expect("reported flows queryable");
                assert!(
                    !path.contains(&used_core),
                    "{collectors} collectors: query returned the pre-failure path"
                );
            }
            // And the next tick returns to the collision baseline.
            assert!(sim.tick().unwrap().reports <= baseline + 2);
            // Ground truth follows the failover: every flow answers its
            // current path.
            let report = sim.query_all(1);
            assert_eq!(report.error, 0, "{collectors} collectors");
            assert_eq!(report.correct, 200, "{collectors} collectors");
        }
    }

    #[test]
    fn unaffected_flows_stay_silent_on_failure() {
        let mut sim = event_sim(1);
        sim.tick().unwrap();
        // Fail a core nobody currently uses (find one).
        let used: std::collections::HashSet<u32> =
            sim.routes().flat_map(|(_, route)| route).collect();
        let all_cores: Vec<u32> = (0..2)
            .flat_map(|a| (0..2).map(move |c| (a, c)))
            .map(|(a, c)| FatTree::new(4).unwrap().core_id(a, c))
            .collect();
        let baseline = sim.tick().unwrap().reports;
        if let Some(&unused) = all_cores.iter().find(|c| !used.contains(c)) {
            sim.fail_switch(unused).unwrap();
            assert!(sim.tick().unwrap().reports <= baseline + 2);
        }
    }

    #[test]
    fn suppression_ratio_matches_section2_motivation() {
        // Per-packet reporting would be candidates; event detection cuts
        // it to ~flows/(flows × ticks) — a ~99% reduction in this run.
        let mut sim = event_sim(1);
        for _ in 0..100 {
            sim.tick().unwrap();
        }
        let t = sim.tick_totals();
        let ratio = t.reports as f64 / t.candidates as f64;
        assert!(ratio < 0.011, "report ratio {ratio}");
    }

    #[test]
    fn only_aggregation_and_core_switches_can_fail() {
        let mut sim = event_sim(1);
        let tree = sim.tree();
        let edge = tree.edge_id(0, 0);
        for id in [0, edge, tree.switch_count() + 1, u32::MAX] {
            assert_eq!(sim.fail_switch(id), Err(TopologyError::NotFailable(id)));
        }
        sim.fail_switch(tree.agg_id(0, 0)).unwrap();
        sim.fail_switch(tree.core_id(1, 1)).unwrap();
        // A refused edge switch stays up: every flow it sinks still
        // routes to it.
        assert!(sim.routes().any(|(_, route)| route.last() == Some(&edge)));
    }

    #[test]
    fn ticks_need_key_write() {
        for primitive in [
            PrimitiveSpec::KeyIncrement,
            PrimitiveSpec::Append { ring_capacity: 4 },
        ] {
            let mut sim = FatTreeSim::new(SimConfig {
                primitive,
                slots: 1 << 12,
                ..SimConfig::default()
            })
            .unwrap();
            sim.run_flows(10).unwrap();
            assert!(matches!(
                sim.tick(),
                Err(SimError::Switch(IntError::Switch(
                    SwitchError::InvalidPrimitive(_)
                )))
            ));
        }
    }

    #[test]
    fn per_packet_mode_converges_to_all_copies() {
        let mut sim = FatTreeSim::new(SimConfig {
            slots: 1 << 12,
            mode: ReportMode::PerPacket(8),
            ..SimConfig::default()
        })
        .unwrap();
        sim.run_flows(100).unwrap();
        let report = sim.query_all(2);
        // 8 random copy draws cover both slots with prob 1 - 2^-7 each.
        assert!(report.success_rate() > 0.95);
    }
}
