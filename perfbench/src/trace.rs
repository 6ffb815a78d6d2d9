//! The traced run: an outside-in mirror of `FatTreeSim::run_flow` and
//! its fault/recovery stepping, assembled from the layers' public calls
//! and timed at every layer boundary.
//!
//! Every call is folded into per-layer totals (time, allocations);
//! full spans are kept only for every `SAMPLE_EVERY`-th operation and
//! written out as JSON lines at exit. The mirror's deterministic
//! counters must equal those of `FatTreeSim` run on the same seed, or
//! the run is marked incorrect.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use dta_collector::{CollectorCluster, QueryError, RereplStats};
use dta_core::config::DartConfig;
use dta_core::hash::MappingKind;
use dta_core::primitive::{increment_encode, PrimitiveSpec};
use dta_core::query::QueryOutcome;
use dta_obs::Obs;
use dta_rdma::link::{link, LinkRx, LinkTx};
use dta_switch::control_plane::{ControlPlane, HealthMonitor};
use dta_switch::egress::{CraftedReport, EgressConfig};
use dta_switch::int_transit::{IntError, IntPacket, IntRole, IntSwitch};
use dta_switch::SwitchIdentity;
use dta_telemetry::int_path::PATH_HOPS;
use dta_topology::fattree::FatTree;
use dta_topology::flowgen::FlowGenerator;
use dta_topology::sim::{CollectorFault, FaultKind, ReportMode, SimConfig, SimError};
use dta_wire::roce::Psn;
use dta_wire::FiveTuple;

use crate::workload::{drive, Kind, Pipeline, Spec, Tally, Truth};
use crate::{alloc, check, e2e_metrics, prefill, run_sim, Metric, Outcome};

/// `FatTreeSim` derives its flow generator's seed from the master seed
/// this way; the mirror must draw the same flows.
const FLOWGEN_SEED_XOR: u64 = 0xF10;

/// Keep full spans for one operation in this many.
const SAMPLE_EVERY: u64 = 1024;

/// The layers the mirror times, in span-name order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Flowgen,
    Route,
    IntTransit,
    Egress,
    Link,
    Deliver,
    ControlPlane,
    Rerepl,
    Truth,
    Query,
    FlowRoot,
    QueryRoot,
}

const LAYERS: usize = 12;

/// The layers a flow's root span contains.
const FLOW_LAYERS: [Layer; 9] = [
    Layer::Flowgen,
    Layer::Route,
    Layer::IntTransit,
    Layer::Egress,
    Layer::Link,
    Layer::Deliver,
    Layer::ControlPlane,
    Layer::Rerepl,
    Layer::Truth,
];

/// A traced run whose layer spans cover less than this share of the
/// flow and query root spans is marked incorrect: a layer's timing went
/// missing from the mirror. Traced runs cover 0.89–0.92; the rest is
/// the timer and bookkeeping cost between spans. Losing egress or
/// delivery (about a third of flow time each) falls far below.
const MIN_SPAN_ACCOUNTED: f64 = 0.8;

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Flowgen => "topology.flowgen",
            Layer::Route => "topology.fattree.route",
            Layer::IntTransit => "switch.int_transit",
            Layer::Egress => "switch.egress",
            Layer::Link => "rdma.link",
            Layer::Deliver => "collector.deliver",
            Layer::ControlPlane => "switch.control_plane",
            Layer::Rerepl => "collector.rerepl",
            Layer::Truth => "topology.sim.truth",
            Layer::Query => "collector.query",
            Layer::FlowRoot => "flow",
            Layer::QueryRoot => "query",
        }
    }
}

/// Busy time and allocations of one layer.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    ns: u64,
    allocs: u64,
}

/// One recorded span; times are nanoseconds since the profiler's epoch.
struct Span {
    layer: Layer,
    op: u64,
    start: u64,
    end: u64,
    /// Index of the parent span (`None` for a root).
    parent: Option<usize>,
}

struct Profiler {
    epoch: Instant,
    totals: [Totals; LAYERS],
    spans: Vec<Span>,
    /// The open root span, when the current operation is sampled.
    root: Option<usize>,
    op: u64,
    ops: u64,
}

impl Profiler {
    fn new() -> Profiler {
        Profiler {
            epoch: Instant::now(),
            totals: [Totals::default(); LAYERS],
            spans: Vec::new(),
            root: None,
            op: 0,
            ops: 0,
        }
    }

    /// Forget everything recorded so far (the prefill is not measured).
    fn reset(&mut self) {
        self.totals = [Totals::default(); LAYERS];
        self.spans.clear();
        self.ops = 0;
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open the root span of a new operation.
    fn begin(&mut self, layer: Layer, start: Instant) {
        self.op = self.ops;
        self.ops += 1;
        self.root = None;
        if self.op.is_multiple_of(SAMPLE_EVERY) {
            self.root = Some(self.spans.len());
            self.spans.push(Span {
                layer,
                op: self.op,
                start: self.since_epoch(start),
                end: 0,
                parent: None,
            });
        }
    }

    fn record(&mut self, layer: Layer, start: Instant, end: Instant, allocs: u64) {
        let t = &mut self.totals[layer as usize];
        t.ns += end.duration_since(start).as_nanos() as u64;
        t.allocs += allocs;
        if layer == Layer::FlowRoot || layer == Layer::QueryRoot {
            if let Some(root) = self.root.take() {
                self.spans[root].end = self.since_epoch(end);
            }
        } else if let Some(root) = self.root {
            self.spans.push(Span {
                layer,
                op: self.op,
                start: self.since_epoch(start),
                end: self.since_epoch(end),
                parent: Some(root),
            });
        }
    }

    fn total(&self, layer: Layer) -> Totals {
        self.totals[layer as usize]
    }

    /// The sampled spans as JSON lines, each with its self time.
    fn spans_jsonl(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end - span.start;
            }
        }
        let mut out = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {}}}",
                span.layer.name(),
                span.op,
                span.start,
                span.end,
                (span.end - span.start).saturating_sub(child_ns[i]),
            );
        }
        out
    }
}

/// Time one layer call into `prof`.
fn timed<T>(prof: &mut Profiler, layer: Layer, f: impl FnOnce() -> T) -> T {
    let allocs = alloc::count();
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    prof.record(layer, start, end, alloc::count() - allocs);
    out
}

/// Work units the layers processed (denominators of the per-unit times).
#[derive(Debug, Clone, Copy, Default)]
struct Units {
    hops: u64,
    frames: u64,
    frame_bytes: u64,
}

/// Set-up phases of the mirror, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    cluster_build: f64,
    switch_install: f64,
    prefill: f64,
}

/// `FatTreeSim` rebuilt from public parts, with every layer call timed.
struct Mirror {
    tree: FatTree,
    config: SimConfig,
    switches: HashMap<u32, IntSwitch>,
    /// Switch IDs in ascending order, so failover records drain in a
    /// fixed order.
    switch_ids: Vec<u32>,
    cluster: CollectorCluster,
    tx: LinkTx,
    rx: LinkRx,
    flowgen: FlowGenerator,
    monitor: HealthMonitor,
    pending_faults: Vec<CollectorFault>,
    pending_recoveries: Vec<(u64, u32)>,
    /// `FatTreeSim`'s ground-truth bookkeeping, kept the same way so the
    /// mirror does the same work per flow.
    truths: Vec<(FiveTuple, Vec<u8>)>,
    truth_index: HashMap<FiveTuple, usize>,
    prof: Profiler,
    units: Units,
}

impl Mirror {
    /// Build the system the way `FatTreeSim::new_with_obs` does, with the
    /// same seed derivations, timing the two set-up phases.
    fn new(config: SimConfig, obs: Obs) -> Result<(Mirror, SetupTimes), String> {
        let mirrored = match config.primitive {
            PrimitiveSpec::KeyWrite => config.mode == ReportMode::AllCopies,
            PrimitiveSpec::KeyIncrement => true,
            PrimitiveSpec::Append { .. } => false,
        };
        if !mirrored {
            return Err(
                "the traced mirror covers the workloads' primitives and report modes only".into(),
            );
        }
        let mut setup = SetupTimes::default();
        let start = Instant::now();
        let tree = FatTree::new(config.k).map_err(|e| e.to_string())?;
        let dart_config = DartConfig::builder()
            .slots(config.slots)
            .copies(config.copies)
            .checksum(config.checksum)
            .value_len(PATH_HOPS * 4)
            .collectors(config.collectors)
            .mapping(MappingKind::Crc)
            .policy(config.policy)
            .primitive(config.primitive)
            .build()
            .map_err(|e| e.to_string())?;
        let layout = dart_config.layout;
        let copies = dart_config.copies;
        let mut cluster = CollectorCluster::with_fault_seed(dart_config, config.seed ^ 0xFA17)
            .map_err(|e| e.to_string())?;
        cluster.attach_obs(&obs);
        setup.cluster_build = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let egress_config = EgressConfig {
            primitive: config.primitive,
            copies,
            slots: config.slots,
            layout,
            collectors: config.collectors,
            udp_src_port: 49152,
        };
        let switch_ids = tree.all_switch_ids();
        let mut switches = HashMap::new();
        for &id in &switch_ids {
            let mut sw = IntSwitch::new(
                SwitchIdentity::derived(id),
                egress_config,
                PATH_HOPS,
                config.seed ^ u64::from(id),
            )
            .map_err(|e| e.to_string())?;
            let directory = cluster.directory_for_switch_from(Psn::new(config.initial_psn));
            ControlPlane::new()
                .install_directory(sw.egress_mut(), &directory)
                .map_err(|e| e.to_string())?;
            sw.egress_mut().attach_obs(&obs);
            switches.insert(id, sw);
        }
        let (tx, rx) = link(config.fault, config.seed ^ 0x11A);
        let flowgen = FlowGenerator::new(tree, config.skew, config.seed ^ FLOWGEN_SEED_XOR);
        let mut monitor = HealthMonitor::new(config.collectors, config.probe);
        monitor.attach_obs(&obs);
        setup.switch_install = start.elapsed().as_secs_f64();
        let pending_faults = config.faults.clone();
        Ok((
            Mirror {
                tree,
                config,
                switches,
                switch_ids,
                cluster,
                tx,
                rx,
                flowgen,
                monitor,
                pending_faults,
                pending_recoveries: Vec::new(),
                truths: Vec::new(),
                truth_index: HashMap::new(),
                prof: Profiler::new(),
                units: Units::default(),
            },
            setup,
        ))
    }

    /// Put crafted reports on the link.
    fn send(&mut self, reports: Vec<CraftedReport>) {
        self.units.frames += reports.len() as u64;
        for report in &reports {
            self.units.frame_bytes += report.frame.len() as u64;
        }
        let tx = &mut self.tx;
        timed(&mut self.prof, Layer::Link, || {
            for report in reports {
                tx.send(report.frame);
            }
        });
    }

    /// `FatTreeSim::drain_link`: flush and hand each frame to the cluster.
    fn drain_link(&mut self) {
        let mut flush = true;
        loop {
            let (tx, rx) = (&mut self.tx, &self.rx);
            let frame = timed(&mut self.prof, Layer::Link, || {
                if flush {
                    tx.flush();
                }
                rx.try_recv()
            });
            flush = false;
            let Some(frame) = frame else { break };
            let cluster = &mut self.cluster;
            timed(&mut self.prof, Layer::Deliver, || cluster.deliver(&frame));
        }
    }

    /// `FatTreeSim::advance_faults`: fire due faults and recoveries, run
    /// the health monitor, push verdict flips, and step the sweeps.
    fn advance_faults(&mut self) {
        let now = self.tx.stats().sent;
        let (switches, cluster, monitor) =
            (&mut self.switches, &mut self.cluster, &mut self.monitor);
        let (pending_faults, pending_recoveries) =
            (&mut self.pending_faults, &mut self.pending_recoveries);
        let flip = timed(&mut self.prof, Layer::ControlPlane, || {
            let mut i = 0;
            while i < pending_faults.len() {
                if pending_faults[i].after_frames <= now {
                    let fault = pending_faults.remove(i);
                    let health = match fault.kind {
                        FaultKind::Crash => dta_collector::CollectorHealth::Crashed,
                        FaultKind::Blackhole => dta_collector::CollectorHealth::Blackholed,
                        FaultKind::Degrade { loss } => {
                            dta_collector::CollectorHealth::Degraded { loss }
                        }
                    };
                    cluster.set_health(fault.index, health);
                    if let Some(after) = fault.recover_after {
                        pending_recoveries.push((now + after, fault.index));
                    }
                } else {
                    i += 1;
                }
            }
            let mut i = 0;
            while i < pending_recoveries.len() {
                if pending_recoveries[i].0 <= now {
                    let (_, index) = pending_recoveries.remove(i);
                    cluster.recover(index);
                } else {
                    i += 1;
                }
            }
            let prev = monitor.mask();
            let mask = monitor.tick(now, |id| cluster.probe_rtt(id))?;
            for sw in switches.values_mut() {
                for id in 0..mask.total() {
                    sw.egress_mut()
                        .set_collector_liveness(id, mask.is_live(id))
                        .expect("mask sized to the directory");
                }
            }
            cluster.set_liveness_mask(mask);
            Some((prev, mask))
        });
        if let Some((prev, mask)) = flip {
            let (switches, ids, cluster) =
                (&mut self.switches, &self.switch_ids, &mut self.cluster);
            let sweep = self.config.sweep;
            timed(&mut self.prof, Layer::Rerepl, || {
                for id in 0..mask.total() {
                    if mask.is_live(id) && !prev.is_live(id) {
                        let mut records = Vec::new();
                        for sw_id in ids {
                            let sw = switches.get_mut(sw_id).expect("switch in tree");
                            records.extend(sw.egress_mut().drain_failover_records(id));
                        }
                        // Append is refused in `Mirror::new`, so there
                        // are no ring tails to reconcile.
                        cluster.schedule_rerepl(id, prev, records, &[], sweep, now);
                    }
                }
            });
        }
        let cluster = &mut self.cluster;
        let reconciled = timed(&mut self.prof, Layer::Rerepl, || cluster.rerepl_tick(now));
        debug_assert!(
            reconciled.is_empty(),
            "only Append sweeps reconcile ring tails"
        );
    }
}

impl Pipeline for Mirror {
    fn run_flow(&mut self) -> Result<FiveTuple, SimError> {
        let start = Instant::now();
        let allocs = alloc::count();
        self.prof.begin(Layer::FlowRoot, start);
        let flowgen = &mut self.flowgen;
        let flow = timed(&mut self.prof, Layer::Flowgen, || flowgen.next_flow());
        let tree = &self.tree;
        let route = timed(&mut self.prof, Layer::Route, || {
            tree.route(flow.src, flow.dst, &flow.tuple)
        })?;

        let mut packet = IntPacket::new(flow.tuple);
        let switches = &mut self.switches;
        timed(&mut self.prof, Layer::IntTransit, || {
            for (i, &hop) in route.iter().enumerate() {
                let role = if i == 0 {
                    IntRole::Source
                } else {
                    IntRole::Transit
                };
                let sw = switches.get_mut(&hop).expect("route within tree");
                sw.process(&mut packet, role)?;
            }
            Ok::<(), IntError>(())
        })?;
        self.units.hops += route.len() as u64;

        let sink_id = *route.last().expect("routes are non-empty");
        let sink = self.switches.get_mut(&sink_id).expect("sink in tree");
        let reports_per_flow = match self.config.mode {
            ReportMode::AllCopies => 1,
            ReportMode::PerPacket(count) => count,
        };
        match self.config.primitive {
            // `Mirror::new` admits Key-Write with `AllCopies` only.
            PrimitiveSpec::KeyWrite => {
                let reports = timed(&mut self.prof, Layer::Egress, || {
                    sink.report_all_copies(&flow.tuple, &packet.stack)
                })?;
                self.send(reports);
            }
            PrimitiveSpec::KeyIncrement => {
                let key = flow.tuple.to_bytes();
                let delta = increment_encode(1);
                for _ in 0..reports_per_flow {
                    let sink = self.switches.get_mut(&sink_id).expect("sink in tree");
                    let crafted = timed(&mut self.prof, Layer::Egress, || {
                        sink.egress_mut().craft(&key, &delta)
                    })
                    .map_err(IntError::Switch)?;
                    self.send(crafted);
                }
            }
            PrimitiveSpec::Append { .. } => unreachable!("refused in Mirror::new"),
        }
        let (truths, truth_index) = (&mut self.truths, &mut self.truth_index);
        let primitive = self.config.primitive;
        timed(&mut self.prof, Layer::Truth, || {
            let value = packet
                .stack
                .to_padded_value_bytes(PATH_HOPS)
                .map_err(|_| IntError::StackOverflow)?;
            if primitive == PrimitiveSpec::KeyIncrement {
                let total = u64::from(reports_per_flow);
                match truth_index.get(&flow.tuple) {
                    Some(&i) => {
                        let old = u64::from_be_bytes(
                            truths[i].1.as_slice().try_into().expect("8-byte truth"),
                        );
                        truths[i].1 = (old + total).to_be_bytes().to_vec();
                    }
                    None => {
                        truth_index.insert(flow.tuple, truths.len());
                        truths.push((flow.tuple, total.to_be_bytes().to_vec()));
                    }
                }
            } else {
                truths.push((flow.tuple, value));
            }
            Ok::<(), IntError>(())
        })?;
        self.drain_link();
        self.advance_faults();
        let end = Instant::now();
        self.prof
            .record(Layer::FlowRoot, start, end, alloc::count() - allocs);
        Ok(flow.tuple)
    }

    fn query(&mut self, tuple: &FiveTuple) -> Result<QueryOutcome, QueryError> {
        let start = Instant::now();
        let allocs = alloc::count();
        self.prof.begin(Layer::QueryRoot, start);
        let cluster = &mut self.cluster;
        let outcome = timed(&mut self.prof, Layer::Query, || {
            cluster.try_query(&tuple.to_bytes())
        });
        let end = Instant::now();
        self.prof
            .record(Layer::QueryRoot, start, end, alloc::count() - allocs);
        outcome
    }
}

/// The counters both pipelines must agree on.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counters {
    tally: Tally,
    writes: u64,
    atomics: u64,
    rerepl: RereplStats,
    fault_drops: u64,
    live: u32,
}

impl Counters {
    fn read(cluster: &CollectorCluster, tally: Tally) -> Counters {
        let mask = cluster.liveness_mask();
        Counters {
            tally,
            writes: cluster.total_writes(),
            atomics: cluster.total_atomics(),
            rerepl: cluster.rerepl_stats(),
            fault_drops: (0..cluster.len() as u32)
                .map(|id| cluster.fault_drops(id).total())
                .sum(),
            live: (0..mask.total()).filter(|&id| mask.is_live(id)).count() as u32,
        }
    }

    /// `FatTreeSim` drains its switches' failover records in `HashMap`
    /// order, so the order in which a sweep writes keys back differs
    /// between processes. That order decides how many slots the sweep
    /// copies (colliding keys share failover slots) and whether a query
    /// issued mid-sweep reads a key before or after its write-back.
    /// After any sweep ran, only this projection repeats exactly: the
    /// correct/empty/wrong split of reachable answers is merged, and
    /// commits count switch reports only (sweep write-backs removed).
    fn order_independent(mut self) -> Counters {
        if self.rerepl.batches == 0 {
            return self;
        }
        self.tally.correct += self.tally.wrong + self.tally.empty;
        (self.tally.wrong, self.tally.empty) = (0, 0);
        let commits = self.writes + self.atomics - self.rerepl.slots_copied;
        (self.writes, self.atomics) = (commits, 0);
        self.rerepl.slots_copied = 0;
        self.rerepl.slots_tombstoned = 0;
        self
    }
}

/// Registry counters summed over every name starting with `prefix`.
fn registry_sum(obs: &Obs, prefix: &str) -> u64 {
    obs.registry()
        .snapshot()
        .iter()
        .filter(|m| m.name.starts_with(prefix))
        .map(|m| match m.value {
            dta_obs::registry::MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Counter names read from the registry before and after the measured
/// rounds.
const REGISTRY: [&str; 10] = [
    "dta_nic_writes_fresh_total",
    "dta_nic_writes_overwritten_total",
    "dta_nic_atomics_total",
    "dta_nic_drops_",
    "dta_switch_reports_total",
    "dta_switch_failovers_total",
    "dta_monitor_probes_total",
    "dta_monitor_liveness_flips_total",
    "dta_rerepl_slots_copied_total",
    "dta_rerepl_slots_aborted_total",
];

fn registry_values(obs: &Obs) -> Vec<u64> {
    REGISTRY
        .iter()
        .map(|name| registry_sum(obs, name))
        .collect()
}

/// Run `spec` through `FatTreeSim` (untraced) and then through the
/// traced mirror on the same seed; report per-layer metrics.
pub fn run(spec: &Spec, workload: &str, seed: u64) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let (sim, sim_tally, sim_timings, _) = run_sim(spec, seed, &mut |_| {})?;
    let sim_counters = Counters::read(sim.cluster(), sim_tally);
    let untraced = e2e_metrics(&sim_tally, &sim_timings);
    drop(sim);

    alloc::enable();
    // A no-op handle, as `FatTreeSim::new` uses: its registry counts
    // all the same, but no lifecycle event is recorded.
    let obs = Obs::noop();
    let (mut mirror, mut setup) = Mirror::new(spec.sim_config(seed), obs.clone())?;
    let start = Instant::now();
    let prefilled = prefill(&mut mirror, spec.prefill_flows)?;
    setup.prefill = start.elapsed().as_secs_f64();
    mirror.prof.reset();
    mirror.units = Units::default();
    let link_before = mirror.tx.stats();
    let reg_before = registry_values(&obs);

    let mut truth = Truth::new(spec, prefilled);
    let (tally, timings) = drive(&mut mirror, spec, &mut truth, seed, &mut |_| {});
    let traced = e2e_metrics(&tally, &timings);

    let link = mirror.tx.stats();
    let reg: Vec<u64> = registry_values(&obs)
        .iter()
        .zip(&reg_before)
        .map(|(after, before)| after - before)
        .collect();
    let [fresh, overwritten, atomics, nic_drops, reports, failovers, probes, flips, copied, aborted] =
        reg[..]
    else {
        unreachable!("one value per registry name")
    };

    let mut correct = check(spec, &tally, &mut notes);
    let mirror_counters = Counters::read(&mirror.cluster, tally);
    if mirror_counters.order_independent() != sim_counters.order_independent() {
        notes.push(format!(
            "CHECK FAILED: mirror counters differ from FatTreeSim\n    sim    {sim_counters:?}\n    mirror {mirror_counters:?}"
        ));
        correct = false;
    } else if mirror_counters != sim_counters {
        notes.push(format!(
            "mirror counters equal FatTreeSim's up to sweep order: {mirror_counters:?}; \
             FatTreeSim had correct {}, empty {}, wrong {}, slots copied {}",
            sim_counters.tally.correct,
            sim_counters.tally.empty,
            sim_counters.tally.wrong,
            sim_counters.rerepl.slots_copied
        ));
    } else {
        notes.push(format!(
            "mirror counters equal FatTreeSim's: {mirror_counters:?}"
        ));
    }

    // Sampled queries: how many slots matched the key's checksum.
    let matched = explain_sample(&mut mirror, &truth);

    let prof = &mirror.prof;
    let flows = tally.flows.max(1);
    let queries = tally.queries.max(1);
    let units = mirror.units;
    let children: u64 = FLOW_LAYERS.iter().map(|&l| prof.total(l).ns).sum();
    let root = prof.total(Layer::FlowRoot).ns;
    let query_children = prof.total(Layer::Query).ns;
    let query_root = prof.total(Layer::QueryRoot).ns;
    let delivered = link.delivered - link_before.delivered;
    let sent = link.sent - link_before.sent;
    let per = |layer: Layer, den: u64| ratio(prof.total(layer).ns, den);
    let rerepl_ns = prof.total(Layer::Rerepl).ns;

    let accounted = ratio(children + query_children, root + query_root);
    if accounted < MIN_SPAN_ACCOUNTED {
        notes.push(format!(
            "CHECK FAILED: layer spans cover {accounted:.3} of the root spans, below {MIN_SPAN_ACCOUNTED}"
        ));
        correct = false;
    }

    // The primary operation of the workload sets the overhead ratio.
    let rate = |m: &[Metric], name: &str| m.iter().find(|x| x.0 == name).map_or(0.0, |x| x.1);
    let primary = if spec.kind == Kind::Query {
        "query_per_s"
    } else {
        "ingest_flows_per_s"
    };
    let overhead = rate(&untraced, primary) / rate(&traced, primary);
    notes.push(format!(
        "{primary}: untraced {:.0}, traced {:.0}",
        rate(&untraced, primary),
        rate(&traced, primary)
    ));
    notes.push(format!(
        "flow spans: root {:.3} s, layers {:.3} s; query spans: root {:.3} s, collector.query {:.3} s",
        root as f64 / 1e9,
        children as f64 / 1e9,
        query_root as f64 / 1e9,
        query_children as f64 / 1e9
    ));
    for layer in FLOW_LAYERS {
        notes.push(format!(
            "  {:<24} {:>6.2}% of flow time",
            layer.name(),
            100.0 * ratio(prof.total(layer).ns, root)
        ));
    }

    let drops: Vec<String> = obs
        .registry()
        .snapshot()
        .iter()
        .filter_map(|m| match m.value {
            dta_obs::registry::MetricValue::Counter(v)
                if v > 0 && m.name.starts_with("dta_nic_drops_") =>
            {
                Some(format!("{} {v}", m.name))
            }
            _ => None,
        })
        .collect();
    notes.push(format!("NIC drops since build: [{}]", drops.join(", ")));

    let metrics: Vec<Metric> = vec![
        (
            "switch.egress.ns_per_frame",
            per(Layer::Egress, units.frames),
            "ns",
        ),
        (
            "collector.deliver.ns_per_frame",
            per(Layer::Deliver, delivered),
            "ns",
        ),
        (
            "topology.flowgen.ns_per_flow",
            per(Layer::Flowgen, flows),
            "ns",
        ),
        (
            "switch.int_transit.ns_per_hop",
            per(Layer::IntTransit, units.hops),
            "ns",
        ),
        (
            "topology.fattree.route_ns_per_flow",
            per(Layer::Route, flows),
            "ns",
        ),
        (
            "rdma.link.ns_per_frame",
            per(Layer::Link, units.frames),
            "ns",
        ),
        (
            "switch.egress.frames_per_flow",
            ratio(units.frames, flows),
            "count",
        ),
        (
            "switch.egress.bytes_per_frame",
            ratio(units.frame_bytes, units.frames),
            "bytes",
        ),
        (
            "switch.egress.allocs_per_frame",
            ratio(prof.total(Layer::Egress).allocs, units.frames),
            "count",
        ),
        (
            "collector.deliver.allocs_per_frame",
            ratio(prof.total(Layer::Deliver).allocs, delivered),
            "count",
        ),
        ("rdma.nic.drop_ratio", ratio(nic_drops, delivered), "ratio"),
        (
            "rdma.link.drop_ratio",
            ratio(link.dropped - link_before.dropped, sent),
            "ratio",
        ),
        (
            "collector.query.ns_per_query",
            per(Layer::Query, queries),
            "ns",
        ),
        (
            "collector.query.allocs_per_query",
            ratio(prof.total(Layer::Query).allocs, queries),
            "count",
        ),
        ("core.query.slots_matched_per_query", matched, "count"),
        ("core.query.empty_ratio", tally.empty_ratio(), "ratio"),
        ("core.query.error_ratio", tally.error_ratio(), "ratio"),
        (
            "core.store.overwrite_ratio",
            ratio(overwritten, fresh + overwritten),
            "ratio",
        ),
        (
            "topology.sim.truth_ns_per_flow",
            per(Layer::Truth, flows),
            "ns",
        ),
        (
            "switch.control_plane.tick_ns_per_flow",
            per(Layer::ControlPlane, flows),
            "ns",
        ),
        (
            "switch.control_plane.probes_per_1k_frames",
            1e3 * ratio(probes, sent),
            "count",
        ),
        ("switch.control_plane.liveness_flips", flips as f64, "count"),
        (
            "switch.egress.failovers_per_1k_frames",
            1e3 * ratio(failovers, reports),
            "count",
        ),
        (
            "rdma.nic.atomics_per_frame",
            ratio(atomics, delivered),
            "count",
        ),
        (
            "collector.rerepl.ns_per_slot",
            ratio(rerepl_ns, copied),
            "ns",
        ),
        ("collector.rerepl.slots_copied", copied as f64, "count"),
        (
            "collector.rerepl.aborted_ratio",
            ratio(aborted, copied + aborted),
            "ratio",
        ),
        ("setup.cluster_build_s", setup.cluster_build, "s"),
        ("setup.switch_install_s", setup.switch_install, "s"),
        ("setup.prefill_s", setup.prefill, "s"),
        (
            "bench.driver_self_ns_per_flow",
            ratio(root.saturating_sub(children), flows),
            "ns",
        ),
        ("bench.span_accounted_ratio", accounted, "ratio"),
        ("obs.trace_overhead_ratio", overhead, "ratio"),
    ];

    let path = format!(
        "{}/out/spans-{workload}-{seed}.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::create_dir_all(format!("{}/out", env!("CARGO_MANIFEST_DIR")))
        .and_then(|()| std::fs::write(&path, prof.spans_jsonl()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    notes.push(format!(
        "{} sampled spans written to {path}",
        prof.spans.len()
    ));

    Ok(Outcome {
        correct,
        tally,
        metrics,
        notes,
    })
}

/// Mean number of checksum-matching slots per query, from
/// `query_explain` on a fixed sample of reported keys (every
/// `SAMPLE_EVERY`-th flow), run after the measured rounds.
fn explain_sample(mirror: &mut Mirror, truth: &Truth) -> f64 {
    let mut matched = 0u64;
    let mut sampled = 0u64;
    for tuple in truth.sample(SAMPLE_EVERY as usize) {
        let explain = mirror.cluster.query_explain(&tuple.to_bytes());
        sampled += 1;
        matched += explain
            .candidates
            .iter()
            .filter_map(|c| c.explain.as_ref())
            .flat_map(|e| e.probes.iter())
            .filter(|p| p.checksum_matched)
            .count() as u64;
    }
    ratio(matched, sampled)
}
