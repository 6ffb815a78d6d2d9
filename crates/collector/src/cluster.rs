//! A cluster of DART collectors sharing one key space.
//!
//! Keys are sharded over collectors by the global hash (§3.1); all `N`
//! copies of a key live at one collector, so a query touches exactly one
//! machine. The cluster knows the same mapping the switches use, routes
//! inbound frames by destination IP (the switch already picked the
//! collector when it crafted the packet), and dispatches queries.
//!
//! The cluster is also where collector *faults* are injected and where
//! the query side applies failover: each collector carries a
//! [`CollectorHealth`], frames to faulty collectors die in the fabric
//! (accounted per collector in [`FaultDrops`]), and queries re-evaluate
//! the same liveness-masked failover hash the switches use so a dead
//! collector's keys remain answerable from its survivor.

use std::collections::{BTreeMap, HashSet, VecDeque};

use dta_core::config::DartConfig;
use dta_core::hash::{
    failover_collector, AddressMapping, FailoverRecord, FailoverTarget, LivenessMask,
};
use dta_core::primitive::{append_encode_entry, append_newest_seq, append_window, seq_newest};
use dta_core::query::{DecisionReason, QueryOutcome, ReturnPolicy};
use dta_core::store::{ProbeTrace, SlotProbe, StoreExplain};
use dta_core::{DartError, PrimitiveSpec};
use dta_obs::{Counter, EventKind, Obs};
use dta_rdma::link::FrameArena;
use dta_rdma::nic::{DropReason, RxAction, RxOutcome};
use dta_rdma::verbs::RemoteEndpoint;
use dta_wire::roce::{AtomicEthRepr, BthRepr, Opcode, Psn, RethRepr, RoceRepr};
use dta_wire::{ethernet, ipv4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dart_collector::DartCollector;

/// Operational health of one collector host, as injected by a fault
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CollectorHealth {
    /// Fully operational.
    Healthy,
    /// The machine is down: telemetry frames vanish, probes go
    /// unanswered, and queries cannot reach it.
    Crashed,
    /// The NIC silently discards everything (a wedged firmware or a
    /// misprogrammed ToR filter). The host itself is up, so operator
    /// queries over the management network still work — but probes ride
    /// the RDMA path and go unanswered.
    Blackholed,
    /// The last-hop link drops frames (and probe exchanges) with this
    /// probability.
    Degraded {
        /// Loss probability in `[0, 1]`.
        loss: f64,
    },
}

impl CollectorHealth {
    /// Whether operator queries can reach the host at all.
    pub fn reachable(&self) -> bool {
        !matches!(self, CollectorHealth::Crashed)
    }
}

/// Frames lost to injected collector faults, per collector — the fabric's
/// complement to the NIC's own [`dta_rdma::nic::NicCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDrops {
    /// Frames to a crashed host.
    pub crashed: u64,
    /// Frames silently eaten by a blackholed NIC.
    pub blackholed: u64,
    /// Frames lost on a degraded last-hop link.
    pub degraded: u64,
}

impl FaultDrops {
    /// Total frames lost to injected faults.
    pub fn total(&self) -> u64 {
        self.crashed + self.blackholed + self.degraded
    }

    /// Drops attributed to one [`DropReason`]. Only the three
    /// fabric-level reasons live here; every NIC-owned reason reads zero
    /// (those are counted by [`dta_rdma::nic::NicCounters`]).
    pub fn count(&self, reason: DropReason) -> u64 {
        match reason {
            DropReason::CollectorDown => self.crashed,
            DropReason::Blackholed => self.blackholed,
            DropReason::DegradedLink => self.degraded,
            _ => 0,
        }
    }
}

/// A query failed because no collector holding the key was reachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// Neither the key's primary collector nor any failover location
    /// answered.
    CollectorUnreachable {
        /// The key's primary collector.
        collector: u32,
    },
}

impl core::fmt::Display for QueryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QueryError::CollectorUnreachable { collector } => {
                write!(f, "collector {collector} unreachable and no live failover")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// How the cluster routed a query under the current liveness mask —
/// the query-side half of the failover contract, made visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryRouting {
    /// The primary was marked live and was consulted directly.
    Primary(
        /// The primary collector.
        u32,
    ),
    /// The primary was marked dead; the failover target was read first,
    /// the primary second.
    Failover {
        /// The dead primary.
        primary: u32,
        /// The live collector reads were redirected to.
        target: u32,
    },
    /// No collector was marked live; the primary was tried anyway.
    NoneLive(
        /// The primary collector.
        u32,
    ),
}

/// One candidate location consulted (or skipped) by a cluster query.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateProbe {
    /// The collector consulted.
    pub collector: u32,
    /// Whether operator queries could reach the host at all.
    pub reachable: bool,
    /// The per-slot trace at this collector (`None` if unreachable, or
    /// if an earlier candidate already answered).
    pub explain: Option<StoreExplain>,
}

/// The full cluster-level trace of one query: §3.2's four steps plus
/// failover routing, per-slot probes, and the policy decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterQueryExplain {
    /// The collector the key hashes to (step 1).
    pub key_collector: u32,
    /// How the liveness mask routed the read.
    pub routing: QueryRouting,
    /// Candidates in read order (freshest first under failover).
    pub candidates: Vec<CandidateProbe>,
    /// Which collector produced the answer, if any.
    pub answered_by: Option<u32>,
    /// What the equivalent plain query would have returned.
    pub outcome: Result<QueryOutcome, QueryError>,
}

/// Pacing and retry policy for one recovery re-replication sweep.
///
/// The sweep runs as a rate-limited background phase: `batch_size` keys
/// are written back per batch, batches are `pacing` frames apart, and a
/// key whose write-back frame dies in the fabric backs off
/// `retry_backoff` frames before retrying, up to `max_retries` attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Keys write-back is attempted for per batch.
    pub batch_size: usize,
    /// Frames of simulated time between consecutive batches.
    pub pacing: u64,
    /// Failed write-back attempts per key before the sweep gives up on
    /// it for this recovery (the record parks, untombstoned, and rides
    /// the primary's next dead→alive flip).
    pub max_retries: u32,
    /// Frames a key waits after an aborted write-back before retrying.
    pub retry_backoff: u64,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            batch_size: 8,
            pacing: 4,
            max_retries: 3,
            retry_backoff: 8,
        }
    }
}

/// Cumulative re-replication sweep statistics across the cluster's
/// lifetime — the plain-struct twin of the `dta_rerepl_*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RereplStats {
    /// Failover slots examined at sweep sources (occupied or not).
    pub slots_scanned: u64,
    /// Slots successfully written back to a recovered primary (ACKed).
    pub slots_copied: u64,
    /// Stranded failover copies zeroed after their write-back landed.
    pub slots_tombstoned: u64,
    /// Write-back frames that died in the fabric (each retried attempt
    /// that fails counts again).
    pub writebacks_aborted: u64,
    /// Sweep batches executed.
    pub batches: u64,
    /// Keys fully restored to their primary.
    pub keys_restored: u64,
    /// Keys given up after `max_retries` failed write-backs.
    pub keys_abandoned: u64,
}

/// An append tail register value the control plane must push back into
/// every switch after a sweep re-appended entries on a recovered
/// primary: `(collector, ring)`'s register becomes `stored_seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingReconciliation {
    /// The recovered primary collector.
    pub collector: u32,
    /// The append ring whose tail moved.
    pub ring: u64,
    /// The last stored sequence number after the sweep's re-appends.
    pub stored_seq: u32,
}

/// One write-back operation of a sweep, ready to frame.
#[derive(Debug, Clone)]
enum UnitKind {
    /// A UC RDMA WRITE of a verified slot/ring entry (Key-Write and
    /// Append primitives).
    Write { va: u64, payload: Vec<u8> },
    /// An RC FETCH_ADD merging a failover counter delta (Key-Increment).
    FetchAdd { va: u64, delta: u64 },
}

#[derive(Debug, Clone)]
struct SweepUnit {
    kind: UnitKind,
    /// Whether this unit's frame has been delivered and ACKed.
    done: bool,
}

/// Per-key sweep state: the drained failover record plus the write-back
/// units and tombstones derived from the failover copy (built lazily on
/// the key's first batch so earlier batches' re-appends are visible).
#[derive(Debug, Clone)]
struct SweepKey {
    record: FailoverRecord,
    units: Option<Vec<SweepUnit>>,
    /// Stranded failover copies to retire once the *whole sweep* lands:
    /// `(target collector, va, len)` triples, zeroed host-side.
    tombstones: Vec<(u32, u64, usize)>,
    retries: u32,
    /// Frame-clock instant before which this key must not retry.
    not_before: u64,
}

/// One in-flight recovery sweep for a primary that returned from the
/// dead.
struct RereplSweep {
    primary: u32,
    /// The liveness mask of the outage era (primary dead) — the sweep
    /// re-derives every record's failover target under *this* mask, the
    /// exact function the egress used when it remapped the writes.
    outage_mask: LivenessMask,
    config: SweepConfig,
    /// Dedicated queue pair on the recovered primary; the sweep is just
    /// another RDMA writer, transport-checked like any switch.
    qp: RemoteEndpoint,
    /// Next PSN on the sweep QP. Advanced only when a frame is ACKed,
    /// so a retry after a fabric drop reuses the same PSN (the QP never
    /// saw the lost frame).
    psn: u32,
    pending: VecDeque<SweepKey>,
    /// Keys fully written back, awaiting the end-of-sweep tombstone
    /// phase. Tombstoning is deferred to completion so a mid-sweep
    /// second crash can never have retired a failover copy.
    restored: Vec<SweepKey>,
    abandoned: u32,
    next_batch_at: u64,
    /// Switch-side append tail registers for the primary at schedule
    /// time, `ring → last stored seq` (serial-max across switches).
    switch_tails: BTreeMap<u64, u32>,
    /// Running re-appended tail per ring, reported back as
    /// [`RingReconciliation`]s at completion.
    reconciliations: BTreeMap<u64, u32>,
}

/// Outcome of deriving a key's write-back units from its failover copy.
enum UnitBuild {
    Units {
        units: Vec<SweepUnit>,
        tombstones: Vec<(u32, u64, usize)>,
        scanned: u64,
    },
    /// The record is not derivable under the outage mask (stale entry,
    /// e.g. logged under a different mask) — drop it.
    Stale,
    /// The failover source itself is unreachable right now — park the
    /// key for a later sweep.
    TargetDown,
}

/// Where one cluster query's trace goes, candidate by candidate — what
/// the cluster's query implementation is generic over. `()` records
/// nothing, so [`CollectorCluster::try_query`] compiles to a trace-free
/// read; `Vec<CandidateProbe>` builds
/// [`ClusterQueryExplain::candidates`].
trait CandidateTrace {
    /// Whether the trace keeps decision reasons, so the restored-copy
    /// relabel must run even with no event ring attached.
    const NARRATES: bool;
    /// The per-slot trace each consulted candidate is read with.
    type Probes: ProbeTrace + Default;
    /// A candidate was skipped: its host is unreachable.
    fn unreachable(&mut self, collector: u32);
    /// A candidate was read: its probes and what its store decided.
    fn consulted(
        &mut self,
        collector: u32,
        probes: Self::Probes,
        policy: ReturnPolicy,
        reason: DecisionReason,
        outcome: &QueryOutcome,
    );
}

impl CandidateTrace for () {
    const NARRATES: bool = false;
    type Probes = ();

    fn unreachable(&mut self, _collector: u32) {}

    fn consulted(
        &mut self,
        _collector: u32,
        _probes: (),
        _policy: ReturnPolicy,
        _reason: DecisionReason,
        _outcome: &QueryOutcome,
    ) {
    }
}

impl CandidateTrace for Vec<CandidateProbe> {
    const NARRATES: bool = true;
    type Probes = Vec<SlotProbe>;

    fn unreachable(&mut self, collector: u32) {
        self.push(CandidateProbe {
            collector,
            reachable: false,
            explain: None,
        });
    }

    fn consulted(
        &mut self,
        collector: u32,
        probes: Vec<SlotProbe>,
        policy: ReturnPolicy,
        reason: DecisionReason,
        outcome: &QueryOutcome,
    ) {
        self.push(CandidateProbe {
            collector,
            reachable: true,
            explain: Some(StoreExplain {
                probes,
                policy,
                reason,
                outcome: outcome.clone(),
            }),
        });
    }
}

/// A candidate's probe trace that also emits every probe as an
/// [`EventKind::QueryProbe`] when an enabled event ring is attached.
struct ObservedProbes<'a, P> {
    events: Option<&'a Obs>,
    collector: u8,
    trace: P,
}

impl<P: ProbeTrace> ProbeTrace for ObservedProbes<'_, P> {
    fn probe(&mut self, probe: SlotProbe) {
        if let Some(obs) = self.events {
            obs.event(EventKind::QueryProbe {
                collector: self.collector,
                copy: probe.copy,
                slot: probe.slot,
                occupied: probe.occupied,
                matched: probe.checksum_matched,
            });
        }
        self.trace.probe(probe);
    }
}

/// Cached metric handles for an attached observability registry.
struct ClusterObs {
    obs: Obs,
    writes_fresh: Counter,
    writes_overwritten: Counter,
    atomics: Counter,
    /// Per-reason drop counters, aligned with [`DropReason::ALL`].
    drops: Vec<Counter>,
    queries_answered: Counter,
    queries_empty: Counter,
    queries_unreachable: Counter,
    recoveries: Counter,
    rerepl_scanned: Counter,
    rerepl_copied: Counter,
    rerepl_tombstoned: Counter,
    rerepl_aborted: Counter,
    rerepl_batches: Counter,
}

impl ClusterObs {
    fn drop_counter(&self, reason: DropReason) -> &Counter {
        let index = DropReason::ALL
            .iter()
            .position(|&r| r == reason)
            .expect("DropReason::ALL is exhaustive");
        &self.drops[index]
    }
}

/// A set of collectors sharing the DART key space.
pub struct CollectorCluster {
    collectors: Vec<DartCollector>,
    mapping: Box<dyn AddressMapping>,
    config: DartConfig,
    health: Vec<CollectorHealth>,
    fault_drops: Vec<FaultDrops>,
    /// The control plane's current liveness view — what the switches'
    /// liveness registers also hold. Distinct from `health` (ground
    /// truth): between a fault and its detection the two disagree.
    liveness: LivenessMask,
    fault_rng: StdRng,
    /// In-flight recovery sweeps, at most one per recovered primary.
    sweeps: Vec<RereplSweep>,
    /// Failover records waiting for a future sweep, per primary — keys
    /// whose sweep was aborted by a second crash, or whose failover
    /// source was unreachable. `BTreeMap` keeps draining deterministic.
    parked: BTreeMap<u32, Vec<FailoverRecord>>,
    /// Keys a completed sweep wrote back to their primary — drives the
    /// [`DecisionReason::RereplicatedCopy`] explain rewrite. Voided per
    /// collector when that collector crashes again.
    restored_keys: HashSet<Vec<u8>>,
    rerepl_stats: RereplStats,
    obs: Option<ClusterObs>,
}

// Queries take `&self` and only read collector memory, so one cluster
// can serve query threads that share it.
const _: fn() = || {
    fn s<T: Send + Sync>() {}
    s::<CollectorCluster>();
};

impl CollectorCluster {
    /// Bring up `config.collectors` collectors, each with
    /// `config.slots` slots.
    pub fn new(config: DartConfig) -> Result<CollectorCluster, DartError> {
        Self::with_fault_seed(config, 0xFA17)
    }

    /// Like [`CollectorCluster::new`] with an explicit seed for the
    /// fault-injection randomness (degraded-link loss draws), so chaos
    /// runs are reproducible end to end.
    pub fn with_fault_seed(config: DartConfig, seed: u64) -> Result<CollectorCluster, DartError> {
        config.validate()?;
        let mut collectors = Vec::with_capacity(config.collectors as usize);
        for index in 0..config.collectors {
            collectors.push(DartCollector::new(index, config.clone())?);
        }
        let mapping = config.mapping.build();
        let total = config.collectors;
        Ok(CollectorCluster {
            collectors,
            mapping,
            config,
            health: vec![CollectorHealth::Healthy; total as usize],
            fault_drops: vec![FaultDrops::default(); total as usize],
            liveness: LivenessMask::all_live(total),
            fault_rng: StdRng::seed_from_u64(seed),
            sweeps: Vec::new(),
            parked: BTreeMap::new(),
            restored_keys: HashSet::new(),
            rerepl_stats: RereplStats::default(),
            obs: None,
        })
    }

    /// Attach an observability handle: registers the cluster's write,
    /// drop, query, and recovery counters and starts emitting lifecycle
    /// events ([`EventKind::SlotWrite`], [`EventKind::NicDrop`],
    /// [`EventKind::QueryProbe`], [`EventKind::QueryDecision`],
    /// [`EventKind::Recovery`]) into its ring.
    pub fn attach_obs(&mut self, obs: &Obs) {
        let registry = obs.registry();
        self.obs = Some(ClusterObs {
            obs: obs.clone(),
            writes_fresh: registry.counter("dta_nic_writes_fresh_total"),
            writes_overwritten: registry.counter("dta_nic_writes_overwritten_total"),
            atomics: registry.counter("dta_nic_atomics_total"),
            drops: DropReason::ALL
                .iter()
                .map(|reason| registry.counter(&format!("dta_nic_drops_{}_total", reason.name())))
                .collect(),
            queries_answered: registry.counter("dta_cluster_queries_answered_total"),
            queries_empty: registry.counter("dta_cluster_queries_empty_total"),
            queries_unreachable: registry.counter("dta_cluster_queries_unreachable_total"),
            recoveries: registry.counter("dta_cluster_recoveries_total"),
            rerepl_scanned: registry.counter("dta_rerepl_slots_scanned_total"),
            rerepl_copied: registry.counter("dta_rerepl_slots_copied_total"),
            rerepl_tombstoned: registry.counter("dta_rerepl_slots_tombstoned_total"),
            rerepl_aborted: registry.counter("dta_rerepl_slots_aborted_total"),
            rerepl_batches: registry.counter("dta_rerepl_batches_total"),
        });
    }

    /// The collector directory, in dense collector-ID order — exactly
    /// what the switch control plane installs (§3.2's lookup table).
    /// Each entry names its collector's live region.
    ///
    /// All entries share each collector's initial QP; use
    /// [`CollectorCluster::directory_for_switch`] when multiple switches
    /// report concurrently.
    pub fn directory(&self) -> Vec<RemoteEndpoint> {
        self.collectors.iter().map(|c| c.endpoint()).collect()
    }

    /// A directory with a *dedicated* queue pair per collector (UC, or
    /// RC for Key-Increment's atomics) for one reporting switch (each
    /// switch keeps its own PSN counters, so each needs its own QPs —
    /// see [`DartCollector::allocate_switch_qp`]).
    pub fn directory_for_switch(&mut self) -> Vec<RemoteEndpoint> {
        self.collectors
            .iter_mut()
            .map(|c| c.allocate_switch_qp())
            .collect()
    }

    /// Like [`CollectorCluster::directory_for_switch`], with every queue
    /// pair expecting `start_psn` as its first sequence number (lets
    /// tests start a run just below the 24-bit PSN wrap).
    pub fn directory_for_switch_from(
        &mut self,
        start_psn: dta_wire::roce::Psn,
    ) -> Vec<RemoteEndpoint> {
        self.collectors
            .iter_mut()
            .map(|c| c.allocate_switch_qp_from(start_psn))
            .collect()
    }

    /// Seal every collector's live epoch (§5.2.1) and return its id,
    /// which collectors rotated only here share;
    /// [`CollectorCluster::directory`] then lists the new live regions.
    /// Refused while a recovery sweep runs: its writes name the old one.
    pub fn rotate_epoch(&mut self) -> Result<u64, DartError> {
        if self.active_sweeps() > 0 {
            return Err(DartError::SweepInProgress);
        }
        let sealed = self.collectors.iter_mut().map(|c| c.rotate_epoch());
        Ok(sealed.max().unwrap_or(0))
    }

    /// Number of collectors.
    pub fn len(&self) -> usize {
        self.collectors.len()
    }

    /// Whether the cluster has no collectors.
    pub fn is_empty(&self) -> bool {
        self.collectors.is_empty()
    }

    /// Access one collector.
    pub fn collector(&self, index: u32) -> Option<&DartCollector> {
        self.collectors.get(index as usize)
    }

    /// Mutable access to one collector.
    pub fn collector_mut(&mut self, index: u32) -> Option<&mut DartCollector> {
        self.collectors.get_mut(index as usize)
    }

    /// Ground-truth health of one collector.
    pub fn health(&self, index: u32) -> CollectorHealth {
        self.health[index as usize]
    }

    /// Inject a fault (or restore plain `Healthy` without a wipe — use
    /// [`CollectorCluster::recover`] for a crash restart).
    pub fn set_health(&mut self, index: u32, health: CollectorHealth) {
        if health == CollectorHealth::Crashed {
            // A crash voids everything a past sweep restored to this
            // collector: the restart wipe destroys those slots, so their
            // explain rewrite must stop.
            let mapping = self.mapping.as_ref();
            let total = self.config.collectors;
            self.restored_keys
                .retain(|key| mapping.collector(key, total) != index);
        }
        self.health[index as usize] = health;
    }

    /// Recover collector `index`. A crashed host comes back with *wiped
    /// memory* — everything it held before the crash is gone — and its
    /// queue pairs re-handshake with the switches' PSN registers, so the
    /// PSNs spent on reports lost while it was down do not gate later
    /// ones. Blackhole and degraded faults clear without data loss (the
    /// host never died).
    pub fn recover(&mut self, index: u32) {
        let wiped = self.health[index as usize] == CollectorHealth::Crashed;
        if wiped {
            let collector = &mut self.collectors[index as usize];
            collector.wipe_memory();
            collector.resync_qps();
        }
        self.health[index as usize] = CollectorHealth::Healthy;
        if let Some(o) = &self.obs {
            o.recoveries.inc();
            o.obs.event(EventKind::Recovery {
                collector: index as u8,
                wiped,
            });
        }
    }

    /// Frames lost to injected faults at collector `index`.
    pub fn fault_drops(&self, index: u32) -> FaultDrops {
        self.fault_drops[index as usize]
    }

    /// The liveness view queries currently failover under.
    pub fn liveness_mask(&self) -> LivenessMask {
        self.liveness
    }

    /// Install the control plane's liveness view (the same mask it pushes
    /// into every switch's liveness registers). Queries evaluate failover
    /// against *this*, not against ground truth — operators only know
    /// what the health monitor told them.
    pub fn set_liveness_mask(&mut self, mask: LivenessMask) {
        self.liveness = mask;
    }

    /// Answer one health probe for collector `index`, as the probe QP
    /// would: crashed and blackholed collectors never respond, a degraded
    /// link loses the probe exchange with its loss probability, healthy
    /// hosts always acknowledge.
    pub fn probe(&mut self, index: u32) -> bool {
        match self.health[index as usize] {
            CollectorHealth::Healthy => true,
            CollectorHealth::Crashed | CollectorHealth::Blackholed => false,
            CollectorHealth::Degraded { loss } => self.fault_rng.gen::<f64>() >= loss,
        }
    }

    /// Base synthetic probe round-trip time, in frame-clock units.
    pub const PROBE_BASE_RTT: u64 = 12;

    /// Answer one health probe and report its round-trip time — the
    /// measurement the RTT-adaptive probe timer feeds on. `None` means
    /// the probe went unanswered (loss and timeout are indistinguishable
    /// to the prober). The synthetic RTT is deterministic: a fabric base
    /// plus a small per-collector topology offset, so probe-timer
    /// convergence is reproducible end to end.
    pub fn probe_rtt(&mut self, index: u32) -> Option<u64> {
        if self.probe(index) {
            Some(Self::PROBE_BASE_RTT + u64::from(index % 4))
        } else {
            None
        }
    }

    /// Deliver a batch of frames, in order, as the receiving end of the
    /// switch link: each frame is logged as a delivered
    /// [`EventKind::LinkFrame`], then routed like
    /// [`CollectorCluster::deliver`]. The frames are read in place from
    /// the arena, so a warm batch allocates nothing.
    pub fn deliver_batch(&mut self, frames: &FrameArena) {
        for frame in frames.iter() {
            if let Some(o) = &self.obs {
                o.obs.event(EventKind::LinkFrame { delivered: true });
            }
            self.deliver(frame);
        }
    }

    /// Deliver a frame to the collector it is addressed to (routing by
    /// destination MAC/IP like the datacenter fabric would). Injected
    /// collector faults act here — the last hop of the fabric.
    pub fn deliver(&mut self, frame: &[u8]) -> RxOutcome {
        let dst = match ethernet::Frame::new_checked(frame) {
            Ok(eth) => match ipv4::Packet::new_checked(eth.payload()) {
                Ok(ip) => ip.dst_addr(),
                Err(_) => {
                    return RxOutcome {
                        action: RxAction::Dropped(DropReason::Malformed),
                        response: None,
                    }
                }
            },
            Err(_) => {
                return RxOutcome {
                    action: RxAction::Dropped(DropReason::Malformed),
                    response: None,
                }
            }
        };
        let Some(index) = self.collectors.iter().position(|c| c.endpoint().ip == dst) else {
            return RxOutcome {
                action: RxAction::Dropped(DropReason::NotForUs),
                response: None,
            };
        };
        let fault = match self.health[index] {
            CollectorHealth::Healthy => None,
            CollectorHealth::Crashed => Some(DropReason::CollectorDown),
            CollectorHealth::Blackholed => Some(DropReason::Blackholed),
            CollectorHealth::Degraded { loss } => {
                if self.fault_rng.gen::<f64>() < loss {
                    Some(DropReason::DegradedLink)
                } else {
                    None
                }
            }
        };
        match fault {
            Some(reason) => {
                let drops = &mut self.fault_drops[index];
                match reason {
                    DropReason::CollectorDown => drops.crashed += 1,
                    DropReason::Blackholed => drops.blackholed += 1,
                    _ => drops.degraded += 1,
                }
                if let Some(o) = &self.obs {
                    o.drop_counter(reason).inc();
                    o.obs.event(EventKind::NicDrop {
                        collector: index as u8,
                        reason: reason.name(),
                    });
                }
                RxOutcome {
                    action: RxAction::Dropped(reason),
                    response: None,
                }
            }
            None => {
                let outcome = self.collectors[index].receive_frame(frame);
                if let Some(o) = &self.obs {
                    match outcome.action {
                        RxAction::WriteExecuted { va, len, fresh, .. } => {
                            if fresh {
                                o.writes_fresh.inc();
                            } else {
                                o.writes_overwritten.inc();
                            }
                            o.obs.event(EventKind::SlotWrite {
                                collector: index as u8,
                                va,
                                len: len as u32,
                                fresh,
                            });
                        }
                        RxAction::AtomicExecuted { original } => {
                            o.atomics.inc();
                            o.obs.event(EventKind::CounterCommit {
                                collector: index as u8,
                                original,
                            });
                        }
                        RxAction::Dropped(reason) => {
                            o.drop_counter(reason).inc();
                            o.obs.event(EventKind::NicDrop {
                                collector: index as u8,
                                reason: reason.name(),
                            });
                        }
                        _ => {}
                    }
                }
                outcome
            }
        }
    }

    /// The collector ID responsible for `key`.
    pub fn collector_of(&self, key: &[u8]) -> u32 {
        self.mapping.collector(key, self.config.collectors)
    }

    /// Query a key under the configured policy: hash to the owning
    /// collector and query locally there (the four steps of §3.2).
    /// Unreachable collectors surface as [`QueryError`], not as `Empty`.
    /// Records no trace.
    pub fn try_query(&self, key: &[u8]) -> Result<QueryOutcome, QueryError> {
        self.query_traced(key, self.config.policy, &mut ()).2
    }

    /// Explain a query under the configured default policy — see
    /// [`CollectorCluster::explain`].
    pub fn query_explain(&self, key: &[u8]) -> ClusterQueryExplain {
        self.explain(key, self.config.policy)
    }

    /// Query under `policy` and narrate every step: the collector the
    /// key hashes to, the failover routing the liveness mask produced,
    /// each candidate's per-slot probes (which checksums matched), and
    /// why the return policy answered or abstained. Primary and failover
    /// locations are read freshest first; the outcome is an error only
    /// when *no* location is reachable.
    ///
    /// This runs the same implementation as
    /// [`CollectorCluster::try_query`] with a recording trace, so the
    /// trace can never drift from the answer operators actually
    /// received. It only reads collector memory, so any number of
    /// threads may query one `&CollectorCluster` at once.
    pub fn explain(&self, key: &[u8], policy: ReturnPolicy) -> ClusterQueryExplain {
        let mut candidates = Vec::with_capacity(2);
        let (routing, answered_by, outcome) = self.query_traced(key, policy, &mut candidates);
        let key_collector = match routing {
            QueryRouting::Primary(primary)
            | QueryRouting::Failover { primary, .. }
            | QueryRouting::NoneLive(primary) => primary,
        };
        ClusterQueryExplain {
            key_collector,
            routing,
            candidates,
            answered_by,
            outcome,
        }
    }

    /// The query implementation, generic over where its trace goes:
    /// returns the routing, the answering collector and the outcome, and
    /// hands every candidate read (or skipped) to `trace`. Lifecycle
    /// events and query counters are the same whatever the trace.
    fn query_traced<T: CandidateTrace>(
        &self,
        key: &[u8],
        policy: ReturnPolicy,
        trace: &mut T,
    ) -> (QueryRouting, Option<u32>, Result<QueryOutcome, QueryError>) {
        let routing = match failover_collector(self.mapping.as_ref(), key, self.liveness) {
            FailoverTarget::Primary(p) => QueryRouting::Primary(p),
            FailoverTarget::Failover { primary, target } => {
                QueryRouting::Failover { primary, target }
            }
            FailoverTarget::NoneLive { primary } => QueryRouting::NoneLive(primary),
        };
        // Read order is freshest-first — the query-side half of the
        // failover contract. While the mask marks the primary dead, new
        // writes land at the failover target, so it is read first and
        // the primary second (it may still answer for keys written
        // before the fault). With the primary marked live it receives
        // all current writes and is authoritative; stale failover
        // locations are deliberately *not* consulted then, so a value
        // stranded there by a past outage can never shadow the primary
        // (the recovery sweep copies stranded data back and tombstones
        // the failover slot — see [`CollectorCluster::schedule_rerepl`]).
        let (primary, order, reads) = match routing {
            QueryRouting::Primary(p) | QueryRouting::NoneLive(p) => (p, [p, p], 1),
            QueryRouting::Failover { primary, target } => (primary, [target, primary], 2),
        };
        let events = self
            .obs
            .as_ref()
            .map(|o| &o.obs)
            .filter(|obs| obs.is_enabled());
        let mut answer = None;
        let mut any_reachable = false;
        for &id in &order[..reads] {
            if !self.health[id as usize].reachable() {
                trace.unreachable(id);
                continue;
            }
            any_reachable = true;
            let mut probes = ObservedProbes {
                events,
                collector: id as u8,
                trace: T::Probes::default(),
            };
            let (outcome, mut reason) =
                self.collectors[id as usize].query_traced(key, policy, &mut probes);
            // The answering slots of a swept key are re-replicated
            // copies, not the original switch writes — surface that in
            // the trace (and in the decision event) so operators can see
            // an answer survived an outage. Only the key's own primary
            // holds re-replicated data: the sweep tombstoned the
            // failover copies when it completed. Nobody reads the reason
            // of an untraced, unobserved query, so it skips the lookup.
            if (T::NARRATES || events.is_some()) && id == primary {
                if let DecisionReason::Answered { votes } = reason {
                    if self.restored_keys.contains(key) {
                        reason = DecisionReason::RereplicatedCopy { votes };
                    }
                }
            }
            if let Some(obs) = events {
                obs.event(EventKind::QueryDecision {
                    collector: id as u8,
                    reason: reason.name(),
                    answered: outcome.is_answer(),
                });
            }
            trace.consulted(id, probes.trace, policy, reason, &outcome);
            if outcome.is_answer() {
                // Stop at the first answering location.
                answer = Some((id, outcome));
                break;
            }
        }
        let (answered_by, outcome) = match answer {
            Some((id, found)) => (Some(id), Ok(found)),
            None if any_reachable => (None, Ok(QueryOutcome::Empty)),
            None => (
                None,
                Err(QueryError::CollectorUnreachable { collector: primary }),
            ),
        };
        if let Some(o) = &self.obs {
            match &outcome {
                Ok(out) if out.is_answer() => o.queries_answered.inc(),
                Ok(_) => o.queries_empty.inc(),
                Err(_) => o.queries_unreachable.inc(),
            }
        }
        (routing, answered_by, outcome)
    }

    /// Aggregate NIC write counters across the cluster.
    pub fn total_writes(&self) -> u64 {
        self.collectors
            .iter()
            .map(|c| c.nic_counters().writes)
            .sum()
    }

    /// Aggregate NIC append-commit counters (a subset of
    /// [`CollectorCluster::total_writes`]) across the cluster.
    pub fn total_appends(&self) -> u64 {
        self.collectors
            .iter()
            .map(|c| c.nic_counters().appends)
            .sum()
    }

    /// Aggregate NIC FETCH_ADD counters across the cluster — the
    /// Key-Increment commit count.
    pub fn total_atomics(&self) -> u64 {
        self.collectors
            .iter()
            .map(|c| c.nic_counters().fetch_adds)
            .sum()
    }

    /// Per-collector drop histogram: every [`DropReason`] with a nonzero
    /// count at collector `index`, combining the NIC's own receive-path
    /// counters with fabric-level fault drops. Chaos tests assert *why*
    /// frames died, not just how many.
    pub fn drop_histogram(&self, index: u32) -> Vec<(DropReason, u64)> {
        let nic = self.collectors[index as usize].nic_counters();
        let fault = self.fault_drops[index as usize];
        // Iterating `DropReason::ALL` (instead of hand-enumerating the
        // variants) keeps this exhaustive by construction: a new reason
        // extends `ALL`, whose own test enforces full coverage.
        DropReason::ALL
            .iter()
            .map(|&reason| (reason, nic.count(reason) + fault.count(reason)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Schedule a re-replication sweep for `primary`, which just
    /// transitioned dead→alive. `records` are the failover records the
    /// switches logged during the outage (drained from their egress
    /// logs); `outage_mask` is the liveness mask of the outage era, so
    /// the sweep reads each key's failover copy from exactly where the
    /// egress put it; `switch_ring_tails` are the primary's append tail
    /// registers as the switches currently hold them (serial-max across
    /// switches, Append primitive only).
    ///
    /// Records parked by an earlier aborted sweep for this primary are
    /// merged in. If a sweep for this primary is already running the new
    /// records are parked instead — they'll ride the next recovery.
    pub fn schedule_rerepl(
        &mut self,
        primary: u32,
        outage_mask: LivenessMask,
        records: Vec<FailoverRecord>,
        switch_ring_tails: &[(u64, u32)],
        config: SweepConfig,
        now: u64,
    ) {
        let mut merged: Vec<FailoverRecord> = self.parked.remove(&primary).unwrap_or_default();
        let mut seen: HashSet<Vec<u8>> = merged.iter().map(|r| r.key.clone()).collect();
        for record in records {
            if record.primary == primary && seen.insert(record.key.clone()) {
                merged.push(record);
            }
        }
        if merged.is_empty() {
            return;
        }
        if self.sweeps.iter().any(|s| s.primary == primary) {
            self.parked.entry(primary).or_default().extend(merged);
            return;
        }
        let mut switch_tails = BTreeMap::new();
        for &(ring, tail) in switch_ring_tails {
            let entry = switch_tails.entry(ring).or_insert(0u32);
            *entry = seq_newest(*entry, tail);
        }
        let qp = self.collectors[primary as usize].allocate_switch_qp();
        if let Some(o) = &self.obs {
            o.obs.event(EventKind::SweepScheduled {
                collector: primary as u8,
                keys: merged.len() as u32,
            });
        }
        self.sweeps.push(RereplSweep {
            primary,
            outage_mask,
            config,
            psn: qp.start_psn.value(),
            qp,
            pending: merged
                .into_iter()
                .map(|record| SweepKey {
                    record,
                    units: None,
                    tombstones: Vec::new(),
                    retries: 0,
                    not_before: now,
                })
                .collect(),
            restored: Vec::new(),
            abandoned: 0,
            next_batch_at: now,
            switch_tails,
            reconciliations: BTreeMap::new(),
        });
    }

    /// Drive every in-flight sweep one frame-clock step. Call once per
    /// simulated frame (alongside fault advancement); batches fire only
    /// when their pacing interval has elapsed, so the sweep consumes
    /// bounded fabric bandwidth. Returns the append tail
    /// reconciliations of any sweep that completed this step — the
    /// caller must push each into every switch's tail registers.
    pub fn rerepl_tick(&mut self, now: u64) -> Vec<RingReconciliation> {
        let mut reconciliations = Vec::new();
        if self.sweeps.is_empty() {
            return reconciliations;
        }
        let sweeps = std::mem::take(&mut self.sweeps);
        let mut keep = Vec::new();
        for mut sweep in sweeps {
            // The recovered primary's RDMA path died again mid-sweep
            // (crash or blackhole). Nothing has been tombstoned
            // (tombstoning only runs at completion), so every failover
            // copy survives; park all keys — restored ones too, their
            // primary copies just got wiped — for the next recovery. A
            // merely *degraded* primary keeps sweeping: last-hop loss
            // is exactly what the per-key retry budget is for.
            if matches!(
                self.health[sweep.primary as usize],
                CollectorHealth::Crashed | CollectorHealth::Blackholed
            ) {
                let parked = self.parked.entry(sweep.primary).or_default();
                for key in sweep.restored.drain(..).chain(sweep.pending.drain(..)) {
                    parked.push(key.record);
                }
                continue;
            }
            if now < sweep.next_batch_at {
                keep.push(sweep);
                continue;
            }
            self.run_sweep_batch(&mut sweep, now);
            if sweep.pending.is_empty() {
                self.complete_sweep(sweep, &mut reconciliations);
            } else {
                keep.push(sweep);
            }
        }
        // Sweeps scheduled from inside this loop are impossible (no
        // re-entrancy), so a plain overwrite-with-kept is safe.
        self.sweeps = keep;
        reconciliations
    }

    /// Run one batch of `sweep`: attempt write-back for up to
    /// `batch_size` keys whose backoff has expired.
    fn run_sweep_batch(&mut self, sweep: &mut RereplSweep, now: u64) {
        let mut requeue = VecDeque::new();
        let mut processed = 0usize;
        let mut batch_copied = 0u32;
        let mut batch_aborted = 0u32;
        while processed < sweep.config.batch_size && !sweep.pending.is_empty() {
            let mut key = sweep.pending.pop_front().expect("checked non-empty");
            if now < key.not_before {
                requeue.push_back(key);
                continue;
            }
            processed += 1;
            if key.units.is_none() {
                match self.build_sweep_units(
                    sweep.primary,
                    sweep.outage_mask,
                    &key.record.key,
                    &sweep.switch_tails,
                    &mut sweep.reconciliations,
                ) {
                    UnitBuild::Units {
                        units,
                        tombstones,
                        scanned,
                    } => {
                        self.rerepl_stats.slots_scanned += scanned;
                        if let Some(o) = &self.obs {
                            o.rerepl_scanned.add(scanned);
                        }
                        key.units = Some(units);
                        key.tombstones = tombstones;
                    }
                    UnitBuild::Stale => {
                        sweep.abandoned += 1;
                        self.rerepl_stats.keys_abandoned += 1;
                        continue;
                    }
                    UnitBuild::TargetDown => {
                        self.parked
                            .entry(sweep.primary)
                            .or_default()
                            .push(key.record);
                        continue;
                    }
                }
            }
            let unit_count = key.units.as_ref().expect("built above").len();
            let mut failed = false;
            for index in 0..unit_count {
                let (kind, done) = {
                    let unit = &key.units.as_ref().expect("built above")[index];
                    (unit.kind.clone(), unit.done)
                };
                if done {
                    continue;
                }
                let frame = self.sweep_frame(&sweep.qp, sweep.psn, &kind);
                match self.deliver(&frame).action {
                    RxAction::WriteExecuted { .. } | RxAction::AtomicExecuted { .. } => {
                        key.units.as_mut().expect("built above")[index].done = true;
                        sweep.psn = (sweep.psn + 1) & (Psn::MODULUS - 1);
                        batch_copied += 1;
                        self.rerepl_stats.slots_copied += 1;
                        if let Some(o) = &self.obs {
                            o.rerepl_copied.inc();
                        }
                    }
                    _ => {
                        // The frame died in the fabric (e.g. the primary
                        // crashed again under us). The PSN is NOT
                        // advanced — the QP never saw this frame, so the
                        // retry must reuse it.
                        batch_aborted += 1;
                        self.rerepl_stats.writebacks_aborted += 1;
                        if let Some(o) = &self.obs {
                            o.rerepl_aborted.inc();
                        }
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                key.retries += 1;
                if key.retries > sweep.config.max_retries {
                    // Retry budget exhausted — but the failover copy is
                    // still intact (only completion tombstones), so the
                    // record parks for the next recovery rather than
                    // vanishing: dropping it would strand that copy
                    // where a live primary shadows it from every read.
                    sweep.abandoned += 1;
                    self.rerepl_stats.keys_abandoned += 1;
                    self.parked
                        .entry(sweep.primary)
                        .or_default()
                        .push(key.record);
                } else {
                    key.not_before = now + sweep.config.retry_backoff;
                    requeue.push_back(key);
                }
            } else {
                sweep.restored.push(key);
            }
        }
        sweep.pending.append(&mut requeue);
        sweep.next_batch_at = now + sweep.config.pacing;
        if processed > 0 {
            self.rerepl_stats.batches += 1;
            if let Some(o) = &self.obs {
                o.rerepl_batches.inc();
                o.obs.event(EventKind::SweepBatch {
                    collector: sweep.primary as u8,
                    copied: batch_copied,
                    aborted: batch_aborted,
                });
            }
        }
    }

    /// Finish a sweep whose pending queue drained: retire the stranded
    /// failover copies (write-backs are all ACKed and the primary was
    /// healthy at the top of this tick, so at tombstone time the data
    /// provably exists on the primary), record the restored keys for
    /// the explain rewrite, and surface the ring reconciliations.
    fn complete_sweep(&mut self, sweep: RereplSweep, out: &mut Vec<RingReconciliation>) {
        let mut tombstoned = 0u64;
        for key in &sweep.restored {
            for &(target, va, len) in &key.tombstones {
                if self.health[target as usize].reachable()
                    && self.collectors[target as usize].tombstone(va, len).is_ok()
                {
                    tombstoned += 1;
                }
            }
            self.restored_keys.insert(key.record.key.clone());
            self.rerepl_stats.keys_restored += 1;
        }
        self.rerepl_stats.slots_tombstoned += tombstoned;
        if let Some(o) = &self.obs {
            o.rerepl_tombstoned.add(tombstoned);
            o.obs.event(EventKind::SweepCompleted {
                collector: sweep.primary as u8,
                restored: sweep.restored.len() as u32,
                abandoned: sweep.abandoned,
            });
        }
        for (&ring, &stored_seq) in &sweep.reconciliations {
            out.push(RingReconciliation {
                collector: sweep.primary,
                ring,
                stored_seq,
            });
        }
    }

    /// Derive one key's write-back units and tombstones from its
    /// failover copy, per primitive:
    ///
    /// * Key-Write: each checksum-verified copy slot at the failover
    ///   target is rewritten verbatim to the same slot index on the
    ///   primary (slot hashes are collector-independent).
    /// * Append: the target ring's matched window is re-appended to the
    ///   primary's ring, sequence numbers continuing from the serial-max
    ///   of the primary's in-memory newest, the switches' tail
    ///   registers, and earlier keys' re-appends this sweep.
    /// * Key-Increment: each nonzero failover counter word is merged
    ///   into the primary's counter by FETCH_ADD of the whole delta.
    fn build_sweep_units(
        &self,
        primary: u32,
        outage_mask: LivenessMask,
        key: &[u8],
        switch_tails: &BTreeMap<u64, u32>,
        reconciliations: &mut BTreeMap<u64, u32>,
    ) -> UnitBuild {
        let target = match failover_collector(self.mapping.as_ref(), key, outage_mask) {
            FailoverTarget::Failover { primary: p, target } if p == primary => target,
            _ => return UnitBuild::Stale,
        };
        if !self.health[target as usize].reachable() {
            return UnitBuild::TargetDown;
        }
        let primary_ep = self.collectors[primary as usize].endpoint();
        let target_ep = self.collectors[target as usize].endpoint();
        let layout = self.config.layout;
        let entry_len = self.config.primitive.entry_len(&layout) as u64;
        let mut units = Vec::new();
        let mut tombstones = Vec::new();
        let mut scanned = 0u64;
        match self.config.primitive {
            PrimitiveSpec::KeyWrite => {
                self.collectors[target as usize].with_view(|view| {
                    for copy in 0..self.config.copies {
                        scanned += 1;
                        if let Some((slot, entry)) = view.verified_copy(key, copy) {
                            units.push(SweepUnit {
                                kind: UnitKind::Write {
                                    va: primary_ep.base_va + slot * entry_len,
                                    payload: entry,
                                },
                                done: false,
                            });
                            tombstones.push((
                                target,
                                target_ep.base_va + slot * entry_len,
                                entry_len as usize,
                            ));
                        }
                    }
                });
            }
            PrimitiveSpec::Append { ring_capacity } => {
                let want = self.mapping.key_checksum(key);
                // Re-appended entries continue after the newest sequence
                // the recovered primary's ring, the switch tail or an
                // earlier reconciliation of this ring has reached.
                let (ring, mem_newest) = self.collectors[primary as usize].with_view(|view| {
                    let ring = view.ring_index(key);
                    let bytes = view.ring_bytes(ring).expect("append primitive has rings");
                    (ring, append_newest_seq(&layout, bytes))
                });
                let mut base =
                    seq_newest(mem_newest, switch_tails.get(&ring).copied().unwrap_or(0));
                if let Some(&running) = reconciliations.get(&ring) {
                    base = seq_newest(base, running);
                }
                let ring_va = |ep: &RemoteEndpoint, position: u64| {
                    ep.base_va + (ring * ring_capacity + position) * entry_len
                };
                let appended = self.collectors[target as usize].with_view(|view| {
                    let bytes = view.ring_bytes(ring).expect("same geometry");
                    // Every matched entry at the target belongs to this
                    // listkey; all are retired once the window lands.
                    let window = append_window(&layout, bytes, want, ring_capacity, |p| {
                        scanned += 1;
                        if p.matched {
                            tombstones.push((
                                target,
                                ring_va(&target_ep, p.position),
                                entry_len as usize,
                            ));
                        }
                    });
                    let mut appended = 0u32;
                    for value in window.values() {
                        appended += 1;
                        let seq = base.wrapping_add(appended);
                        let position = u64::from(seq.wrapping_sub(1)) % ring_capacity;
                        let mut payload = vec![0u8; entry_len as usize];
                        append_encode_entry(&layout, seq, want, value, &mut payload)
                            .expect("geometry validated at construction");
                        units.push(SweepUnit {
                            kind: UnitKind::Write {
                                va: ring_va(&primary_ep, position),
                                payload,
                            },
                            done: false,
                        });
                    }
                    appended
                });
                if appended > 0 {
                    reconciliations.insert(ring, base.wrapping_add(appended));
                }
            }
            PrimitiveSpec::KeyIncrement => {
                self.collectors[target as usize].with_view(|view| {
                    for copy in 0..self.config.copies {
                        scanned += 1;
                        let (slot, value) = view
                            .counter_word(key, copy)
                            .expect("increment geometry validated at construction");
                        if value != 0 {
                            units.push(SweepUnit {
                                kind: UnitKind::FetchAdd {
                                    va: primary_ep.base_va + slot * entry_len,
                                    delta: value,
                                },
                                done: false,
                            });
                            tombstones.push((
                                target,
                                target_ep.base_va + slot * entry_len,
                                entry_len as usize,
                            ));
                        }
                    }
                });
            }
        }
        UnitBuild::Units {
            units,
            tombstones,
            scanned,
        }
    }

    /// Frame one write-back unit for the sweep QP. The sweep is an
    /// ordinary RDMA peer of the fabric: its frames route, transport-
    /// check, and *drop* exactly like switch reports do.
    fn sweep_frame(&self, qp: &RemoteEndpoint, psn: u32, kind: &UnitKind) -> Vec<u8> {
        const SWEEP_SRC_MAC: ethernet::Address = ethernet::Address([0x02, 0xCF, 0, 0, 0, 1]);
        const SWEEP_SRC_IP: ipv4::Address = ipv4::Address([10, 0, 0, 254]);
        const SWEEP_UDP_SRC: u16 = 49153;
        let packet = match kind {
            UnitKind::Write { va, payload } => RoceRepr::Write {
                bth: BthRepr {
                    opcode: Opcode::UcRdmaWriteOnly,
                    solicited: false,
                    migration: true,
                    pad_count: ((4 - payload.len() % 4) % 4) as u8,
                    partition_key: 0xFFFF,
                    dest_qp: qp.qpn,
                    ack_request: false,
                    psn,
                },
                reth: RethRepr {
                    virtual_addr: *va,
                    rkey: qp.rkey,
                    dma_len: payload.len() as u32,
                },
                payload: payload.clone(),
            },
            UnitKind::FetchAdd { va, delta } => RoceRepr::FetchAdd {
                bth: BthRepr {
                    opcode: Opcode::RcFetchAdd,
                    solicited: false,
                    migration: true,
                    pad_count: 0,
                    partition_key: 0xFFFF,
                    dest_qp: qp.qpn,
                    ack_request: true,
                    psn,
                },
                atomic: AtomicEthRepr {
                    virtual_addr: *va,
                    rkey: qp.rkey,
                    swap_or_add: *delta,
                    compare: 0,
                },
            },
        };
        dta_rdma::nic::build_roce_frame(
            SWEEP_SRC_MAC,
            qp.mac,
            SWEEP_SRC_IP,
            qp.ip,
            SWEEP_UDP_SRC,
            &packet,
        )
    }

    /// Cumulative re-replication statistics.
    pub fn rerepl_stats(&self) -> RereplStats {
        self.rerepl_stats
    }

    /// Whether a sweep for `primary` is currently in flight.
    pub fn sweep_active(&self, primary: u32) -> bool {
        self.sweeps.iter().any(|s| s.primary == primary)
    }

    /// Number of sweeps currently in flight.
    pub fn active_sweeps(&self) -> usize {
        self.sweeps.len()
    }

    /// Failover records parked for `primary`, awaiting its next
    /// recovery.
    pub fn parked_records(&self, primary: u32) -> usize {
        self.parked.get(&primary).map_or(0, Vec::len)
    }

    /// Total failover records parked across all primaries.
    pub fn parked_total(&self) -> usize {
        self.parked.values().map(Vec::len).sum()
    }

    /// Whether a completed sweep restored `key` to its primary (drives
    /// the [`DecisionReason::RereplicatedCopy`] explain rewrite).
    pub fn key_restored(&self, key: &[u8]) -> bool {
        self.restored_keys.contains(key)
    }
}

impl core::fmt::Debug for CollectorCluster {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CollectorCluster")
            .field("collectors", &self.collectors.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_core::hash::MappingKind;

    fn config(collectors: u32) -> DartConfig {
        DartConfig::builder()
            .slots(1024)
            .copies(2)
            .collectors(collectors)
            .mapping(MappingKind::Crc)
            .build()
            .unwrap()
    }

    #[test]
    fn directory_in_dense_order() {
        let cluster = CollectorCluster::new(config(4)).unwrap();
        let dir = cluster.directory();
        assert_eq!(dir.len(), 4);
        for (i, ep) in dir.iter().enumerate() {
            assert_eq!(*ep, cluster.collector(i as u32).unwrap().endpoint());
        }
    }

    #[test]
    fn keys_spread_over_collectors() {
        let cluster = CollectorCluster::new(config(4)).unwrap();
        let mut seen = [false; 4];
        // CRC mappings are XOR-linear, so use keys with realistic entropy
        // (like real 5-tuples) rather than dense sequential integers.
        for i in 0..64u64 {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes();
            seen[cluster.collector_of(&key) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all collectors should own keys");
    }

    #[test]
    fn misaddressed_frame_not_delivered() {
        let mut cluster = CollectorCluster::new(config(2)).unwrap();
        let outcome = cluster.deliver(&[0u8; 64]);
        // A zeroed "frame" parses as Ethernet+IPv4 views but matches no
        // collector IP (or fails the parse) — either way, not delivered.
        assert!(matches!(outcome.action, RxAction::Dropped(_)));
        assert_eq!(cluster.total_writes(), 0);
    }

    #[test]
    fn empty_query_routes_somewhere() {
        let cluster = CollectorCluster::new(config(3)).unwrap();
        let explain = cluster.query_explain(b"ghost-key");
        assert_eq!(explain.outcome, Ok(QueryOutcome::Empty));
        let id = cluster.collector_of(b"ghost-key");
        assert_eq!(consulted(&explain), vec![id]);
    }

    /// The collectors whose memory a query actually read.
    fn consulted(explain: &ClusterQueryExplain) -> Vec<u32> {
        explain
            .candidates
            .iter()
            .filter(|c| c.reachable && c.explain.is_some())
            .map(|c| c.collector)
            .collect()
    }

    /// A frame addressed to collector `index` (valid Ethernet+IPv4
    /// envelope, garbage past that — enough to reach the fault layer).
    fn frame_to(cluster: &CollectorCluster, index: u32) -> Vec<u8> {
        let ep = cluster.collector(index).unwrap().endpoint();
        dta_rdma::nic::build_roce_frame(
            ethernet::Address([0x02, 0, 0, 0, 0, 9]),
            ep.mac,
            ipv4::Address([10, 0, 0, 9]),
            ep.ip,
            49152,
            &dta_wire::roce::RoceRepr::Send {
                bth: dta_wire::roce::BthRepr {
                    opcode: dta_wire::roce::Opcode::UcSendOnly,
                    solicited: false,
                    migration: true,
                    pad_count: 0,
                    partition_key: 0xFFFF,
                    dest_qp: ep.qpn,
                    ack_request: false,
                    psn: 0,
                },
                payload: vec![0xAB; 4],
            },
        )
    }

    #[test]
    fn crashed_collector_eats_frames_with_reason() {
        let mut cluster = CollectorCluster::new(config(2)).unwrap();
        cluster.set_health(0, CollectorHealth::Crashed);
        let frame = frame_to(&cluster, 0);
        let outcome = cluster.deliver(&frame);
        assert_eq!(outcome.action, RxAction::Dropped(DropReason::CollectorDown));
        assert_eq!(cluster.fault_drops(0).crashed, 1);
        assert_eq!(
            cluster.drop_histogram(0),
            vec![(DropReason::CollectorDown, 1)]
        );
        // The healthy peer is untouched.
        assert_eq!(cluster.fault_drops(1), FaultDrops::default());
    }

    #[test]
    fn degraded_collector_loses_about_the_loss_rate() {
        let mut cluster = CollectorCluster::with_fault_seed(config(1), 7).unwrap();
        cluster.set_health(0, CollectorHealth::Degraded { loss: 0.3 });
        let frame = frame_to(&cluster, 0);
        for _ in 0..2000 {
            cluster.deliver(&frame);
        }
        let lost = cluster.fault_drops(0).degraded as f64 / 2000.0;
        assert!((lost - 0.3).abs() < 0.04, "observed degraded loss {lost}");
        let hist = cluster.drop_histogram(0);
        assert!(hist
            .iter()
            .any(|&(r, n)| r == DropReason::DegradedLink && n > 0));
    }

    #[test]
    fn probes_reflect_health() {
        let mut cluster = CollectorCluster::with_fault_seed(config(4), 3).unwrap();
        cluster.set_health(1, CollectorHealth::Crashed);
        cluster.set_health(2, CollectorHealth::Blackholed);
        cluster.set_health(3, CollectorHealth::Degraded { loss: 0.5 });
        for _ in 0..50 {
            assert!(cluster.probe(0));
            assert!(!cluster.probe(1));
            assert!(!cluster.probe(2));
        }
        let acks = (0..1000).filter(|_| cluster.probe(3)).count();
        assert!((350..650).contains(&acks), "degraded ack count {acks}");
    }

    #[test]
    fn crashed_primary_errors_until_mask_updates_then_fails_over() {
        let mut cluster = CollectorCluster::new(config(2)).unwrap();
        let key = b"failover-key";
        let primary = cluster.collector_of(key);
        cluster.set_health(primary, CollectorHealth::Crashed);
        // Detection window: mask still says live → only the primary is a
        // candidate, and it is unreachable.
        assert_eq!(
            cluster.try_query(key),
            Err(QueryError::CollectorUnreachable { collector: primary })
        );
        // Control plane flips the mask: the survivor answers (Empty — no
        // data written — but no error).
        let mut mask = cluster.liveness_mask();
        mask.set_live(primary, false);
        cluster.set_liveness_mask(mask);
        let explain = cluster.query_explain(key);
        assert_eq!(explain.outcome, Ok(QueryOutcome::Empty));
        let survivor = 1 - primary;
        assert_eq!(consulted(&explain), vec![survivor]);
    }

    #[test]
    fn blackholed_host_still_answers_queries() {
        let mut cluster = CollectorCluster::new(config(2)).unwrap();
        let key = b"bh-key";
        let primary = cluster.collector_of(key);
        cluster.set_health(primary, CollectorHealth::Blackholed);
        // Host is up — queries reach it even though its NIC eats frames.
        let explain = cluster.query_explain(key);
        assert_eq!(explain.outcome, Ok(QueryOutcome::Empty));
        assert_eq!(consulted(&explain), vec![primary]);
    }

    #[test]
    fn fault_drop_counts_cover_exactly_the_fabric_reasons() {
        let drops = FaultDrops {
            crashed: 1,
            blackholed: 2,
            degraded: 3,
        };
        let total: u64 = DropReason::ALL.iter().map(|&r| drops.count(r)).sum();
        assert_eq!(total, drops.total());
        assert_eq!(drops.count(DropReason::CollectorDown), 1);
        assert_eq!(drops.count(DropReason::Blackholed), 2);
        assert_eq!(drops.count(DropReason::DegradedLink), 3);
        assert_eq!(drops.count(DropReason::Psn), 0);
    }

    /// A well-formed RDMA WRITE landing `value` in `key`'s slot for
    /// `copy` at collector `index` — what a switch would craft.
    fn write_frame(
        cluster: &CollectorCluster,
        index: u32,
        key: &[u8],
        value: &[u8],
        copy: u8,
        psn: u32,
    ) -> Vec<u8> {
        use dta_core::hash::{AddressMapping, CrcMapping};
        let mapping = CrcMapping::new();
        let cfg = config(cluster.len() as u32);
        let slot = mapping.slot(key, copy, cfg.slots);
        let layout = cfg.layout;
        let mut payload = vec![0u8; layout.slot_len()];
        layout
            .encode(mapping.key_checksum(key), value, &mut payload)
            .unwrap();
        let ep = cluster.collector(index).unwrap().endpoint();
        dta_rdma::nic::build_roce_frame(
            ethernet::Address([0x02, 0, 0, 0, 0, 9]),
            ep.mac,
            ipv4::Address([10, 0, 0, 9]),
            ep.ip,
            49152,
            &dta_wire::roce::RoceRepr::Write {
                bth: dta_wire::roce::BthRepr {
                    opcode: dta_wire::roce::Opcode::UcRdmaWriteOnly,
                    solicited: false,
                    migration: true,
                    pad_count: 0,
                    partition_key: 0xFFFF,
                    dest_qp: ep.qpn,
                    ack_request: false,
                    psn,
                },
                reth: dta_wire::roce::RethRepr {
                    virtual_addr: ep.base_va + slot * layout.slot_len() as u64,
                    rkey: ep.rkey,
                    dma_len: layout.slot_len() as u32,
                },
                payload,
            },
        )
    }

    #[test]
    fn obs_traces_drops_writes_queries_and_recovery() {
        let obs = Obs::new();
        let mut cluster = CollectorCluster::new(config(2)).unwrap();
        cluster.attach_obs(&obs);
        let key = b"obs-key";
        let target = cluster.collector_of(key);

        // A fresh write, then an overwrite of the same slot.
        let frame = write_frame(&cluster, target, key, &[1u8; 20], 0, 0);
        assert!(matches!(
            cluster.deliver(&frame).action,
            RxAction::WriteExecuted { fresh: true, .. }
        ));
        let frame = write_frame(&cluster, target, key, &[2u8; 20], 0, 1);
        assert!(matches!(
            cluster.deliver(&frame).action,
            RxAction::WriteExecuted { fresh: false, .. }
        ));
        let registry = obs.registry();
        assert_eq!(
            registry.counter_value("dta_nic_writes_fresh_total"),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("dta_nic_writes_overwritten_total"),
            Some(1)
        );
        assert_eq!(obs.ring().events_named("slot_write").len(), 2);

        // A query probes both copies and answers from the matching one.
        let outcome = cluster
            .explain(key, ReturnPolicy::FirstMatch)
            .outcome
            .unwrap();
        assert_eq!(outcome, QueryOutcome::Answer(vec![2u8; 20]));
        assert_eq!(
            registry.counter_value("dta_cluster_queries_answered_total"),
            Some(1)
        );
        assert_eq!(obs.ring().events_named("query_probe").len(), 2);
        let decisions = obs.ring().events_named("query_decision");
        assert_eq!(decisions.len(), 1);
        assert!(matches!(
            decisions[0].kind,
            EventKind::QueryDecision { answered: true, .. }
        ));

        // Crash the collector: fabric drops are counted per reason.
        cluster.set_health(target, CollectorHealth::Crashed);
        let frame = write_frame(&cluster, target, key, &[3u8; 20], 0, 2);
        assert_eq!(
            cluster.deliver(&frame).action,
            RxAction::Dropped(DropReason::CollectorDown)
        );
        assert_eq!(
            registry.counter_value("dta_nic_drops_collector_down_total"),
            Some(1)
        );
        assert_eq!(obs.ring().events_named("nic_drop").len(), 1);

        // Detection window: the query is unreachable, and says so.
        assert!(cluster
            .explain(key, ReturnPolicy::FirstMatch)
            .outcome
            .is_err());
        assert_eq!(
            registry.counter_value("dta_cluster_queries_unreachable_total"),
            Some(1)
        );

        // Recovery is logged with the wipe flag.
        cluster.recover(target);
        let recoveries = obs.ring().events_named("recovery");
        assert_eq!(recoveries.len(), 1);
        assert_eq!(
            recoveries[0].kind,
            EventKind::Recovery {
                collector: target as u8,
                wiped: true
            }
        );
        assert_eq!(
            registry.counter_value("dta_cluster_recoveries_total"),
            Some(1)
        );
    }

    #[test]
    fn explain_narrates_failover_routing() {
        let mut cluster = CollectorCluster::new(config(2)).unwrap();
        let key = b"failover-key";
        let primary = cluster.collector_of(key);
        let survivor = 1 - primary;

        // Healthy cluster: primary routing, both copies probed, empty.
        let explain = cluster.query_explain(key);
        assert_eq!(explain.key_collector, primary);
        assert_eq!(explain.routing, QueryRouting::Primary(primary));
        assert_eq!(explain.candidates.len(), 1);
        let store = explain.candidates[0].explain.as_ref().unwrap();
        assert_eq!(store.probes.len(), 2);
        assert!(store.probes.iter().all(|p| !p.occupied));
        assert_eq!(explain.outcome, Ok(QueryOutcome::Empty));
        assert_eq!(explain.answered_by, None);

        // Crash + mask flip: failover routing reads the survivor first
        // and records the dead primary as unreachable.
        cluster.set_health(primary, CollectorHealth::Crashed);
        let mut mask = cluster.liveness_mask();
        mask.set_live(primary, false);
        cluster.set_liveness_mask(mask);
        let explain = cluster.query_explain(key);
        assert_eq!(
            explain.routing,
            QueryRouting::Failover {
                primary,
                target: survivor
            }
        );
        assert_eq!(explain.candidates[0].collector, survivor);
        assert!(explain.candidates[0].reachable);
        assert_eq!(explain.candidates[1].collector, primary);
        assert!(!explain.candidates[1].reachable);
        assert!(explain.candidates[1].explain.is_none());
        assert_eq!(explain.outcome, Ok(QueryOutcome::Empty));

        // Detection window (mask still optimistic): the unreachable
        // error is traced, not folded into Empty.
        cluster.set_liveness_mask(LivenessMask::all_live(2));
        let explain = cluster.query_explain(key);
        assert_eq!(explain.routing, QueryRouting::Primary(primary));
        assert_eq!(
            explain.outcome,
            Err(QueryError::CollectorUnreachable { collector: primary })
        );
    }

    #[test]
    fn ten_rotations_keep_three_regions_and_archive_the_rest() {
        use crate::dart_collector::DRAM_EPOCHS;
        use dta_switch::control_plane::ControlPlane;
        use dta_switch::egress::{DartEgress, EgressConfig};

        let mut cluster = CollectorCluster::new(config(2)).unwrap();
        let mut egress = DartEgress::new(
            dta_switch::SwitchIdentity::derived(3),
            EgressConfig {
                copies: 2,
                slots: 1024,
                layout: cluster.config.layout,
                collectors: 2,
                udp_src_port: 49152,
                primitive: PrimitiveSpec::KeyWrite,
            },
            3,
        )
        .unwrap();
        ControlPlane::new()
            .install_directory(&mut egress, &cluster.directory_for_switch())
            .unwrap();
        let keys: Vec<[u8; 8]> = (0..16u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes())
            .collect();
        for epoch in 0..10u8 {
            for key in &keys {
                for report in egress.craft(key, &[epoch; 20]).unwrap() {
                    cluster.deliver(&report.frame);
                }
            }
            assert_eq!(cluster.rotate_epoch(), Ok(u64::from(epoch)));
            egress.repoint_collectors(&cluster.directory()).unwrap();
        }
        for index in 0..2 {
            let collector = cluster.collector(index).unwrap();
            assert!(collector.registered_regions() <= 1 + DRAM_EPOCHS);
            assert_eq!(collector.archived_epochs(), (0..8).collect::<Vec<_>>());
            assert_eq!(collector.dram_epochs(), vec![8, 9]);
        }
        for key in &keys {
            let owner = cluster.collector(cluster.collector_of(key)).unwrap();
            for epoch in 0..10u8 {
                assert_eq!(
                    owner.query_epoch(u64::from(epoch), key),
                    Ok(QueryOutcome::Answer(vec![epoch; 20]))
                );
            }
        }
    }

    #[test]
    fn rotation_waits_for_the_recovery_sweep() {
        let mut cluster = CollectorCluster::new(config(2)).unwrap();
        let mut outage = LivenessMask::all_live(2);
        outage.set_live(0, false);
        let record = FailoverRecord {
            primary: 0,
            target: 1,
            key: b"k".to_vec(),
        };
        cluster.schedule_rerepl(0, outage, vec![record], &[], SweepConfig::default(), 0);
        assert_eq!(cluster.active_sweeps(), 1);
        assert_eq!(cluster.rotate_epoch(), Err(DartError::SweepInProgress));
        assert_eq!(cluster.collector(0).unwrap().epoch(), 0);
        let mut now = 0;
        while cluster.active_sweeps() > 0 {
            now += 1;
            assert!(now < 10_000, "the sweep must finish");
            cluster.rerepl_tick(now);
        }
        assert_eq!(cluster.rotate_epoch(), Ok(0));
        assert_eq!(cluster.collector(1).unwrap().epoch(), 1);
    }

    #[test]
    fn recovery_from_crash_wipes_only_the_crashed_host() {
        let mut cluster = CollectorCluster::new(config(2)).unwrap();
        cluster.set_health(0, CollectorHealth::Crashed);
        cluster.recover(0);
        assert_eq!(cluster.health(0), CollectorHealth::Healthy);
        // Blackhole recovery keeps memory (host never died) — just check
        // the health transition here; data survival is covered end to end
        // in the chaos suite.
        cluster.set_health(1, CollectorHealth::Blackholed);
        cluster.recover(1);
        assert_eq!(cluster.health(1), CollectorHealth::Healthy);
    }
}
