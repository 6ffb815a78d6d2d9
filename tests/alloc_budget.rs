//! Allocation budgets of the per-report path: switch egress → collector
//! NIC → query. A counting global allocator (per thread, so parallel
//! tests do not disturb each other) pins how many heap allocations each
//! step may make:
//!
//! * a Key-Write or Key-Increment frame crafted into a warm
//!   `FrameArena` and delivered with `CollectorCluster::deliver_batch`:
//!   none, end to end;
//! * a whole `FatTreeSim::run_flow` (flow generation, routing, INT,
//!   egress, link, delivery, ground truth): at most 0.05 per flow on
//!   average once warm — only the amortized growth of the truth and
//!   flow-dedup tables remains;
//! * a Key-Write egress frame crafted as an owned `CraftedReport` (the
//!   wrapper API): at most 2 — the frame itself, plus the flow's value
//!   bytes and report list shared by its `N` frames;
//! * a delivered WRITE or FETCH_ADD: none (zero-copy parse, DMA in
//!   place, the RC ACK described rather than serialized);
//! * a Key-Write or Key-Increment point query (`try_query`, which
//!   records no trace): the answer's bytes and nothing else — 1 for an
//!   answer, including one read from the primary behind a failover
//!   location, 0 for an empty return or an unreachable collector;
//! * an Append window read (`try_query` on a listkey): the same — 1 for
//!   the concatenated window, 0 for an empty ring;
//! * a data packet crossing five INT hops: none (the stack is inline).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use direct_telemetry_access::collector::{
    CollectorCluster, CollectorHealth, QueryError, QueryRouting,
};
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::{LivenessMask, MappingKind};
use direct_telemetry_access::core::primitive::increment_encode;
use direct_telemetry_access::core::query::QueryOutcome;
use direct_telemetry_access::core::PrimitiveSpec;
use direct_telemetry_access::obs::Obs;
use direct_telemetry_access::rdma::link::FrameArena;
use direct_telemetry_access::rdma::nic::RxAction;
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{CraftedReport, EgressConfig};
use direct_telemetry_access::switch::int_transit::{IntPacket, IntRole, IntSwitch};
use direct_telemetry_access::switch::SwitchIdentity;
use direct_telemetry_access::topology::sim::{FatTreeSim, ReportMode, SimConfig};
use direct_telemetry_access::wire::int::{HopMetadata, IntStack};
use direct_telemetry_access::wire::{ipv4, FiveTuple};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the thread-local counter is plain statistics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and the allocations it made on this
/// thread (reallocations included).
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const SLOTS: u64 = 1 << 12;
const HOPS: usize = 5;

/// A four-collector cluster, observed like `FatTreeSim` observes it, and
/// one switch with its own queue pairs at every collector.
fn system(primitive: PrimitiveSpec) -> (CollectorCluster, IntSwitch) {
    let config = DartConfig::builder()
        .slots(SLOTS)
        .copies(2)
        .value_len(HOPS * 4)
        .collectors(4)
        .mapping(MappingKind::Crc)
        .primitive(primitive)
        .build()
        .unwrap();
    let egress = EgressConfig {
        copies: config.copies,
        slots: SLOTS,
        layout: config.layout,
        collectors: 4,
        udp_src_port: 49152,
        primitive,
    };
    let mut cluster = CollectorCluster::new(config).unwrap();
    cluster.attach_obs(&Obs::noop());
    let mut switch = IntSwitch::new(SwitchIdentity::derived(3), egress, HOPS, 0x5EED).unwrap();
    let directory = cluster.directory_for_switch();
    ControlPlane::new()
        .install_directory(switch.egress_mut(), &directory)
        .unwrap();
    (cluster, switch)
}

fn flow(i: u32) -> FiveTuple {
    let b = i.to_be_bytes();
    FiveTuple {
        src_ip: ipv4::Address([10, b[1], b[2], b[3]]),
        dst_ip: ipv4::Address([10, 1, b[3], b[2]]),
        src_port: 1024 + (i % 50_000) as u16,
        dst_port: 80,
        protocol: 6,
    }
}

fn path(i: u32) -> IntStack {
    let mut stack = IntStack::new();
    for hop in 0..(i as usize % HOPS) + 1 {
        stack
            .push(HopMetadata {
                switch_id: 1 + hop as u32,
            })
            .unwrap();
    }
    stack
}

/// Deliver `reports`, asserting each frame costs no allocation and ends
/// as `expect` says.
fn deliver_free(
    cluster: &mut CollectorCluster,
    reports: Vec<CraftedReport>,
    expect: impl Fn(&RxAction) -> bool,
) {
    for report in reports {
        let (outcome, allocs) = allocs_during(|| cluster.deliver(&report.frame));
        assert!(expect(&outcome.action), "unexpected {:?}", outcome.action);
        assert_eq!(allocs, 0, "delivering {:?} allocated", outcome.action);
    }
}

#[test]
fn key_write_report_path_stays_within_budget() {
    let (mut cluster, mut switch) = system(PrimitiveSpec::KeyWrite);
    let flows = 200u32;
    let mut frames = 0u64;
    let mut egress_allocs = 0u64;
    for i in 0..flows {
        let stack = path(i);
        let (reports, allocs) = allocs_during(|| switch.report_all_copies(&flow(i), &stack));
        let reports = reports.unwrap();
        frames += reports.len() as u64;
        egress_allocs += allocs;
        deliver_free(&mut cluster, reports, |action| {
            matches!(action, RxAction::WriteExecuted { .. })
        });
    }
    assert_eq!(frames, 2 * u64::from(flows));
    assert!(
        egress_allocs <= 2 * frames,
        "{egress_allocs} allocations for {frames} egress frames"
    );

    // Reported keys answer, never-reported keys come back empty; both
    // within the query budget.
    for i in 0..flows + 50 {
        let key = flow(i).to_bytes();
        let (outcome, allocs) = allocs_during(|| cluster.try_query(&key));
        let outcome = outcome.unwrap();
        if i < flows {
            assert!(outcome.is_answer(), "flow {i} unanswered");
            assert!(allocs <= 1, "answered query {i}: {allocs} allocations");
        } else {
            assert_eq!(outcome, QueryOutcome::Empty);
            assert_eq!(allocs, 0, "empty query {i} allocated");
        }
    }
    failover_and_unreachable_queries_within_budget(&mut cluster, flows);
}

/// Queries of reported flows `0..flows` while one collector is marked
/// dead, and while one is down but still marked live: a failover read
/// that the primary answers costs the answer's bytes, one the failover
/// location leaves empty or that reaches no collector costs nothing.
fn failover_and_unreachable_queries_within_budget(cluster: &mut CollectorCluster, flows: u32) {
    const VICTIM: u32 = 1;
    let keys: Vec<_> = (0..flows)
        .map(|i| flow(i).to_bytes())
        .filter(|key| cluster.collector_of(key) == VICTIM)
        .collect();
    assert!(!keys.is_empty(), "no flow hashed to collector {VICTIM}");

    // Marked dead but still reachable: the failover target holds
    // nothing for these keys, the primary behind it answers.
    let mut mask = LivenessMask::all_live(4);
    mask.set_live(VICTIM, false);
    cluster.set_liveness_mask(mask);
    for key in &keys {
        let (outcome, allocs) = allocs_during(|| cluster.try_query(key));
        assert!(outcome.unwrap().is_answer(), "primary behind failover");
        assert!(allocs <= 1, "failover read: {allocs} allocations");
        let explain = cluster.query_explain(key);
        assert!(matches!(explain.routing, QueryRouting::Failover { .. }));
        assert_eq!(explain.answered_by, Some(VICTIM));
    }

    // Down as well: the failover target is the only reachable location.
    cluster.set_health(VICTIM, CollectorHealth::Crashed);
    for key in &keys {
        let (outcome, allocs) = allocs_during(|| cluster.try_query(key));
        assert_eq!(outcome, Ok(QueryOutcome::Empty));
        assert_eq!(allocs, 0, "empty failover read allocated");
    }

    // Down but still marked live: the primary is the only location.
    cluster.set_liveness_mask(LivenessMask::all_live(4));
    for key in &keys {
        let (outcome, allocs) = allocs_during(|| cluster.try_query(key));
        assert_eq!(
            outcome,
            Err(QueryError::CollectorUnreachable { collector: VICTIM })
        );
        assert_eq!(allocs, 0, "unreachable query allocated");
    }
}

#[test]
fn fetch_add_delivery_allocates_nothing() {
    let (mut cluster, mut switch) = system(PrimitiveSpec::KeyIncrement);
    let delta = increment_encode(1);
    for i in 0..100u32 {
        let key = flow(i).to_bytes();
        let reports = switch.egress_mut().craft(&key, &delta).unwrap();
        assert_eq!(reports.len(), 2);
        for report in reports {
            let (outcome, allocs) = allocs_during(|| cluster.deliver(&report.frame));
            assert!(
                matches!(outcome.action, RxAction::AtomicExecuted { .. }),
                "unexpected {:?}",
                outcome.action
            );
            assert!(outcome.response.is_some(), "RC atomics are ACKed");
            assert_eq!(allocs, 0, "delivering a FETCH_ADD allocated");
        }
    }
    assert_eq!(cluster.total_atomics(), 200);
    for i in 0..150u32 {
        let (outcome, allocs) = allocs_during(|| cluster.try_query(&flow(i).to_bytes()));
        if i < 100 {
            assert_eq!(
                outcome.unwrap(),
                QueryOutcome::Answer(1u64.to_be_bytes().to_vec())
            );
            assert!(allocs <= 1, "counter query {i}: {allocs} allocations");
        } else {
            assert_eq!(outcome.unwrap(), QueryOutcome::Empty);
            assert_eq!(allocs, 0, "empty counter query {i} allocated");
        }
    }
    failover_and_unreachable_queries_within_budget(&mut cluster, 100);
}

#[test]
fn append_queries_stay_within_budget() {
    let primitive = PrimitiveSpec::Append { ring_capacity: 8 };
    let (mut cluster, mut switch) = system(primitive);
    let mut arena = FrameArena::new();
    let listkeys = 50u32;
    for round in 0..3 {
        for i in 0..listkeys {
            let mut value = [0u8; HOPS * 4];
            path(i + round)
                .write_padded_value_bytes(&mut value)
                .unwrap();
            switch
                .egress_mut()
                .craft_into(&flow(i).to_bytes(), &value, &mut arena)
                .unwrap();
        }
        cluster.deliver_batch(&arena);
        arena.clear();
    }
    assert_eq!(cluster.total_writes(), 3 * u64::from(listkeys));
    for i in 0..listkeys + 50 {
        let key = flow(i).to_bytes();
        let (outcome, allocs) = allocs_during(|| cluster.try_query(&key));
        let outcome = outcome.unwrap();
        if i < listkeys {
            assert!(outcome.is_answer(), "listkey {i} unanswered");
            assert!(allocs <= 1, "window read {i}: {allocs} allocations");
        } else {
            assert_eq!(outcome, QueryOutcome::Empty);
            assert_eq!(allocs, 0, "empty window read {i} allocated");
        }
    }
    failover_and_unreachable_queries_within_budget(&mut cluster, listkeys);
}

#[test]
fn int_transit_allocates_nothing() {
    let (_, mut switch) = system(PrimitiveSpec::KeyWrite);
    let roles = [
        IntRole::Source,
        IntRole::Transit,
        IntRole::Transit,
        IntRole::Transit,
        IntRole::Transit,
    ];
    let (packet, allocs) = allocs_during(|| {
        let mut packet = IntPacket::new(flow(1));
        for role in roles {
            assert!(switch.process(&mut packet, role).unwrap().is_none());
        }
        packet
    });
    assert_eq!(packet.stack.len(), HOPS);
    assert_eq!(allocs, 0, "INT transit over {HOPS} hops allocated");
}

/// Craft one flow's report into `arena` and deliver the batch.
fn arena_flow(
    cluster: &mut CollectorCluster,
    switch: &mut IntSwitch,
    arena: &mut FrameArena,
    i: u32,
    primitive: PrimitiveSpec,
) {
    let key = flow(i).to_bytes();
    match primitive {
        PrimitiveSpec::KeyIncrement => switch
            .egress_mut()
            .craft_into(&key, &increment_encode(1), arena)
            .unwrap(),
        _ => {
            let mut value = [0u8; HOPS * 4];
            path(i).write_padded_value_bytes(&mut value).unwrap();
            switch.egress_mut().craft_into(&key, &value, arena).unwrap();
        }
    }
    assert_eq!(arena.len(), 2);
    cluster.deliver_batch(arena);
    arena.clear();
}

#[test]
fn arena_report_path_allocates_nothing() {
    for primitive in [PrimitiveSpec::KeyWrite, PrimitiveSpec::KeyIncrement] {
        let (mut cluster, mut switch) = system(primitive);
        let mut arena = FrameArena::new();
        // Warm the arena's two buffers.
        arena_flow(&mut cluster, &mut switch, &mut arena, 0, primitive);
        for i in 1..200u32 {
            let ((), allocs) =
                allocs_during(|| arena_flow(&mut cluster, &mut switch, &mut arena, i, primitive));
            assert_eq!(
                allocs, 0,
                "{primitive:?} flow {i}: crafting and delivery allocated"
            );
        }
        let executed = match primitive {
            PrimitiveSpec::KeyIncrement => cluster.total_atomics(),
            _ => cluster.total_writes(),
        };
        assert_eq!(executed, 400, "{primitive:?}: every frame executed");
    }
}

#[test]
fn fattree_flows_average_under_five_hundredths_of_an_allocation() {
    for (primitive, mode) in [
        (PrimitiveSpec::KeyWrite, ReportMode::AllCopies),
        (PrimitiveSpec::KeyIncrement, ReportMode::PerPacket(4)),
    ] {
        let mut sim = FatTreeSim::new(SimConfig {
            k: 8,
            primitive,
            mode,
            slots: SLOTS,
            collectors: 4,
            ..SimConfig::default()
        })
        .unwrap();
        sim.run_flows(2_000).unwrap();
        const FLOWS: u64 = 20_000;
        let (result, allocs) = allocs_during(|| sim.run_flows(FLOWS));
        result.unwrap();
        let per_flow = allocs as f64 / FLOWS as f64;
        assert!(
            per_flow <= 0.05,
            "{primitive:?} {mode:?}: {allocs} allocations over {FLOWS} flows"
        );
    }
}
