//! Key-Increment under a crash/recover rotation, end to end through
//! `FatTreeSim`: the run is a pure function of its seed, and a recovered
//! collector's RC queue pairs accept reports again instead of staying
//! PSN-gated behind the reports lost while it was down.

use direct_telemetry_access::collector::RereplStats;
use direct_telemetry_access::core::primitive::PrimitiveSpec;
use direct_telemetry_access::core::query::classify;
use direct_telemetry_access::core::query::QueryClass;
use direct_telemetry_access::topology::sim::{
    CollectorFault, FatTreeSim, FaultKind, ReportMode, SimConfig,
};
use direct_telemetry_access::wire::FiveTuple;

const COLLECTORS: u32 = 4;
const CRASH_EVERY: u64 = 3_000;
const DOWN_FOR: u64 = 1_000;

/// Crash every collector once, round-robin, each recovering with wiped
/// memory `DOWN_FOR` frames later.
fn churn_config(seed: u64) -> SimConfig {
    SimConfig {
        primitive: PrimitiveSpec::KeyIncrement,
        mode: ReportMode::PerPacket(4),
        slots: 1 << 12,
        collectors: COLLECTORS,
        seed,
        faults: (0..COLLECTORS)
            .map(|index| CollectorFault {
                index,
                after_frames: CRASH_EVERY * u64::from(index + 1),
                kind: FaultKind::Crash,
                recover_after: Some(DOWN_FOR),
            })
            .collect(),
        ..SimConfig::default()
    }
}

/// Everything a run's outcome is judged by.
#[derive(Debug, PartialEq)]
struct Run {
    /// Correct, empty, wrong and unreachable answers over every query.
    tally: [u64; 4],
    rerepl: RereplStats,
    atomics: u64,
    psn_drops: Vec<u64>,
}

/// Classify `tuple`'s answer against its expected total into `tally`.
fn tally_query(sim: &mut FatTreeSim, tuple: &FiveTuple, total: u64, tally: &mut [u64; 4]) {
    let slot = match sim.try_query_flow(tuple) {
        Ok(outcome) => match classify(&outcome, &total.to_be_bytes()) {
            QueryClass::Correct => 0,
            QueryClass::EmptyReturn => 1,
            QueryClass::ReturnError => 2,
        },
        Err(_) => 3,
    };
    tally[slot] += 1;
}

/// Run `flows` flows, querying the newest flows every 16 so reads
/// interleave with the recovery sweeps (which write keys back in the
/// order the switches' failover logs drain), then query every flow.
fn run(seed: u64, flows: usize) -> Run {
    let mut sim = FatTreeSim::new(churn_config(seed)).unwrap();
    let mut totals: Vec<(FiveTuple, u64)> = Vec::new();
    let mut tally = [0u64; 4];
    for i in 1..=flows {
        let tuple = sim.run_flow().unwrap();
        match totals.iter_mut().find(|(t, _)| *t == tuple) {
            Some((_, total)) => *total += 4,
            None => totals.push((tuple, 4)),
        }
        if i % 16 == 0 {
            for &(tuple, total) in totals.iter().rev().take(64) {
                tally_query(&mut sim, &tuple, total, &mut tally);
            }
        }
    }
    for &(tuple, total) in &totals {
        tally_query(&mut sim, &tuple, total, &mut tally);
    }
    let cluster = sim.cluster();
    Run {
        tally,
        rerepl: cluster.rerepl_stats(),
        atomics: cluster.total_atomics(),
        psn_drops: (0..COLLECTORS)
            .map(|id| cluster.collector(id).unwrap().nic_counters().psn)
            .collect(),
    }
}

#[test]
fn same_seed_churn_runs_agree_exactly() {
    // Two runs in one process: any iteration-order dependence (e.g. on a
    // randomly seeded hash map) would make them disagree.
    let first = run(0xC4A2, 2_000);
    let second = run(0xC4A2, 2_000);
    assert!(first.rerepl.batches > 0, "no sweep ran: {first:?}");
    assert_eq!(first, second);
}

#[test]
fn recovered_collector_accepts_reports_without_psn_drops() {
    const CRASHED: u32 = 0;
    let mut sim = FatTreeSim::new(SimConfig {
        faults: vec![CollectorFault {
            index: CRASHED,
            after_frames: CRASH_EVERY,
            kind: FaultKind::Crash,
            recover_after: Some(DOWN_FOR),
        }],
        ..churn_config(0x9E5)
    })
    .unwrap();
    let counters = |sim: &FatTreeSim| sim.cluster().collector(CRASHED).unwrap().nic_counters();

    // Down, detected, recovered, and marked live again.
    let mut went_down = false;
    let mut flows = 0;
    while !(went_down && sim.liveness_mask().is_live(CRASHED)) {
        sim.run_flow().unwrap();
        went_down |= !sim.liveness_mask().is_live(CRASHED);
        flows += 1;
        assert!(flows < 5_000, "crash never detected and recovered");
    }
    let at_flip = counters(&sim);

    // The switches spent PSNs on reports the fabric dropped while the
    // host was down; the re-handshake at recovery adopts their current
    // PSNs, so every later report commits.
    sim.run_flows(500).unwrap();
    let after = counters(&sim);
    assert_eq!(after.psn, at_flip.psn, "PSN drops kept growing");
    assert_eq!(after.psn, 0, "a gap was NAKed");
    assert!(
        after.fetch_adds > at_flip.fetch_adds + 500,
        "recovered collector took {} atomics in 500 flows",
        after.fetch_adds - at_flip.fetch_adds
    );
}
