//! Collector-failure chaos suite: crash, blackhole and degrade faults
//! under link loss, with switch-side failover and recovery.
//!
//! The robustness contract under test: collector failures may lose
//! telemetry (reads go empty) and may be *unanswerable* during the
//! detection window, but they must never produce a wrong answer, and
//! once the health monitor flips the liveness registers the failover
//! hash must keep new telemetry flowing and queryable.

use std::collections::HashMap;

use direct_telemetry_access::collector::{CollectorCluster, CollectorHealth, SweepConfig};
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::MappingKind;
use direct_telemetry_access::core::query::QueryOutcome;
use direct_telemetry_access::core::PrimitiveSpec;
use direct_telemetry_access::rdma::link::FaultModel;
use direct_telemetry_access::rdma::nic::DropReason;
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;
use direct_telemetry_access::topology::sim::{
    CollectorFault, FatTreeSim, FaultKind, ReportMode, SimConfig, SimReport,
};
use direct_telemetry_access::wire::dart::{ChecksumWidth, SlotLayout};
use direct_telemetry_access::wire::FiveTuple;

const CRASHED: u32 = 1;

/// The WRITE-based primitives share one failure contract: lost
/// telemetry reads *empty*, never wrong. (Key-Increment's contract is
/// conservative totals instead — covered by its own scenario below.)
fn write_primitives() -> [PrimitiveSpec; 2] {
    [
        PrimitiveSpec::KeyWrite,
        PrimitiveSpec::Append { ring_capacity: 4 },
    ]
}

fn chaos_config(primitive: PrimitiveSpec, faults: Vec<CollectorFault>) -> SimConfig {
    SimConfig {
        primitive,
        // Append gets a larger ring directory: rings have no copy
        // fan-out, and cross-switch ring sharing (its intrinsic aliasing
        // mode, pinned by the sim's own tests) would otherwise drown the
        // failover signal this suite is after.
        slots: match primitive {
            PrimitiveSpec::Append { .. } => 1 << 12,
            _ => 1 << 10,
        },
        collectors: 4,
        fault: FaultModel::Bernoulli { loss: 0.1 },
        faults,
        seed: 0xC7A0,
        ..SimConfig::default()
    }
}

/// Frames emitted per finished flow: Key-Write reports every copy,
/// Append writes one ring entry. Fault onsets are scheduled in *flow*
/// time (`flows × frames_per_flow`) so every primitive takes the hit at
/// the same point of its run.
fn frames_per_flow(primitive: PrimitiveSpec) -> u64 {
    match primitive {
        PrimitiveSpec::KeyWrite => 2,
        _ => 1,
    }
}

/// Without copy fan-out a single lost WRITE loses the flow, so Append
/// rides the raw link loss while Key-Write's redundancy masks it. The
/// success floors scale accordingly.
fn success_floor(primitive: PrimitiveSpec, key_write_floor: f64) -> f64 {
    match primitive {
        PrimitiveSpec::KeyWrite => key_write_floor,
        _ => key_write_floor - 0.15,
    }
}

fn run(
    primitive: PrimitiveSpec,
    faults: Vec<CollectorFault>,
    flows: u64,
) -> (FatTreeSim, SimReport) {
    let mut sim = FatTreeSim::new(chaos_config(primitive, faults)).unwrap();
    sim.run_flows(flows).unwrap();
    let report = sim.query_all(4);
    (sim, report)
}

/// The acceptance scenario: 4 collectors under 10% link loss, one
/// crashed mid-run. Queries must keep ≥ 90% of the healthy-run success
/// rate, with exactly zero wrong answers throughout — for both
/// WRITE-based primitives through the same failover path.
#[test]
fn crash_under_loss_meets_the_failover_bar() {
    for primitive in write_primitives() {
        let (_, healthy) = run(primitive, Vec::new(), 1000);
        assert_eq!(healthy.error, 0, "{primitive:?}");
        assert_eq!(healthy.unreachable, 0, "{primitive:?}");

        let (sim, chaos) = run(
            primitive,
            vec![CollectorFault {
                index: CRASHED,
                after_frames: 150 * frames_per_flow(primitive),
                kind: FaultKind::Crash,
                recover_after: None,
            }],
            1000,
        );
        // The monitor flipped the liveness registers.
        assert!(!sim.liveness_mask().is_live(CRASHED), "crash undetected");
        // Zero wrong answers, ever. Lost telemetry reads empty instead.
        assert_eq!(chaos.error, 0, "{primitive:?}");
        // At query time failover covers every key: the dead collector's
        // share is answerable from its survivors, so nothing is unreachable.
        assert_eq!(chaos.unreachable, 0, "{primitive:?}");
        // Frames crafted between the crash and its detection died at the
        // crashed host, and the histogram says exactly why.
        assert!(chaos.fault_drops[CRASHED as usize].crashed > 0);
        assert!(chaos.drop_histograms[CRASHED as usize]
            .iter()
            .any(|&(r, n)| r == DropReason::CollectorDown && n > 0));
        // The bar: ≥ 90% of the healthy-run success rate.
        assert!(
            chaos.success_rate() >= 0.9 * healthy.success_rate(),
            "{primitive:?}: chaos {} vs healthy {}",
            chaos.success_rate(),
            healthy.success_rate()
        );
    }
}

/// Key-Increment under the same crash-plus-loss chaos. Its contract is
/// different in kind: totals may *lag* the truth (lost FETCH_ADDs,
/// deltas wiped with the crashed host) but the min-over-copies answer
/// must stay conservative. The one exception is intrinsic to the
/// primitive: counter words carry no key checksum, so two keys sharing
/// a copy word read a merged (inflated) total — bounded here, and
/// everything else must never overcount.
#[test]
fn crash_under_loss_keeps_increments_conservative() {
    let mut sim = FatTreeSim::new(SimConfig {
        mode: ReportMode::PerPacket(3),
        slots: 1 << 12,
        ..chaos_config(
            PrimitiveSpec::KeyIncrement,
            vec![CollectorFault {
                index: CRASHED,
                after_frames: 300,
                kind: FaultKind::Crash,
                recover_after: None,
            }],
        )
    })
    .unwrap();

    // Track the ground-truth totals ourselves: each flow contributes
    // three FETCH_ADD deltas of 1 to its tuple's counter.
    let mut expected: HashMap<FiveTuple, u64> = HashMap::new();
    for _ in 0..400 {
        let tuple = sim.run_flow().unwrap();
        *expected.entry(tuple).or_insert(0) += 3;
    }
    assert!(!sim.liveness_mask().is_live(CRASHED), "crash undetected");

    let mut exact = 0u64;
    let mut lagging = 0u64;
    let mut merged = 0u64;
    for (tuple, &truth) in &expected {
        match sim.try_query_flow(tuple).unwrap() {
            QueryOutcome::Empty => lagging += 1,
            QueryOutcome::Answer(bytes) => {
                let total = u64::from_be_bytes(bytes.as_slice().try_into().unwrap());
                if total > truth {
                    merged += 1;
                } else if total < truth {
                    lagging += 1;
                } else {
                    exact += 1;
                }
            }
        }
    }
    // Loss and the crash must leave visible lag — and nothing else.
    assert!(
        lagging > 0,
        "10% loss plus a crash must leave totals lagging"
    );
    assert!(
        merged <= 10,
        "collision merging out of band: {merged} of {} tuples",
        expected.len()
    );
    // Atomics ride RC, and RC is strict: the first PSN lost on a
    // switch→collector QP NAK-gates everything the switch sends it
    // afterwards. Under sustained 10% loss most QPs stop accepting
    // early, so lag dominates — but whatever *is* answered stays exact,
    // and some totals land fully before their QP dies.
    assert!(exact >= 10, "exact {exact} of {}", expected.len());
    // The commit path was atomics-only, with crash damage on record.
    let report = sim.query_all(4);
    assert_eq!(report.nic_writes, 0);
    assert!(report.nic_atomics > 0);
    assert!(report.fault_drops[CRASHED as usize].crashed > 0);
    assert!(report.drop_histograms[CRASHED as usize]
        .iter()
        .any(|&(r, n)| r == DropReason::CollectorDown && n > 0));
}

/// During the detection window a crashed collector's keys surface as
/// *unreachable* (a typed error) — never as a silent wrong answer.
/// This holds for every primitive: reachability is decided before the
/// slot semantics ever run.
#[test]
fn detection_window_errors_are_typed_not_wrong() {
    for primitive in [
        PrimitiveSpec::KeyWrite,
        PrimitiveSpec::Append { ring_capacity: 4 },
        PrimitiveSpec::KeyIncrement,
    ] {
        let mut sim = FatTreeSim::new(chaos_config(primitive, Vec::new())).unwrap();
        let mut tuples = Vec::new();
        for _ in 0..200 {
            tuples.push(sim.run_flow().unwrap());
        }
        // Crash outside the schedule so the monitor has not noticed yet.
        sim.cluster_mut()
            .set_health(CRASHED, CollectorHealth::Crashed);
        let mut unreachable = 0;
        for tuple in &tuples {
            match sim.try_query_flow(tuple) {
                Err(_) => unreachable += 1,
                Ok(QueryOutcome::Answer(_)) | Ok(QueryOutcome::Empty) => {}
            }
        }
        // Roughly a quarter of the keys live on the crashed collector.
        assert!(
            (20..=100).contains(&unreachable),
            "{primitive:?}: unreachable count {unreachable} out of band"
        );
    }
}

/// Blackhole: the NIC eats frames but the host answers queries, so
/// pre-fault telemetry stays readable the whole time.
#[test]
fn blackholed_collector_keeps_serving_old_telemetry() {
    for primitive in write_primitives() {
        let (sim, report) = run(
            primitive,
            vec![CollectorFault {
                index: CRASHED,
                after_frames: 300 * frames_per_flow(primitive),
                kind: FaultKind::Blackhole,
                recover_after: None,
            }],
            600,
        );
        assert!(
            !sim.liveness_mask().is_live(CRASHED),
            "blackhole undetected"
        );
        assert_eq!(report.error, 0, "{primitive:?}");
        // The host is reachable: nothing is unreachable, and frames died
        // with the blackhole reason.
        assert_eq!(report.unreachable, 0, "{primitive:?}");
        assert!(report.fault_drops[CRASHED as usize].blackholed > 0);
        assert!(report.drop_histograms[CRASHED as usize]
            .iter()
            .any(|&(r, n)| r == DropReason::Blackholed && n > 0));
    }
}

/// Degrade: a lossy last hop loses some telemetry but redundancy keeps
/// success high and answers correct.
#[test]
fn degraded_link_loses_frames_not_correctness() {
    for primitive in write_primitives() {
        let (_, report) = run(
            primitive,
            vec![CollectorFault {
                index: CRASHED,
                after_frames: 50 * frames_per_flow(primitive),
                kind: FaultKind::Degrade { loss: 0.5 },
                recover_after: None,
            }],
            800,
        );
        assert_eq!(report.error, 0, "{primitive:?}");
        assert!(report.fault_drops[CRASHED as usize].degraded > 0);
        assert!(
            report.success_rate() > success_floor(primitive, 0.8),
            "{primitive:?}: success {}",
            report.success_rate()
        );
    }
}

/// Crash, recover with wiped memory, keep running: the recovered
/// collector is re-detected as live and the run ends healthy.
#[test]
fn crash_recovery_cycle_ends_healthy() {
    for primitive in write_primitives() {
        let (sim, report) = run(
            primitive,
            vec![CollectorFault {
                index: CRASHED,
                after_frames: 150 * frames_per_flow(primitive),
                kind: FaultKind::Crash,
                recover_after: Some(200 * frames_per_flow(primitive)),
            }],
            1000,
        );
        assert!(
            sim.liveness_mask().is_live(CRASHED),
            "recovery went undetected"
        );
        assert_eq!(sim.cluster().health(CRASHED), CollectorHealth::Healthy);
        assert_eq!(report.error, 0, "{primitive:?}");
        assert!(
            report.success_rate() > success_floor(primitive, 0.7),
            "{primitive:?}: success {}",
            report.success_rate()
        );
    }
}

// ---------------------------------------------------------------------
// Direct switch+cluster scenarios: staleness semantics around a fault.
// ---------------------------------------------------------------------

const VALUE_LEN: usize = 20;

/// One switch egress wired to a 2-collector cluster.
fn switch_and_cluster() -> (DartEgress, CollectorCluster) {
    let config = DartConfig::builder()
        .slots(1024)
        .copies(2)
        .checksum(ChecksumWidth::B32)
        .value_len(VALUE_LEN)
        .collectors(2)
        .mapping(MappingKind::Crc)
        .build()
        .unwrap();
    let mut cluster = CollectorCluster::new(config).unwrap();
    let directory = cluster.directory_for_switch();
    let mut egress = DartEgress::new(
        SwitchIdentity::derived(1),
        EgressConfig {
            copies: 2,
            slots: 1024,
            layout: SlotLayout {
                checksum: ChecksumWidth::B32,
                value_len: VALUE_LEN,
            },
            collectors: 2,
            udp_src_port: 49152,
            primitive: direct_telemetry_access::core::PrimitiveSpec::KeyWrite,
        },
        7,
    )
    .unwrap();
    ControlPlane::new()
        .install_directory(&mut egress, &directory)
        .unwrap();
    (egress, cluster)
}

fn write(egress: &mut DartEgress, cluster: &mut CollectorCluster, key: &[u8], value: &[u8]) {
    for copy in 0..2 {
        let report = egress.craft_report_copy(key, value, copy).unwrap();
        cluster.deliver(&report.frame);
    }
}

/// Flip one collector's liveness everywhere the mask lives: the switch
/// registers and the query side (what the monitor's push does).
fn flip_liveness(egress: &mut DartEgress, cluster: &mut CollectorCluster, id: u32, live: bool) {
    egress.set_collector_liveness(id, live).unwrap();
    let mut mask = cluster.liveness_mask();
    mask.set_live(id, live);
    cluster.set_liveness_mask(mask);
}

/// Drain the switch's failover log and drive a full re-replication
/// sweep for `primary` to completion — the control-plane reaction to a
/// dead→alive flip, inlined for the direct rig.
fn run_sweep(
    egress: &mut DartEgress,
    cluster: &mut CollectorCluster,
    primary: u32,
    outage_mask: direct_telemetry_access::core::hash::LivenessMask,
    config: SweepConfig,
) {
    let records = egress.drain_failover_records(primary);
    cluster.schedule_rerepl(primary, outage_mask, records, &[], config, 0);
    let mut now = 0;
    while cluster.sweep_active(primary) {
        now += 1;
        assert!(now < 10_000, "sweep did not converge");
        for rec in cluster.rerepl_tick(now) {
            egress
                .set_ring_tail(rec.collector, rec.ring, rec.stored_seq)
                .unwrap();
        }
    }
}

/// The wiped-memory guarantee: after a crash restart, a key re-written
/// post-recovery answers with the new value and the pre-crash value is
/// never seen again.
#[test]
fn recovery_never_serves_stale_pre_crash_values() {
    let (mut egress, mut cluster) = switch_and_cluster();
    let key = b"stale-check-key";
    let primary = cluster.collector_of(key);

    let v1 = [0x11; VALUE_LEN];
    write(&mut egress, &mut cluster, key, &v1);
    assert_eq!(
        cluster.try_query(key),
        Ok(QueryOutcome::Answer(v1.to_vec()))
    );

    // Crash + detection.
    cluster.set_health(primary, CollectorHealth::Crashed);
    flip_liveness(&mut egress, &mut cluster, primary, false);
    let outage_mask = egress.liveness_mask();

    // Writes during the outage land at the failover target and answer.
    let v2 = [0x22; VALUE_LEN];
    write(&mut egress, &mut cluster, key, &v2);
    assert_eq!(
        cluster.try_query(key),
        Ok(QueryOutcome::Answer(v2.to_vec()))
    );

    // Recovery wipes the crashed host; the control plane revives it.
    cluster.recover(primary);
    flip_liveness(&mut egress, &mut cluster, primary, true);

    // The pre-crash value is gone with the wipe, and until the sweep
    // lands the outage-era value is stranded at the failover target
    // (shadowed by the live primary) — but *stale* data never surfaces.
    assert_eq!(cluster.try_query(key), Ok(QueryOutcome::Empty));

    // The re-replication sweep copies the outage-era value home.
    run_sweep(
        &mut egress,
        &mut cluster,
        primary,
        outage_mask,
        SweepConfig::default(),
    );
    assert_eq!(
        cluster.try_query(key),
        Ok(QueryOutcome::Answer(v2.to_vec()))
    );
    assert!(cluster.key_restored(key));

    // Re-written post-recovery: the fresh value, nothing older.
    let v3 = [0x33; VALUE_LEN];
    write(&mut egress, &mut cluster, key, &v3);
    assert_eq!(
        cluster.try_query(key),
        Ok(QueryOutcome::Answer(v3.to_vec()))
    );
}

/// The double-fault guarantee: a primary that crashes *again* mid-sweep
/// never loses the last surviving copy. Tombstoning is ACK-gated and
/// deferred to sweep completion, so an aborted sweep leaves every
/// failover copy intact and parks every record for the next recovery.
#[test]
fn double_fault_mid_sweep_never_loses_the_last_copy() {
    let (mut egress, mut cluster) = switch_and_cluster();

    // A handful of keys that all live on one primary, written only
    // while that primary is down.
    let primary = cluster.collector_of(b"df-key-0");
    let mut keys = Vec::new();
    let mut i = 0u32;
    while keys.len() < 6 {
        let key = format!("df-key-{i}").into_bytes();
        if cluster.collector_of(&key) == primary {
            keys.push(key);
        }
        i += 1;
    }

    cluster.set_health(primary, CollectorHealth::Crashed);
    flip_liveness(&mut egress, &mut cluster, primary, false);
    let outage_mask = egress.liveness_mask();
    let value = [0x5A; VALUE_LEN];
    for key in &keys {
        write(&mut egress, &mut cluster, key, &value);
        assert_eq!(
            cluster.try_query(key),
            Ok(QueryOutcome::Answer(value.to_vec()))
        );
    }

    // Recover; the sweep starts, one key per batch.
    cluster.recover(primary);
    flip_liveness(&mut egress, &mut cluster, primary, true);
    let records = egress.drain_failover_records(primary);
    assert_eq!(records.len(), keys.len());
    cluster.schedule_rerepl(
        primary,
        outage_mask,
        records,
        &[],
        SweepConfig {
            batch_size: 1,
            pacing: 1,
            ..SweepConfig::default()
        },
        0,
    );
    cluster.rerepl_tick(1);
    assert!(cluster.sweep_active(primary), "sweep finished too early");
    let mid = cluster.rerepl_stats();
    assert_eq!(mid.slots_copied, 2, "one key × two copies written back");
    assert_eq!(mid.slots_tombstoned, 0, "tombstoned before completion");

    // Second crash, mid-sweep: the sweep aborts and parks everything —
    // including the key it already wrote back, whose primary copies
    // just died with the host.
    cluster.set_health(primary, CollectorHealth::Crashed);
    flip_liveness(&mut egress, &mut cluster, primary, false);
    cluster.rerepl_tick(2);
    assert!(!cluster.sweep_active(primary), "aborted sweep still alive");
    assert_eq!(cluster.parked_records(primary), keys.len());

    // No value lost: every failover copy survived the aborted sweep.
    for key in &keys {
        assert_eq!(
            cluster.try_query(key),
            Ok(QueryOutcome::Answer(value.to_vec())),
            "double fault lost the last copy"
        );
    }

    // The next recovery replays the parked records to completion.
    cluster.recover(primary);
    flip_liveness(&mut egress, &mut cluster, primary, true);
    run_sweep(
        &mut egress,
        &mut cluster,
        primary,
        outage_mask,
        SweepConfig::default(),
    );
    for key in &keys {
        assert_eq!(
            cluster.try_query(key),
            Ok(QueryOutcome::Answer(value.to_vec()))
        );
        assert!(cluster.key_restored(key));
    }
    let stats = cluster.rerepl_stats();
    assert_eq!(stats.keys_restored, keys.len() as u64);
    assert_eq!(stats.slots_tombstoned, 2 * keys.len() as u64);
}

/// A degraded (lossy) last hop is not a reason to abort: the sweep
/// pushes through with its retry budget, and when that budget runs out
/// the record parks instead of vanishing. Every aborted write-back is
/// accounted for in the primary's drop-reason histogram.
#[test]
fn degraded_sweep_aborts_are_accounted_and_parked() {
    let (mut egress, mut cluster) = switch_and_cluster();
    let key = b"degraded-sweep-key";
    let primary = cluster.collector_of(key);

    cluster.set_health(primary, CollectorHealth::Crashed);
    flip_liveness(&mut egress, &mut cluster, primary, false);
    let outage_mask = egress.liveness_mask();
    let value = [0x77; VALUE_LEN];
    write(&mut egress, &mut cluster, key, &value);

    // Recover into a fully lossy last hop: every write-back drops.
    cluster.recover(primary);
    cluster.set_health(primary, CollectorHealth::Degraded { loss: 1.0 });
    flip_liveness(&mut egress, &mut cluster, primary, true);
    let records = egress.drain_failover_records(primary);
    cluster.schedule_rerepl(
        primary,
        outage_mask,
        records,
        &[],
        SweepConfig {
            batch_size: 4,
            pacing: 1,
            max_retries: 2,
            retry_backoff: 1,
        },
        0,
    );
    let mut now = 0;
    while cluster.sweep_active(primary) {
        now += 1;
        assert!(now < 1000, "exhausted sweep did not terminate");
        cluster.rerepl_tick(now);
    }

    let stats = cluster.rerepl_stats();
    // One aborted write-back per attempt: the first try plus each retry.
    assert_eq!(stats.writebacks_aborted, 3);
    assert_eq!(stats.keys_restored, 0);
    assert_eq!(
        stats.slots_tombstoned, 0,
        "no tombstone without an ACKed write-back"
    );
    // The record parked — the failover copy is shadowed but not lost.
    assert_eq!(cluster.parked_records(primary), 1);
    // The histogram at the primary accounts for every aborted frame.
    let degraded: u64 = cluster
        .drop_histogram(primary)
        .iter()
        .filter(|(r, _)| *r == DropReason::DegradedLink)
        .map(|&(_, n)| n)
        .sum();
    assert_eq!(degraded, stats.writebacks_aborted);
}

/// Freshness ordering while blackholed: the primary still holds (and
/// would serve) the old value, but the mask routes writes to the
/// failover target — so reads must prefer it too.
#[test]
fn failover_reads_shadow_stale_blackholed_primary() {
    let (mut egress, mut cluster) = switch_and_cluster();
    let key = b"freshness-key";
    let primary = cluster.collector_of(key);

    let v1 = [0xAA; VALUE_LEN];
    write(&mut egress, &mut cluster, key, &v1);

    // Blackhole: host up (still answers queries!) but NIC dead.
    cluster.set_health(primary, CollectorHealth::Blackholed);
    flip_liveness(&mut egress, &mut cluster, primary, false);

    let v2 = [0xBB; VALUE_LEN];
    write(&mut egress, &mut cluster, key, &v2);

    // Both locations are reachable; the failover target is fresher and
    // must win. Returning v1 here would be a stale read.
    assert_eq!(
        cluster.try_query(key),
        Ok(QueryOutcome::Answer(v2.to_vec()))
    );
}

// ---------------------------------------------------------------------
// Soak scenarios (slow; run with `cargo test --release -- --ignored`).
// ---------------------------------------------------------------------

/// Long crash/recover cycles under combined loss + reordering.
#[test]
#[ignore = "chaos soak: long-running, exercised by the chaos-soak CI job"]
fn soak_crash_cycles_under_lossy_reordering() {
    let mut sim = FatTreeSim::new(SimConfig {
        slots: 1 << 12,
        collectors: 4,
        fault: FaultModel::LossyReorder {
            loss: 0.05,
            prob: 0.2,
        },
        // Two crash/wipe cycles per collector, all inside the first 40%
        // of the run: the tail measures how collection recovers.
        faults: (0..8u64)
            .map(|i| CollectorFault {
                index: (i % 4) as u32,
                after_frames: 400 + i * 450,
                kind: FaultKind::Crash,
                recover_after: Some(400),
            })
            .collect(),
        seed: 0x50AC,
        ..SimConfig::default()
    })
    .unwrap();
    sim.run_flows(5000).unwrap();
    let report = sim.query_all(8);
    assert_eq!(report.error, 0, "soak produced wrong answers");
    // Every crash wipes that collector, so telemetry from before its
    // last restart is *supposed* to be gone (~40% of the run's keys);
    // everything written after the last recovery must survive.
    assert!(
        report.success_rate() > 0.5,
        "soak success {} collapsed",
        report.success_rate()
    );
    let last = *report.age_buckets.last().unwrap();
    assert!(
        last > 0.9,
        "post-recovery telemetry must be queryable, newest bucket {last}"
    );
    // Every collector took crash damage at some point.
    for id in 0..4 {
        assert!(report.fault_drops[id].crashed > 0, "collector {id} unhurt");
    }
    // All recovered by the end.
    for id in 0..4u32 {
        assert_eq!(sim.cluster().health(id), CollectorHealth::Healthy);
        assert!(sim.liveness_mask().is_live(id));
    }
}

/// Bursty (Gilbert-Elliott) loss with a mid-run blackhole.
#[test]
#[ignore = "chaos soak: long-running, exercised by the chaos-soak CI job"]
fn soak_bursty_loss_with_blackhole() {
    let mut sim = FatTreeSim::new(SimConfig {
        slots: 1 << 12,
        collectors: 4,
        fault: FaultModel::GilbertElliott {
            to_bad: 0.02,
            to_good: 0.3,
            loss_good: 0.01,
            loss_bad: 0.6,
        },
        faults: vec![CollectorFault {
            index: 2,
            after_frames: 2000,
            kind: FaultKind::Blackhole,
            recover_after: Some(1500),
        }],
        seed: 0xB0B5,
        ..SimConfig::default()
    })
    .unwrap();
    sim.run_flows(4000).unwrap();
    let report = sim.query_all(8);
    assert_eq!(report.error, 0);
    assert!(report.link.burst_drops > 0, "bursty loss never burst");
    assert!(report.fault_drops[2].blackholed > 0);
    assert!(
        report.success_rate() > 0.7,
        "soak success {}",
        report.success_rate()
    );
}
