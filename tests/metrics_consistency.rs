//! Cross-layer metric identities: the observability registry, the NIC's
//! own counters, the event ring, and the `SimReport` tallies must all
//! tell the same story — and query-explain must classify forced empty
//! returns and forced return errors exactly as §4 predicts, while
//! emitting exactly the events and counts of the untraced query.

use direct_telemetry_access::collector::{
    CollectorCluster, CollectorHealth, QueryRouting, SweepConfig,
};
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::{AddressMapping, CrcMapping, MappingKind};
use direct_telemetry_access::core::query::{classify, QueryClass, QueryOutcome, ReturnPolicy};
use direct_telemetry_access::core::PrimitiveSpec;
use direct_telemetry_access::obs::{EventKind, Obs};
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;
use direct_telemetry_access::topology::sim::{FatTreeSim, SimConfig};
use direct_telemetry_access::wire::{ethernet, ipv4};

/// The three translation primitives every sim-level identity is checked
/// under. One shared code path (egress → link → NIC → store) means one
/// shared metric story.
fn primitives() -> [PrimitiveSpec; 3] {
    [
        PrimitiveSpec::KeyWrite,
        PrimitiveSpec::Append { ring_capacity: 4 },
        PrimitiveSpec::KeyIncrement,
    ]
}

/// An overloaded small-store sim (256 slots, 512 flows) with the ring
/// attached, for the cross-layer counter identities.
fn overloaded_sim(primitive: PrimitiveSpec, obs: Obs) -> FatTreeSim {
    let mut sim = FatTreeSim::new_with_obs(
        SimConfig {
            primitive,
            slots: 256,
            seed: 0xC0,
            ..SimConfig::default()
        },
        obs,
    )
    .unwrap();
    sim.run_flows(512).unwrap();
    sim
}

/// The WRITE-path identity, shared by Key-Write and Append (an Append
/// commit *is* an RDMA WRITE, tagged by the region's commit kind): the
/// registry's fresh/overwritten split, the NIC's own counters, and the
/// event ring must all agree on the same write total.
fn assert_write_identities(sim: &FatTreeSim, obs: &Obs) {
    let registry = obs.registry();
    let fresh = registry
        .counter_value("dta_nic_writes_fresh_total")
        .unwrap();
    let overwritten = registry
        .counter_value("dta_nic_writes_overwritten_total")
        .unwrap();
    assert!(overwritten > 0, "overload must force overwrites");

    // Identity: the per-stage registry counters sum to the NIC total…
    let nic_writes = sim.cluster().total_writes();
    assert_eq!(fresh + overwritten, nic_writes);

    // …agree with the NIC's own fresh/overwrite split…
    let counters = sim.cluster().collector(0).unwrap().nic_counters();
    assert_eq!(counters.writes_fresh, fresh);
    assert_eq!(counters.writes_overwritten, overwritten);
    assert_eq!(counters.writes, nic_writes);

    // …and with the event ring, event by event.
    let writes = obs.ring().events_named("slot_write");
    assert_eq!(writes.len() as u64, nic_writes);
    let fresh_events = writes
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SlotWrite { fresh: true, .. }))
        .count();
    assert_eq!(fresh_events as u64, fresh);
}

#[test]
fn write_counters_agree_across_layers() {
    let obs = Obs::with_capacity(1 << 16);
    let sim = overloaded_sim(PrimitiveSpec::KeyWrite, obs.clone());
    assert_write_identities(&sim, &obs);
    // A pure Key-Write run commits nothing through the other kinds.
    assert_eq!(sim.cluster().total_appends(), 0);
    assert_eq!(sim.cluster().total_atomics(), 0);
}

#[test]
fn append_counters_agree_across_layers() {
    let obs = Obs::with_capacity(1 << 16);
    let sim = overloaded_sim(PrimitiveSpec::Append { ring_capacity: 4 }, obs.clone());
    assert_write_identities(&sim, &obs);
    // Every ring commit is an append — counted as a subset of writes —
    // and none of them is an atomic.
    assert_eq!(sim.cluster().total_appends(), sim.cluster().total_writes());
    assert_eq!(sim.cluster().total_atomics(), 0);
}

#[test]
fn increment_counters_agree_across_layers() {
    let obs = Obs::with_capacity(1 << 16);
    let sim = overloaded_sim(PrimitiveSpec::KeyIncrement, obs.clone());

    // Key-Increment commits through FETCH_ADD only: no WRITEs anywhere.
    assert_eq!(sim.cluster().total_writes(), 0);
    assert_eq!(sim.cluster().total_appends(), 0);
    assert!(obs.ring().events_named("slot_write").is_empty());

    // The atomic identity: registry counter == NIC fetch-add total ==
    // counter-commit events, one per executed FETCH_ADD.
    let atomics = sim.cluster().total_atomics();
    assert!(atomics > 0, "the run must commit increments");
    let registry = obs.registry();
    assert_eq!(
        registry.counter_value("dta_nic_atomics_total"),
        Some(atomics)
    );
    let commits = obs.ring().events_named("counter_commit");
    assert_eq!(commits.len() as u64, atomics);
    assert!(
        commits
            .iter()
            .any(|e| matches!(e.kind, EventKind::CounterCommit { original, .. } if original > 0)),
        "an overloaded counter store must see non-first increments"
    );
}

#[test]
fn query_outcome_counters_sum_to_total() {
    for primitive in primitives() {
        let obs = Obs::new();
        let mut sim = FatTreeSim::new_with_obs(
            SimConfig {
                primitive,
                slots: 256,
                collectors: 2,
                seed: 0xC1,
                ..SimConfig::default()
            },
            obs.clone(),
        )
        .unwrap();
        sim.run_flows(400).unwrap();
        let report = sim.query_all(4);
        assert_eq!(
            report.correct + report.empty + report.error + report.unreachable,
            report.total()
        );
        // The registry's four outcome counters partition the same total.
        let registry = obs.registry();
        let folded: u64 = ["correct", "empty", "error", "unreachable"]
            .iter()
            .map(|k| {
                registry
                    .counter_value(&format!("dta_sim_queries_{k}_total"))
                    .unwrap()
            })
            .sum();
        assert_eq!(folded, report.total(), "partition broken for {primitive:?}");
    }
}

fn single_collector_config() -> DartConfig {
    DartConfig::builder()
        .slots(1024)
        .copies(2)
        .collectors(1)
        .mapping(MappingKind::Crc)
        .policy(ReturnPolicy::FirstMatch)
        .build()
        .unwrap()
}

/// An RDMA WRITE landing `value` in `key`'s slot for `copy`, stamped
/// with an explicit stored checksum (so tests can corrupt it).
fn frame_with_checksum(
    cluster: &CollectorCluster,
    key: &[u8],
    value: &[u8],
    copy: u8,
    psn: u32,
    checksum: u32,
) -> Vec<u8> {
    let mapping = CrcMapping::new();
    let cfg = single_collector_config();
    let slot = mapping.slot(key, copy, cfg.slots);
    let layout = cfg.layout;
    let mut payload = vec![0u8; layout.slot_len()];
    layout.encode(checksum, value, &mut payload).unwrap();
    let ep = cluster.collector(0).unwrap().endpoint();
    direct_telemetry_access::rdma::nic::build_roce_frame(
        ethernet::Address([0x02, 0, 0, 0, 0, 9]),
        ep.mac,
        ipv4::Address([10, 0, 0, 9]),
        ep.ip,
        49152,
        &direct_telemetry_access::wire::roce::RoceRepr::Write {
            bth: direct_telemetry_access::wire::roce::BthRepr {
                opcode: direct_telemetry_access::wire::roce::Opcode::UcRdmaWriteOnly,
                solicited: false,
                migration: true,
                pad_count: 0,
                partition_key: 0xFFFF,
                dest_qp: ep.qpn,
                ack_request: false,
                psn,
            },
            reth: direct_telemetry_access::wire::roce::RethRepr {
                virtual_addr: ep.base_va + slot * layout.slot_len() as u64,
                rkey: ep.rkey,
                dma_len: layout.slot_len() as u32,
            },
            payload,
        },
    )
}

#[test]
fn explain_classifies_forced_empty_and_return_error() {
    let mut cluster = CollectorCluster::new(single_collector_config()).unwrap();
    let mapping = CrcMapping::new();
    let mut psn = 0u32;
    let mut deliver = |cluster: &mut CollectorCluster, key: &[u8], value: &[u8], sum: u32| {
        for copy in 0..2 {
            let frame = frame_with_checksum(cluster, key, value, copy, psn, sum);
            cluster.deliver(&frame);
            psn += 1;
        }
    };

    // Forced return error (§4's collision overwrite): the key's truth is
    // written, then every copy is overwritten by a colliding report that
    // kept the same stored checksum but carries another value.
    let key = b"victim-key";
    let truth = vec![0xAA; 20];
    let lie = vec![0xBB; 20];
    let sum = mapping.key_checksum(key);
    deliver(&mut cluster, key, &truth, sum);
    deliver(&mut cluster, key, &lie, sum);
    let explain = cluster.query_explain(key);
    let outcome = explain.outcome.clone().unwrap();
    assert_eq!(outcome, QueryOutcome::Answer(lie));
    assert_eq!(classify(&outcome, &truth), QueryClass::ReturnError);
    let store = explain.candidates[0].explain.as_ref().unwrap();
    assert!(
        store
            .probes
            .iter()
            .all(|p| p.occupied && p.checksum_matched),
        "a collision overwrite leaves every checksum matching: {store:?}"
    );
    assert_eq!(store.reason.name(), "answered");

    // Forced empty return: reports arrive but with a corrupted stored
    // checksum, so no probed slot matches the key.
    let key = b"mismatch-key";
    let sum = mapping.key_checksum(key) ^ 0xFFFF_FFFF;
    deliver(&mut cluster, key, &[0xCC; 20], sum);
    let explain = cluster.query_explain(key);
    assert_eq!(explain.outcome, Ok(QueryOutcome::Empty));
    assert_eq!(explain.answered_by, None);
    let store = explain.candidates[0].explain.as_ref().unwrap();
    assert!(
        store
            .probes
            .iter()
            .all(|p| p.occupied && !p.checksum_matched),
        "corrupted checksums must be probed-but-unmatched: {store:?}"
    );
    assert_eq!(store.reason.name(), "no_slot_matched");
}

#[test]
fn explain_outcomes_tally_with_plain_queries() {
    // Overload one collector, then classify every key twice — through
    // the plain query and through explain — and require identical
    // outcome tallies (correct + empty + error == keys).
    let mut cluster = CollectorCluster::new(single_collector_config()).unwrap();
    let mapping = CrcMapping::new();
    let mut psn = 0u32;
    let keys: Vec<(Vec<u8>, Vec<u8>)> = (0..256u64)
        .map(|i| {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes().to_vec();
            let mut value = vec![0u8; 20];
            value[..8].copy_from_slice(&i.to_be_bytes());
            (key, value)
        })
        .collect();
    for (key, value) in &keys {
        let sum = mapping.key_checksum(key);
        for copy in 0..2 {
            let frame = frame_with_checksum(&cluster, key, value, copy, psn, sum);
            cluster.deliver(&frame);
            psn += 1;
        }
    }

    let mut plain_tally = [0u64; 3];
    let mut explain_tally = [0u64; 3];
    let index = |class: QueryClass| match class {
        QueryClass::Correct => 0,
        QueryClass::EmptyReturn => 1,
        QueryClass::ReturnError => 2,
    };
    for (key, truth) in &keys {
        let plain = cluster.try_query(key).unwrap();
        let explain = cluster.explain(key, ReturnPolicy::FirstMatch);
        assert_eq!(Ok(plain.clone()), explain.outcome, "paths diverged");
        plain_tally[index(classify(&plain, truth))] += 1;
        explain_tally[index(classify(&explain.outcome.unwrap(), truth))] += 1;
    }
    assert_eq!(plain_tally, explain_tally);
    assert_eq!(plain_tally.iter().sum::<u64>(), keys.len() as u64);
}

/// The cluster's query counters, answered / empty / unreachable.
fn query_counters(obs: &Obs) -> [u64; 3] {
    ["answered", "empty", "unreachable"].map(|k| {
        obs.registry()
            .counter_value(&format!("dta_cluster_queries_{k}_total"))
            .unwrap()
    })
}

/// What one query left behind in an enabled `Obs`: its lifecycle events
/// (probes and decisions, reason names included) and its query-counter
/// deltas.
fn observed<T>(obs: &Obs, query: impl FnOnce() -> T) -> (T, Vec<EventKind>, [u64; 3]) {
    obs.ring().clear();
    let before = query_counters(obs);
    let out = query();
    let after = query_counters(obs);
    let events = obs.ring().snapshot().into_iter().map(|e| e.kind).collect();
    (out, events, [0, 1, 2].map(|i| after[i] - before[i]))
}

#[test]
fn untraced_queries_emit_what_explain_emits() {
    const COLLECTORS: u32 = 3;
    const VICTIM: u32 = 0;
    let config = DartConfig::builder()
        .slots(1024)
        .copies(2)
        .value_len(12)
        .collectors(COLLECTORS)
        .mapping(MappingKind::Crc)
        .build()
        .unwrap();
    let policy = config.policy;
    let layout = config.layout;
    let obs = Obs::with_capacity(1 << 12);
    let mut cluster = CollectorCluster::new(config).unwrap();
    cluster.attach_obs(&obs);
    let mut egress = DartEgress::new(
        SwitchIdentity::derived(1),
        EgressConfig {
            copies: 2,
            slots: 1024,
            layout,
            collectors: COLLECTORS,
            udp_src_port: 49152,
            primitive: PrimitiveSpec::KeyWrite,
        },
        7,
    )
    .unwrap();
    let directory = cluster.directory_for_switch();
    ControlPlane::new()
        .install_directory(&mut egress, &directory)
        .unwrap();
    let keys: Vec<Vec<u8>> = (0..48)
        .map(|i| format!("obs-key-{i}").into_bytes())
        .collect();
    let write_all = |egress: &mut DartEgress, cluster: &mut CollectorCluster, byte: u8| {
        for key in &keys {
            for report in egress.craft(key, &[byte; 12]).unwrap() {
                cluster.deliver(&report.frame);
            }
        }
    };

    // Which arms of the query path the phases below reached.
    let (mut primary, mut failover, mut unreachable, mut restored) = (0, 0, 0, 0);
    let mut check_all = |cluster: &CollectorCluster| {
        for key in &keys {
            let (plain, plain_events, plain_counts) = observed(&obs, || cluster.try_query(key));
            let (explain, explain_events, explain_counts) =
                observed(&obs, || cluster.explain(key, policy));
            assert_eq!(plain, explain.outcome, "outcomes diverged");
            assert_eq!(plain_events, explain_events, "events diverged");
            assert_eq!(plain_counts, explain_counts, "counter deltas diverged");
            assert_eq!(plain_counts.iter().sum::<u64>(), 1);
            match (explain.routing, explain.answered_by, &explain.outcome) {
                (QueryRouting::Primary(_), Some(_), _) => primary += 1,
                (QueryRouting::Failover { target, .. }, Some(by), _) if by == target => {
                    failover += 1
                }
                (_, _, Err(_)) => unreachable += 1,
                _ => {}
            }
            restored += plain_events
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        EventKind::QueryDecision {
                            reason: "rereplicated_copy",
                            ..
                        }
                    )
                })
                .count();
        }
    };

    // Healthy: every key reads from its primary.
    write_all(&mut egress, &mut cluster, 1);
    check_all(&cluster);

    // The victim is down but not yet marked dead: its keys are
    // unreachable.
    cluster.set_health(VICTIM, CollectorHealth::Crashed);
    check_all(&cluster);

    // Marked dead: new writes fail over, and reads follow them.
    egress.set_collector_liveness(VICTIM, false).unwrap();
    let outage_mask = egress.liveness_mask();
    cluster.set_liveness_mask(outage_mask);
    write_all(&mut egress, &mut cluster, 2);
    check_all(&cluster);

    // Recovered and swept: restored keys answer as re-replicated copies.
    cluster.recover(VICTIM);
    egress.set_collector_liveness(VICTIM, true).unwrap();
    cluster.set_liveness_mask(egress.liveness_mask());
    let records = egress.drain_failover_records(VICTIM);
    cluster.schedule_rerepl(VICTIM, outage_mask, records, &[], SweepConfig::default(), 0);
    let mut now = 0;
    while cluster.sweep_active(VICTIM) {
        now += 1;
        assert!(now < 10_000, "sweep failed to converge");
        cluster.rerepl_tick(now);
    }
    check_all(&cluster);

    assert!(primary > 0, "no primary read");
    assert!(failover > 0, "no failover read");
    assert!(unreachable > 0, "no unreachable query");
    assert!(restored > 0, "no rereplicated_copy decision");
}
