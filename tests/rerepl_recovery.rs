//! The recovery re-replication acceptance matrix: crash a primary,
//! write a batch of keys while it is down (so they land at failover
//! targets), recover it, drive the control-plane sweep — and then every
//! outage-era key must answer with the exact written value, with **zero
//! empty returns and zero errors**, across all three translation
//! primitives and all four return policies.
//!
//! This is the paper's collection-availability story closed end to end:
//! the failover hash keeps telemetry flowing during the outage, and the
//! sweep moves that telemetry home afterwards so the recovered primary
//! is authoritative again instead of silently shadowing the stranded
//! copies.

use direct_telemetry_access::collector::{CollectorCluster, CollectorHealth, SweepConfig};
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::MappingKind;
use direct_telemetry_access::core::primitive::{increment_encode, PrimitiveSpec};
use direct_telemetry_access::core::query::{DecisionReason, QueryOutcome, ReturnPolicy};
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;

const VALUE_LEN: usize = 12;
const COLLECTORS: u32 = 3;
const CRASHED: u32 = 1;

const POLICIES: [ReturnPolicy; 4] = [
    ReturnPolicy::UniqueValue,
    ReturnPolicy::FirstMatch,
    ReturnPolicy::Plurality,
    ReturnPolicy::Consensus(2),
];

fn all_primitives() -> [PrimitiveSpec; 3] {
    [
        PrimitiveSpec::KeyWrite,
        PrimitiveSpec::Append { ring_capacity: 4 },
        PrimitiveSpec::KeyIncrement,
    ]
}

/// One switch egress wired to a 3-collector cluster under `primitive`.
fn rig(primitive: PrimitiveSpec) -> (DartEgress, CollectorCluster) {
    // Append gets a larger directory: rings have no copy fan-out and
    // shared rings would make per-key value assertions ambiguous.
    let slots = match primitive {
        PrimitiveSpec::Append { .. } => 1 << 12,
        _ => 1 << 10,
    };
    let config = DartConfig::builder()
        .slots(slots)
        .value_len(VALUE_LEN)
        .copies(2)
        .collectors(COLLECTORS)
        .mapping(MappingKind::Crc)
        .primitive(primitive)
        .build()
        .unwrap();
    let layout = config.layout;
    let copies = config.copies;
    let mut cluster = CollectorCluster::new(config).unwrap();
    let directory = cluster.directory_for_switch();
    let mut egress = DartEgress::new(
        SwitchIdentity::derived(1),
        EgressConfig {
            copies,
            slots,
            layout,
            collectors: COLLECTORS,
            udp_src_port: 49152,
            primitive,
        },
        7,
    )
    .unwrap();
    ControlPlane::new()
        .install_directory(&mut egress, &directory)
        .unwrap();
    (egress, cluster)
}

/// The value key `i` writes under each primitive, and the exact bytes
/// its query must return afterwards.
fn value_for(primitive: PrimitiveSpec, i: usize) -> Vec<u8> {
    match primitive {
        PrimitiveSpec::KeyIncrement => increment_encode(1 + i as u64).to_vec(),
        _ => vec![0x10 + i as u8; VALUE_LEN],
    }
}

/// Flip one collector's liveness everywhere the mask lives.
fn flip_liveness(egress: &mut DartEgress, cluster: &mut CollectorCluster, id: u32, live: bool) {
    egress.set_collector_liveness(id, live).unwrap();
    let mut mask = cluster.liveness_mask();
    mask.set_live(id, live);
    cluster.set_liveness_mask(mask);
}

/// Outage keys: enough distinct keys that at least eight of them are
/// owned by the collector this suite crashes (the rest exercise the
/// healthy write path alongside).
fn outage_keys(cluster: &CollectorCluster) -> (Vec<Vec<u8>>, usize) {
    let mut keys = Vec::new();
    let mut owned = 0usize;
    let mut i = 0u32;
    while keys.len() < 16 || owned < 8 {
        let key = format!("outage-key-{i}").into_bytes();
        if cluster.collector_of(&key) == CRASHED {
            owned += 1;
        }
        keys.push(key);
        i += 1;
    }
    (keys, owned)
}

#[test]
fn swept_outage_keys_answer_under_every_primitive_and_policy() {
    for primitive in all_primitives() {
        let (mut egress, mut cluster) = rig(primitive);
        let (keys, owned) = outage_keys(&cluster);
        assert!(owned >= 8, "{primitive:?}: rig lost its crash coverage");

        // Crash + detection, then the whole batch lands mid-outage.
        cluster.set_health(CRASHED, CollectorHealth::Crashed);
        flip_liveness(&mut egress, &mut cluster, CRASHED, false);
        let outage_mask = egress.liveness_mask();
        for (i, key) in keys.iter().enumerate() {
            let value = value_for(primitive, i);
            for report in egress.craft(key, &value).unwrap() {
                cluster.deliver(&report.frame);
            }
        }

        // Recover (wiped memory) and run the re-replication sweep the
        // control plane schedules on the dead→alive flip.
        cluster.recover(CRASHED);
        flip_liveness(&mut egress, &mut cluster, CRASHED, true);
        let records = egress.drain_failover_records(CRASHED);
        assert_eq!(records.len(), owned, "{primitive:?}: failover log short");
        let mut tails: Vec<(u64, u32)> = Vec::new();
        if matches!(primitive, PrimitiveSpec::Append { .. }) {
            for ring in 0..primitive.rings(1 << 12) {
                if let Some(tail) = egress.ring_tail(CRASHED, ring) {
                    if tail != 0 {
                        tails.push((ring, tail));
                    }
                }
            }
        }
        cluster.schedule_rerepl(
            CRASHED,
            outage_mask,
            records,
            &tails,
            SweepConfig::default(),
            0,
        );
        let mut now = 0u64;
        while cluster.sweep_active(CRASHED) {
            now += 1;
            assert!(now < 10_000, "{primitive:?}: sweep did not converge");
            for rec in cluster.rerepl_tick(now) {
                egress
                    .set_ring_tail(rec.collector, rec.ring, rec.stored_seq)
                    .unwrap();
            }
        }
        let stats = cluster.rerepl_stats();
        assert_eq!(
            stats.keys_restored, owned as u64,
            "{primitive:?}: sweep restored the wrong key count"
        );
        assert_eq!(stats.keys_abandoned, 0, "{primitive:?}: keys abandoned");

        // The acceptance bar: zero empty returns, zero errors, exact
        // values — every outage key, every policy.
        for (i, key) in keys.iter().enumerate() {
            let expected = value_for(primitive, i);
            for policy in POLICIES {
                match cluster.explain(key, policy).outcome {
                    Ok(QueryOutcome::Answer(bytes)) => assert_eq!(
                        bytes, expected,
                        "{primitive:?}/{policy:?}: wrong value after sweep"
                    ),
                    Ok(QueryOutcome::Empty) => panic!(
                        "{primitive:?}/{policy:?}: outage key {} read empty after sweep",
                        String::from_utf8_lossy(key)
                    ),
                    Err(err) => panic!(
                        "{primitive:?}/{policy:?}: outage key {} errored after sweep: {err:?}",
                        String::from_utf8_lossy(key)
                    ),
                }
            }
            // Keys the sweep carried home narrate their provenance.
            if cluster.collector_of(key) == CRASHED {
                assert!(cluster.key_restored(key), "{primitive:?}: not restored");
                let explain = cluster.explain(key, ReturnPolicy::FirstMatch);
                let store = explain
                    .candidates
                    .iter()
                    .find(|c| Some(c.collector) == explain.answered_by)
                    .and_then(|c| c.explain.as_ref())
                    .expect("restored key must have an answering store");
                assert!(
                    matches!(store.reason, DecisionReason::RereplicatedCopy { .. }),
                    "{primitive:?}: restored key answered without the \
                     rereplicated_copy narration: {:?}",
                    store.reason
                );
            }
        }
    }
}
