//! Property test for the explain contract: a query and its explain
//! trace can never disagree — on the answer, or on the reason given for
//! it — no matter what store the fabric built.
//!
//! The cluster has one query implementation, generic over its trace:
//! `try_query` runs it with a no-op trace, `explain` and `query_explain`
//! with a recording one, so this test is the tripwire that keeps the
//! trace-free path from drifting: random report streams through the
//! real egress → lossy link → NIC pipeline, random collector faults,
//! every return policy, all three translation primitives — and for
//! every key the default-policy entry points must return exactly what
//! `explain` returns while the narrated [`DecisionReason`] stays
//! coherent with the outcome.

use direct_telemetry_access::collector::{CollectorCluster, CollectorHealth, SweepConfig};
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::MappingKind;
use direct_telemetry_access::core::primitive::{increment_encode, PrimitiveSpec};
use direct_telemetry_access::core::query::{DecisionReason, QueryOutcome, ReturnPolicy};
use direct_telemetry_access::core::store::StoreExplain;
use direct_telemetry_access::rdma::link::{link, FaultModel};
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Small store so random keys collide hard and every decision reason
/// (conflicts, ties, below-consensus) actually gets exercised.
const SLOTS: u64 = 64;
/// Distinct keys the generated operations draw from.
const KEYS: usize = 6;
const COLLECTORS: u32 = 2;

/// Every policy the decision layer implements.
const POLICIES: [ReturnPolicy; 4] = [
    ReturnPolicy::UniqueValue,
    ReturnPolicy::FirstMatch,
    ReturnPolicy::Plurality,
    ReturnPolicy::Consensus(2),
];

fn primitive_from(index: usize) -> PrimitiveSpec {
    [
        PrimitiveSpec::KeyWrite,
        PrimitiveSpec::Append { ring_capacity: 4 },
        PrimitiveSpec::KeyIncrement,
    ][index]
}

fn key_bytes(index: usize) -> Vec<u8> {
    format!("prop-key-{index}").into_bytes()
}

/// One switch egress + cluster pair under `primitive`, wired through the
/// control plane like the sim does, plus the cluster's default policy.
fn rig(primitive: PrimitiveSpec) -> (DartEgress, CollectorCluster, ReturnPolicy) {
    let config = DartConfig::builder()
        .slots(SLOTS)
        .value_len(12)
        .copies(2)
        .collectors(COLLECTORS)
        .mapping(MappingKind::Crc)
        .primitive(primitive)
        .build()
        .unwrap();
    let layout = config.layout;
    let copies = config.copies;
    let policy = config.policy;
    let mut cluster = CollectorCluster::new(config).unwrap();
    let directory = cluster.directory_for_switch();
    let mut egress = DartEgress::new(
        SwitchIdentity::derived(1),
        EgressConfig {
            copies,
            slots: SLOTS,
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
    (egress, cluster, policy)
}

/// The report value byte `b` turns into under each primitive:
/// fixed-width slot/ring values for the WRITE primitives, an 8-byte
/// big-endian delta for Key-Increment.
fn value_for(primitive: PrimitiveSpec, value_len: usize, b: u8) -> Vec<u8> {
    match primitive {
        PrimitiveSpec::KeyIncrement => increment_encode(1 + u64::from(b)).to_vec(),
        _ => vec![b; value_len],
    }
}

/// The reason must describe the outcome it rode in with: `Answered`
/// narrates exactly the answers, every abstention reason narrates
/// exactly the empties — and each abstention variant may only come from
/// the policies that can produce it. The vote threshold is a Key-Write
/// notion: Append windows and Key-Increment minima answer by their own
/// semantics and report their evidence count as `votes`.
fn assert_store_coherent(
    primitive: PrimitiveSpec,
    store: &StoreExplain,
) -> Result<(), TestCaseError> {
    match &store.reason {
        DecisionReason::Answered { votes } => {
            prop_assert!(
                matches!(store.outcome, QueryOutcome::Answer(_)),
                "answered reason with outcome {:?}",
                store.outcome
            );
            prop_assert!(*votes > 0, "an answer needs evidence");
            if let (PrimitiveSpec::KeyWrite, ReturnPolicy::Consensus(needed)) =
                (primitive, store.policy)
            {
                prop_assert!(*votes >= needed, "consensus answered below threshold");
            }
        }
        DecisionReason::RereplicatedCopy { votes } => {
            // A restored primary answers like any other store — the
            // reason only narrates that the copies survived an outage
            // via the sweep, so it inherits every `Answered` invariant.
            prop_assert!(
                matches!(store.outcome, QueryOutcome::Answer(_)),
                "rereplicated_copy reason with outcome {:?}",
                store.outcome
            );
            prop_assert!(*votes > 0, "a restored answer needs evidence");
            if let (PrimitiveSpec::KeyWrite, ReturnPolicy::Consensus(needed)) =
                (primitive, store.policy)
            {
                prop_assert!(*votes >= needed, "consensus answered below threshold");
            }
        }
        DecisionReason::NoSlotMatched => {
            prop_assert_eq!(&store.outcome, &QueryOutcome::Empty);
            prop_assert_eq!(store.matched(), 0, "no_slot_matched with matches");
        }
        DecisionReason::ConflictingValues => {
            prop_assert_eq!(&store.outcome, &QueryOutcome::Empty);
            prop_assert_eq!(store.policy, ReturnPolicy::UniqueValue);
        }
        DecisionReason::PluralityTie => {
            prop_assert_eq!(&store.outcome, &QueryOutcome::Empty);
            // Consensus also abstains with a tie when no strict winner
            // exists to count votes for.
            prop_assert!(
                matches!(
                    store.policy,
                    ReturnPolicy::Plurality | ReturnPolicy::Consensus(_)
                ),
                "plurality_tie from {:?}",
                store.policy
            );
        }
        DecisionReason::BelowConsensus { needed, got } => {
            prop_assert_eq!(&store.outcome, &QueryOutcome::Empty);
            prop_assert!(matches!(store.policy, ReturnPolicy::Consensus(n) if n == *needed));
            prop_assert!(got < needed, "below_consensus with enough votes");
        }
    }
    Ok(())
}

/// The whole explain contract, checked for every key: the
/// default-policy wrappers return exactly what `explain` returns under
/// `default_policy`, and under every policy attribution is in step
/// with the answer and every consulted store narrates a coherent
/// reason.
/// Runs repeatedly — after ingest, mid-outage, and at every sweep batch
/// boundary — so no phase of the failover lifecycle escapes it.
fn assert_paths_agree(
    primitive: PrimitiveSpec,
    cluster: &CollectorCluster,
    default_policy: ReturnPolicy,
) -> Result<(), TestCaseError> {
    for key_index in 0..KEYS {
        let key = key_bytes(key_index);
        // The contract: the wrappers are `explain` under the default
        // policy, outcome and trace alike.
        let explain = cluster.explain(&key, default_policy);
        prop_assert_eq!(
            &cluster.try_query(&key),
            &explain.outcome,
            "try_query diverged from explain under {:?}",
            primitive
        );
        prop_assert_eq!(
            &cluster.query_explain(&key),
            &explain,
            "query_explain diverged from explain under {:?}",
            primitive
        );
        for policy in POLICIES {
            let explain = cluster.explain(&key, policy);

            // `answered_by` names a collector exactly when there is
            // an answer to attribute.
            prop_assert_eq!(
                explain.answered_by.is_some(),
                matches!(explain.outcome, Ok(QueryOutcome::Answer(_))),
                "answered_by out of step with the outcome"
            );

            // Every consulted store narrated a reason coherent with
            // its own outcome and the policy in force; unreachable
            // candidates carry no trace at all.
            for candidate in &explain.candidates {
                prop_assert_eq!(
                    candidate.explain.is_some(),
                    candidate.reachable,
                    "probe trace shape broken"
                );
                if let Some(store) = &candidate.explain {
                    prop_assert_eq!(store.policy, policy);
                    // The restored-copy narration may only appear on
                    // keys a completed sweep actually restored.
                    if matches!(store.reason, DecisionReason::RereplicatedCopy { .. }) {
                        prop_assert!(
                            cluster.key_restored(&key),
                            "rereplicated_copy narrated for an unswept key"
                        );
                    }
                    assert_store_coherent(primitive, store)?;
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn query_and_explain_never_disagree(
        primitive_index in 0usize..3,
        ops in collection::vec((0usize..KEYS, any::<u8>()), 1..32),
        loss_pct in 0u32..=40,
        link_seed in any::<u64>(),
        // 0 = all healthy, 1 = one collector crashed, 2 = blackholed.
        fault_kind in 0u8..3,
        fault_index in 0u32..COLLECTORS,
        // Recovery phase: the ops written while the primary is down and
        // the sweep batch size — small and random, so the batch
        // boundaries the contract is re-checked at move around.
        outage_ops in collection::vec((0usize..KEYS, any::<u8>()), 1..16),
        sweep_batch in 1usize..4,
    ) {
        let primitive = primitive_from(primitive_index);
        let (mut egress, mut cluster, default_policy) = rig(primitive);
        let value_len = egress.config().layout.value_len;

        // Random reports through the real pipeline, under random loss.
        let model = if loss_pct == 0 {
            FaultModel::Perfect
        } else {
            FaultModel::Bernoulli { loss: f64::from(loss_pct) / 100.0 }
        };
        let (mut tx, rx) = link(model, link_seed);
        for (key_index, byte) in &ops {
            let key = key_bytes(*key_index);
            let value = value_for(primitive, value_len, *byte);
            for report in egress.craft(&key, &value).unwrap() {
                tx.send(report.frame);
            }
        }
        tx.flush();
        for frame in rx.drain() {
            cluster.deliver(&frame);
        }

        // Optionally knock a collector out *after* ingest, so queries
        // also exercise the unreachable / failover arms of explain.
        match fault_kind {
            1 => cluster.set_health(fault_index, CollectorHealth::Crashed),
            2 => cluster.set_health(fault_index, CollectorHealth::Blackholed),
            _ => {}
        }

        assert_paths_agree(primitive, &cluster, default_policy)?;

        // ── Recovery phase: crash a primary, keep writing through the
        // failover path, recover it, then drive the re-replication
        // sweep to completion — re-checking the whole explain contract
        // mid-outage and at every sweep batch boundary, including the
        // new `RereplicatedCopy` narration on restored keys. ──
        let victim = fault_index;
        cluster.set_health(victim, CollectorHealth::Crashed);
        egress.set_collector_liveness(victim, false).unwrap();
        let outage_mask = egress.liveness_mask();
        cluster.set_liveness_mask(outage_mask);

        let (mut tx, rx) = link(model, link_seed.wrapping_add(1));
        for (key_index, byte) in &outage_ops {
            let key = key_bytes(*key_index);
            let value = value_for(primitive, value_len, *byte);
            for report in egress.craft(&key, &value).unwrap() {
                tx.send(report.frame);
            }
        }
        tx.flush();
        for frame in rx.drain() {
            cluster.deliver(&frame);
        }
        assert_paths_agree(primitive, &cluster, default_policy)?;

        cluster.recover(victim);
        egress.set_collector_liveness(victim, true).unwrap();
        cluster.set_liveness_mask(egress.liveness_mask());
        let records = egress.drain_failover_records(victim);
        let mut tails: Vec<(u64, u32)> = Vec::new();
        if matches!(primitive, PrimitiveSpec::Append { .. }) {
            for ring in 0..primitive.rings(SLOTS) {
                if let Some(tail) = egress.ring_tail(victim, ring) {
                    if tail != 0 {
                        tails.push((ring, tail));
                    }
                }
            }
        }
        cluster.schedule_rerepl(
            victim,
            outage_mask,
            records,
            &tails,
            SweepConfig {
                batch_size: sweep_batch,
                pacing: 1,
                ..SweepConfig::default()
            },
            0,
        );
        let mut now = 0u64;
        while cluster.sweep_active(victim) {
            now += 1;
            prop_assert!(now < 10_000, "sweep failed to converge");
            for rec in cluster.rerepl_tick(now) {
                egress
                    .set_ring_tail(rec.collector, rec.ring, rec.stored_seq)
                    .unwrap();
            }
            // The two paths may never disagree, even between batches of
            // a half-finished sweep.
            assert_paths_agree(primitive, &cluster, default_policy)?;
        }
        assert_paths_agree(primitive, &cluster, default_policy)?;
    }
}
