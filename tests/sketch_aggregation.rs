//! §7 sketch aggregation end to end: many switches FETCH_ADD into one
//! Count-Min sketch in collector memory; the operator reads network-wide
//! frequency estimates with zero switch-side counter state.
//!
//! The sketch is a Key-Increment cluster: each key's `N` hashed counter
//! words in its collector's one shared table are the sketch's `d = N`
//! rows, every update is `N` RC FETCH_ADDs crafted by the switch egress,
//! and a query answers the minimum over the words.

use direct_telemetry_access::collector::CollectorCluster;
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::MappingKind;
use direct_telemetry_access::core::primitive::{increment_decode, increment_encode};
use direct_telemetry_access::core::query::{DecisionReason, QueryOutcome};
use direct_telemetry_access::core::PrimitiveSpec;
use direct_telemetry_access::rdma::nic::RxAction;
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;

/// Counter words per collector (the width of the shared table).
const SLOTS: u64 = 1024;
/// Hashed copies per key: the sketch depth.
const COPIES: u8 = 4;
const COLLECTORS: u32 = 2;
const SWITCHES: u32 = 3;

#[test]
fn network_wide_aggregation_with_zero_switch_state() {
    let config = DartConfig::builder()
        .slots(SLOTS)
        .copies(COPIES)
        .collectors(COLLECTORS)
        .mapping(MappingKind::Crc)
        .primitive(PrimitiveSpec::KeyIncrement)
        .build()
        .unwrap();
    let layout = config.layout;
    let mut cluster = CollectorCluster::new(config).unwrap();
    let mut switches: Vec<DartEgress> = (0..SWITCHES)
        .map(|i| {
            let mut egress = DartEgress::new(
                SwitchIdentity::derived(100 + i),
                EgressConfig {
                    copies: COPIES,
                    slots: SLOTS,
                    layout,
                    collectors: COLLECTORS,
                    udp_src_port: 49152,
                    primitive: PrimitiveSpec::KeyIncrement,
                },
                u64::from(i),
            )
            .unwrap();
            ControlPlane::new()
                .install_directory(&mut egress, &cluster.directory_for_switch())
                .unwrap();
            egress
        })
        .collect();

    // Three switches each see part of the traffic of two flows.
    let traffic: &[(&[u8], [u64; 3])] = &[
        (b"flow:elephant", [400, 350, 250]), // 1000 packets total
        (b"flow:mouse", [3, 1, 2]),          // 6 packets total
    ];
    for (key, per_switch) in traffic {
        for (egress, &amount) in switches.iter_mut().zip(per_switch) {
            // Batch the switch's observed count into one update (a real
            // pipeline could also emit per-packet updates of amount 1).
            for report in egress.craft(key, &increment_encode(amount)).unwrap() {
                let outcome = cluster.deliver(&report.frame);
                assert!(
                    matches!(outcome.action, RxAction::AtomicExecuted { .. }),
                    "{outcome:?}"
                );
                assert!(outcome.response.is_some(), "RC atomics are ACKed");
            }
        }
    }
    let updates = traffic.len() as u64;
    assert_eq!(
        cluster.total_atomics(),
        u64::from(SWITCHES) * updates * u64::from(COPIES),
        "switches × updates × N FETCH_ADDs, each executed once"
    );
    assert_eq!(cluster.total_writes(), 0, "atomics only");

    // Conservation: the counter mass over the cluster is exactly N times
    // what the switches sent.
    let sent: u64 = traffic.iter().flat_map(|(_, amounts)| amounts).sum();
    let mass: u64 = (0..COLLECTORS)
        .map(|c| {
            cluster.collector(c).unwrap().memory().with(|memory| {
                memory
                    .chunks_exact(8)
                    .map(|word| increment_decode(word).unwrap())
                    .sum::<u64>()
            })
        })
        .sum();
    assert_eq!(mass, u64::from(COPIES) * sent);

    // Operator: read the aggregated estimates.
    for (key, amounts) in traffic {
        let truth: u64 = amounts.iter().sum();
        let Ok(QueryOutcome::Answer(word)) = cluster.try_query(key) else {
            panic!("every collector is up and the key was counted");
        };
        let estimate = increment_decode(&word).unwrap();
        // Count-Min guarantee 1: with every atomic committed the
        // minimum never undercounts.
        assert!(estimate >= truth, "{estimate} < {truth}");
        // Guarantee 2: a copy's word exceeds the truth by what collided
        // into it. Its expected excess is (N·W_other + (N − 1)·truth)/M,
        // foreign keys plus the key's own other copies, and the minimum
        // over N copies exceeds e times that with probability at most
        // e^−N (Markov per copy, as in Count-Min).
        let other = sent - truth;
        let n = u64::from(COPIES);
        let bound = std::f64::consts::E * (n * other + (n - 1) * truth) as f64 / SLOTS as f64;
        assert!((estimate - truth) as f64 <= bound, "{estimate} vs {truth}");
    }
    // An unseen flow shares no word with the two counted ones.
    assert_eq!(cluster.try_query(b"flow:ghost"), Ok(QueryOutcome::Empty));

    // The explain trace narrates the sketch read: N counter-word probes
    // at the key's collector, and the minimum over them as the answer.
    let explain = cluster.query_explain(b"flow:elephant");
    assert_eq!(explain.answered_by, Some(explain.key_collector));
    let collector = cluster.collector(explain.key_collector).unwrap();
    let store = explain.candidates[0].explain.as_ref().unwrap();
    assert_eq!(store.probes.len(), usize::from(COPIES));
    let words: Vec<u64> = store
        .probes
        .iter()
        .zip(0..COPIES)
        .map(|(probe, copy)| {
            assert_eq!(probe.copy, copy);
            assert!(probe.occupied);
            let (slot, word) = collector
                .with_view(|view| view.counter_word(b"flow:elephant", copy))
                .unwrap();
            assert_eq!(probe.slot, slot);
            word
        })
        .collect();
    let minimum = *words.iter().min().unwrap();
    assert_eq!(
        store.outcome,
        QueryOutcome::Answer(minimum.to_be_bytes().to_vec())
    );
    let votes = words.iter().filter(|&&w| w == minimum).count() as u8;
    assert_eq!(store.reason, DecisionReason::Answered { votes });
}
