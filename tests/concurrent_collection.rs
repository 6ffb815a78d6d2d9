//! Concurrency: many switch threads report through lossy links into one
//! collector thread, with operator queries racing the ingest — the
//! deployment shape of a real collection cluster — and query threads
//! sharing one read-only cluster.

use std::sync::Barrier;
use std::thread;

use direct_telemetry_access::collector::{CollectorCluster, CollectorHealth, DartCollector};
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::MappingKind;
use direct_telemetry_access::core::query::QueryOutcome;
use direct_telemetry_access::obs::Obs;
use direct_telemetry_access::rdma::link::{link, FaultModel};
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;
use direct_telemetry_access::wire::dart::{ChecksumWidth, SlotLayout};

const SLOTS: u64 = 1 << 14;
const SWITCHES: u32 = 8;
const KEYS_PER_SWITCH: u64 = 500;

fn key(switch: u32, i: u64) -> Vec<u8> {
    // Mix the identifiers so keys have 5-tuple-like entropy. (Dense
    // sequential keys under the linear CRC mapping spread *better* than
    // random — a quasi-random, linear-code effect — which makes success
    // rates land above the Poisson theory. Real keys behave like random.)
    dta_core::hash::hash_bytes(&(u64::from(switch) << 32 | i).to_be_bytes(), 0x5eed)
        .to_be_bytes()
        .to_vec()
}

#[test]
fn parallel_switches_one_collector() {
    let config = DartConfig::builder()
        .slots(SLOTS)
        .copies(2)
        .mapping(MappingKind::Crc)
        .build()
        .unwrap();
    let mut collector = DartCollector::new(0, config).unwrap();

    // One link (and one QP) per switch; crafting happens on the switch's
    // own thread, delivery on the collector thread.
    let mut receivers = Vec::new();
    let mut handles = Vec::new();
    for switch in 0..SWITCHES {
        let endpoint = collector.allocate_switch_qp();
        let (mut tx, rx) = link(FaultModel::Perfect, u64::from(switch));
        receivers.push(rx);
        handles.push(thread::spawn(move || {
            let mut egress = DartEgress::new(
                SwitchIdentity::derived(1000 + switch),
                EgressConfig {
                    copies: 2,
                    slots: SLOTS,
                    layout: SlotLayout {
                        checksum: ChecksumWidth::B32,
                        value_len: 20,
                    },
                    collectors: 1,
                    udp_src_port: 49152,
                    primitive: direct_telemetry_access::core::PrimitiveSpec::KeyWrite,
                },
                u64::from(switch) ^ 0xC0,
            )
            .unwrap();
            ControlPlane::new()
                .install_directory(&mut egress, &[endpoint])
                .unwrap();
            for i in 0..KEYS_PER_SWITCH {
                let value = [(i % 251) as u8; 20];
                for copy in 0..2 {
                    let report = egress
                        .craft_report_copy(&key(switch, i), &value, copy)
                        .unwrap();
                    tx.send(report.frame);
                }
            }
            tx.flush();
        }));
    }

    // Collector thread: drain all links until every switch thread is
    // done and every frame is consumed. Interleave queries mid-ingest to
    // prove reads and NIC writes coexist (the region lock is per-access).
    let mut delivered = 0u64;
    let expected = u64::from(SWITCHES) * KEYS_PER_SWITCH * 2;
    let mut probes = 0u64;
    while delivered < expected {
        let mut progressed = false;
        for rx in &receivers {
            while let Some(frame) = rx.try_recv() {
                collector.receive_frame(&frame);
                delivered += 1;
                progressed = true;
            }
        }
        // A racing operator query: must never panic or corrupt.
        if delivered > 0 && probes < 64 {
            probes += 1;
            let _ = collector.query(&key(0, 0));
        }
        if !progressed {
            thread::yield_now();
        }
    }
    for handle in handles {
        handle.join().expect("switch thread clean exit");
    }

    // Everything executed, nothing dropped.
    let counters = collector.nic_counters();
    assert_eq!(counters.writes, expected);
    assert_eq!(counters.dropped(), 0, "{counters:?}");

    // Every key queryable (α = 8·500/16384 ≈ 0.24, so allow a few
    // hash-aged losses but no wrong answers).
    let mut correct = 0u64;
    for switch in 0..SWITCHES {
        for i in 0..KEYS_PER_SWITCH {
            match collector.query(&key(switch, i)) {
                QueryOutcome::Answer(v) => {
                    assert_eq!(v, vec![(i % 251) as u8; 20], "wrong answer");
                    correct += 1;
                }
                QueryOutcome::Empty => {}
            }
        }
    }
    let total = u64::from(SWITCHES) * KEYS_PER_SWITCH;
    let rate = correct as f64 / total as f64;
    let theory = dta_analysis::average_query_success(total as f64 / SLOTS as f64, 2);
    assert!(
        (rate - theory).abs() < 0.03,
        "success {rate} vs theory {theory}"
    );
}

/// Queries are pure reads of collector memory: two threads sharing one
/// `&CollectorCluster` get exactly the answers a sequential pass gets,
/// and the cluster's query counters see every one of their queries.
#[test]
fn query_threads_share_one_cluster() {
    const COLLECTORS: u32 = 4;
    const REPORTED: u64 = 2_000;
    const KEYS: u64 = REPORTED + 200;
    let config = DartConfig::builder()
        .slots(1 << 12)
        .copies(2)
        .collectors(COLLECTORS)
        .mapping(MappingKind::Crc)
        .build()
        .unwrap();
    let layout = config.layout;
    let mut cluster = CollectorCluster::new(config).unwrap();
    let obs = Obs::new();
    cluster.attach_obs(&obs);
    let directory = cluster.directory_for_switch();
    let mut egress = DartEgress::new(
        SwitchIdentity::derived(1),
        EgressConfig {
            copies: 2,
            slots: 1 << 12,
            layout,
            collectors: COLLECTORS,
            udp_src_port: 49152,
            primitive: direct_telemetry_access::core::PrimitiveSpec::KeyWrite,
        },
        7,
    )
    .unwrap();
    ControlPlane::new()
        .install_directory(&mut egress, &directory)
        .unwrap();
    for i in 0..REPORTED {
        for report in egress.craft(&key(0, i), &[(i % 251) as u8; 20]).unwrap() {
            cluster.deliver(&report.frame);
        }
    }
    // A crash the control plane has not detected yet: that collector's
    // keys read as unreachable, so every outcome class is exercised.
    cluster.set_health(3, CollectorHealth::Crashed);

    let keys: Vec<Vec<u8>> = (0..KEYS).map(|i| key(0, i)).collect();
    let sequential: Vec<_> = keys.iter().map(|k| cluster.try_query(k)).collect();
    assert!(sequential
        .iter()
        .any(|o| matches!(o, Ok(QueryOutcome::Answer(_)))));
    assert!(sequential
        .iter()
        .any(|o| matches!(o, Ok(QueryOutcome::Empty))));
    assert!(sequential.iter().any(|o| o.is_err()));

    let registry = obs.registry();
    let served = || {
        ["answered", "empty", "unreachable"]
            .iter()
            .map(|class| {
                registry
                    .counter_value(&format!("dta_cluster_queries_{class}_total"))
                    .unwrap_or(0)
            })
            .sum::<u64>()
    };
    let before = served();
    let cluster = &cluster;
    // Both readers start together, so their queries overlap.
    let start = Barrier::new(2);
    let answers: Vec<Vec<_>> = thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    keys.iter()
                        .map(|k| cluster.try_query(k))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        readers
            .into_iter()
            .map(|reader| reader.join().expect("query thread clean exit"))
            .collect()
    });
    for answer in &answers {
        assert_eq!(answer, &sequential, "a query thread diverged");
    }
    assert_eq!(served() - before, 2 * KEYS);
}
