//! Network-wide heavy-hitter detection with a collector-memory sketch.
//!
//! ```sh
//! cargo run --release --example heavy_hitters
//! ```
//!
//! §7's sketch-aggregation idea put to work: three switches FETCH_ADD
//! every flow's bytes into a Key-Increment cluster, which is a Count-Min
//! sketch in collector DRAM (each key's `N` hashed counter words are the
//! sketch's rows; a query takes the minimum). The operator then asks
//! "which flows exceed 1% of traffic?" — network-wide heavy hitters with
//! *zero* per-flow counter state on any switch.

use direct_telemetry_access::collector::CollectorCluster;
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::MappingKind;
use direct_telemetry_access::core::primitive::{increment_decode, increment_encode};
use direct_telemetry_access::core::query::QueryOutcome;
use direct_telemetry_access::core::PrimitiveSpec;
use direct_telemetry_access::rdma::nic::RxAction;
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counter words per collector (the sketch width).
const SLOTS: u64 = 2048;
/// Hashed copies per flow (the sketch depth).
const COPIES: u8 = 4;
const COLLECTORS: u32 = 2;

fn main() {
    // Collector bring-up: the counters live in two collectors' DRAM.
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

    // Three edge switches, each with its own RC QP per collector.
    let mut switches: Vec<DartEgress> = (0..3u32)
        .map(|i| {
            let mut egress = DartEgress::new(
                SwitchIdentity::derived(10 + i),
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
    let mut report = |egress: &mut DartEgress, key: &str, bytes: u64| {
        for frame in egress
            .craft(key.as_bytes(), &increment_encode(bytes))
            .unwrap()
        {
            let action = cluster.deliver(&frame.frame).action;
            assert!(
                matches!(action, RxAction::AtomicExecuted { .. }),
                "{action:?}"
            );
        }
    };

    // Traffic: 500 mice plus 3 elephants, split across the switches.
    let mut rng = StdRng::seed_from_u64(0xE1E);
    let mut total_bytes = 0u64;
    let elephants: &[(&str, u64)] = &[
        ("flow:video-cdn", 8_000_000),
        ("flow:backup-job", 5_000_000),
        ("flow:ml-allreduce", 3_000_000),
    ];
    for (name, bytes) in elephants {
        for egress in switches.iter_mut() {
            let share = bytes / 3;
            report(egress, name, share);
            total_bytes += share;
        }
    }
    for i in 0..500u32 {
        let bytes = rng.gen_range(1_000..20_000);
        report(
            &mut switches[(i % 3) as usize],
            &format!("flow:mouse-{i}"),
            bytes,
        );
        total_bytes += bytes;
    }
    println!(
        "ingested ~{:.1} MB of traffic accounting from 3 switches ({} atomics)",
        total_bytes as f64 / 1e6,
        cluster.total_atomics()
    );

    // Operator: probe candidate flows against 1% of the traffic sent.
    let threshold = total_bytes / 100;
    println!("\nflows above 1% of total ({} B threshold):", threshold);
    let mut candidates: Vec<(String, u64)> = elephants
        .iter()
        .map(|(n, _)| n.to_string())
        .chain((0..500).map(|i| format!("flow:mouse-{i}")))
        .map(|name| {
            let estimate = match cluster.try_query(name.as_bytes()) {
                Ok(QueryOutcome::Answer(word)) => increment_decode(&word).unwrap(),
                other => panic!("{name} was counted, read {other:?}"),
            };
            (name, estimate)
        })
        .filter(|(_, est)| *est >= threshold)
        .collect();
    candidates.sort_by_key(|(_, est)| std::cmp::Reverse(*est));
    for (name, estimate) in &candidates {
        println!(
            "  {name:<20} ~{:>9} B ({:.1}%)",
            estimate,
            *estimate as f64 / total_bytes as f64 * 100.0
        );
    }
    assert!(
        candidates.len() == 3 && candidates.iter().all(|(n, _)| !n.contains("mouse")),
        "exactly the elephants"
    );
    println!("\nno switch stored a single per-flow counter.");
}
