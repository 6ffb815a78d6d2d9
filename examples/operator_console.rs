//! The operator console: typed queries across every Table 1 backend.
//!
//! ```sh
//! cargo run --release --example operator_console
//! ```
//!
//! One collector cluster holds telemetry from four different measurement
//! backends at once (domain-separated keys); the operator's
//! [`QueryService`] asks typed questions against all of them — the §3.2
//! query flow behind a humane API.

use direct_telemetry_access::collector::query_service::{Answer, QueryService};
use direct_telemetry_access::collector::CollectorCluster;
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::MappingKind;
use direct_telemetry_access::obs::{MetricValue, Obs};
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;
use direct_telemetry_access::telemetry::anomaly::{
    AnomalyBackend, AnomalyEvent, AnomalyKey, AnomalyKind,
};
use direct_telemetry_access::telemetry::event::{Backend, TelemetryRecord};
use direct_telemetry_access::telemetry::failure::{FailureBackend, FailureEvent, FailureKey};
use direct_telemetry_access::telemetry::int_path::IntPathBackend;
use direct_telemetry_access::telemetry::postcard::{
    LocalMeasurement, PostcardBackend, PostcardKey,
};
use direct_telemetry_access::wire::dart::{ChecksumWidth, SlotLayout};
use direct_telemetry_access::wire::int::{HopMetadata, IntStack};
use direct_telemetry_access::wire::{ipv4, FiveTuple};

fn flow() -> FiveTuple {
    FiveTuple {
        src_ip: ipv4::Address([10, 0, 0, 2]),
        dst_ip: ipv4::Address([10, 2, 1, 3]),
        src_port: 47001,
        dst_port: 443,
        protocol: 6,
    }
}

fn main() {
    let config = DartConfig::builder()
        .slots(1 << 12)
        .copies(2)
        .collectors(2)
        .mapping(MappingKind::Crc)
        .build()
        .unwrap();
    let mut cluster = CollectorCluster::new(config).unwrap();

    // Observability: every stage below reports into this handle.
    let obs = Obs::new();
    cluster.attach_obs(&obs);

    // One reporting switch stands in for the network.
    let mut egress = DartEgress::new(
        SwitchIdentity::derived(7),
        EgressConfig {
            copies: 2,
            slots: 1 << 12,
            layout: SlotLayout {
                checksum: ChecksumWidth::B32,
                value_len: 20,
            },
            collectors: 2,
            udp_src_port: 49152,
            primitive: direct_telemetry_access::core::PrimitiveSpec::KeyWrite,
        },
        0xC0,
    )
    .unwrap();
    let directory = cluster.directory_for_switch();
    ControlPlane::new()
        .install_directory(&mut egress, &directory)
        .unwrap();
    egress.attach_obs(&obs);

    // Telemetry from four backends, all through the same RDMA path.
    let mut stack = IntStack::new();
    for id in [6u32, 13, 17, 15, 7] {
        stack.push(HopMetadata { switch_id: id }).unwrap();
    }
    let records: Vec<TelemetryRecord> = vec![
        IntPathBackend::record(&flow(), &stack),
        PostcardBackend::record(
            &PostcardKey {
                switch_id: 13,
                flow: flow(),
            },
            &LocalMeasurement {
                ingress_ts: 1000,
                egress_ts: 1850,
                queue_depth: 37,
                egress_port: 12,
                queue_id: 0,
                flags: 0,
                hop_latency: 850,
            },
        ),
        AnomalyBackend::record(
            &AnomalyKey {
                flow: flow(),
                kind: AnomalyKind::Congestion,
            },
            &AnomalyEvent {
                timestamp: 123_456,
                switch_id: 13,
                event_data: 37,
                count: 4,
            },
        ),
        FailureBackend::record(
            &FailureKey {
                failure_id: 2,
                location: 0x0D00,
            },
            &FailureEvent {
                timestamp: 123_400,
                debug_code: 0xBAD,
                entity: 17,
                severity: 900,
                count: 1,
            },
        ),
    ];
    for record in &records {
        for copy in 0..2 {
            let report = egress
                .craft_report_copy(&record.key, &record.value, copy)
                .unwrap();
            cluster.deliver(&report.frame);
        }
    }
    println!(
        "ingested {} records x 2 copies over RDMA into {} collectors\n",
        records.len(),
        cluster.len()
    );

    // The console session.
    let mut console = QueryService::new(&cluster);

    match console.int_path(&flow()) {
        Answer::Value(path) => println!("? path of {}\n  -> {path:?}", flow()),
        other => println!("? path -> {other:?}"),
    }
    match console.postcard(13, flow()) {
        Answer::Value(m) => println!(
            "? switch 13's view\n  -> hop latency {} ns, queue depth {}",
            m.hop_latency, m.queue_depth
        ),
        other => println!("? postcard -> {other:?}"),
    }
    let profile = console.anomaly_profile(flow());
    println!("? anomaly profile\n  -> {profile:?}");
    match console.failure(2, 0x0D00) {
        Answer::Value(f) => println!(
            "? failure 2 @ 0x0D00\n  -> severity {}, debug {:#x}",
            f.severity, f.debug_code
        ),
        other => println!("? failure -> {other:?}"),
    }
    // A question with no data behind it.
    match console.mirror_answer(99) {
        Answer::Empty => println!("? mirror query 99\n  -> no data (empty return)"),
        other => println!("? mirror -> {other:?}"),
    }

    let stats = console.stats();
    println!(
        "\nconsole session: {} answered, {} empty, {} garbled",
        stats.answered, stats.empty, stats.garbled
    );

    // Why did the path query answer? Replay it through query-explain.
    let explain = console.explain_int_path(&flow());
    println!("\nquery-explain: path of {}", flow());
    println!(
        "  key -> collector {} routing {:?}",
        explain.key_collector, explain.routing
    );
    for candidate in &explain.candidates {
        match &candidate.explain {
            Some(store) => {
                for probe in &store.probes {
                    println!(
                        "  collector {} copy {} slot {:>5}  occupied={} checksum_match={}",
                        candidate.collector,
                        probe.copy,
                        probe.slot,
                        probe.occupied,
                        probe.checksum_matched
                    );
                }
                println!(
                    "  decision: {} under {:?} -> {}",
                    store.reason.name(),
                    store.policy,
                    if store.outcome.is_answer() {
                        "answered"
                    } else {
                        "abstained"
                    }
                );
            }
            None => println!("  collector {} unreachable", candidate.collector),
        }
    }

    // The session's metrics, straight off the registry.
    println!("\nmetrics snapshot:");
    for metric in obs.registry().snapshot() {
        match metric.value {
            MetricValue::Counter(v) => println!("  {:<42} {v}", metric.name),
            MetricValue::Gauge(v) => println!("  {:<42} {v}", metric.name),
            MetricValue::Histogram(h) => {
                println!("  {:<42} count={} sum={}", metric.name, h.count, h.sum)
            }
        }
    }
}
