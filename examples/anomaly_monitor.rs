//! Flow-event telemetry (Table 1, row 5): switches push anomaly reports
//! into a collector cluster; an operator "dashboard" queries them.
//!
//! ```sh
//! cargo run --release --example anomaly_monitor
//! ```
//!
//! Models the FlowEvent-style use case: data-plane logic detects
//! per-flow drops / loops / congestion and reports them keyed by
//! `(5-tuple, anomaly kind)`. During an incident the operator asks
//! "what anomalies has flow F experienced?" — one DART query per kind,
//! no collector-side ingestion pipeline at all.

use direct_telemetry_access::collector::CollectorCluster;
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::MappingKind;
use direct_telemetry_access::core::query::QueryOutcome;
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;
use direct_telemetry_access::telemetry::anomaly::{
    AnomalyBackend, AnomalyEvent, AnomalyKey, AnomalyKind,
};
use direct_telemetry_access::telemetry::event::Backend;
use direct_telemetry_access::wire::dart::{ChecksumWidth, SlotLayout};
use direct_telemetry_access::wire::{ipv4, FiveTuple};

fn flow(i: u8) -> FiveTuple {
    FiveTuple {
        src_ip: ipv4::Address([10, 0, 0, 2 + i]),
        dst_ip: ipv4::Address([10, 3, 1, 2]),
        src_port: 40_000 + u16::from(i),
        dst_port: 443,
        protocol: 6,
    }
}

fn main() {
    // A cluster of two collectors sharing the anomaly key space.
    let config = DartConfig::builder()
        .slots(1 << 12)
        .copies(2)
        .collectors(2)
        .mapping(MappingKind::Crc)
        .build()
        .unwrap();
    let mut cluster = CollectorCluster::new(config).unwrap();

    // Three reporting switches, each with its own QPs at the collectors.
    let egress_config = EgressConfig {
        copies: 2,
        slots: 1 << 12,
        layout: SlotLayout {
            checksum: ChecksumWidth::B32,
            value_len: 20,
        },
        collectors: 2,
        udp_src_port: 49152,
        primitive: direct_telemetry_access::core::PrimitiveSpec::KeyWrite,
    };
    let mut switches: Vec<DartEgress> = (1..=3)
        .map(|id| {
            let mut egress = DartEgress::new(
                SwitchIdentity::derived(id),
                egress_config,
                0x700 + u64::from(id),
            )
            .unwrap();
            let directory = cluster.directory_for_switch();
            ControlPlane::new()
                .install_directory(&mut egress, &directory)
                .unwrap();
            egress
        })
        .collect();

    // The incident: switch 2 sees congestion and drops on flow 7;
    // switch 3 sees a path change on flow 9.
    let incidents = [
        (1usize, flow(7), AnomalyKind::Congestion, 0x11_u64, 120),
        (1, flow(7), AnomalyKind::Drop, 0x2F, 3),
        (2, flow(9), AnomalyKind::PathChange, 0x01, 1),
    ];
    for (sw, f, kind, data, count) in incidents {
        let key = AnomalyKey { flow: f, kind };
        let event = AnomalyEvent {
            timestamp: 1_000_000 + count,
            switch_id: switches[sw].identity().switch_id,
            event_data: data,
            count,
        };
        let record = AnomalyBackend::record(&key, &event);
        // Every anomaly report = N RDMA WRITEs from the data plane.
        for copy in 0..2 {
            let report = switches[sw]
                .craft_report_copy(&record.key, &record.value, copy)
                .unwrap();
            cluster.deliver(&report.frame);
        }
    }
    println!(
        "ingested {} anomaly reports across {} collectors (collector CPU writes: 0)",
        incidents.len(),
        cluster.len()
    );

    // The operator dashboard: probe every anomaly kind for two flows.
    for f in [flow(7), flow(9)] {
        println!("\nanomaly report for flow {f}:");
        for kind in [
            AnomalyKind::Drop,
            AnomalyKind::Loop,
            AnomalyKind::Congestion,
            AnomalyKind::Blackhole,
            AnomalyKind::PathChange,
        ] {
            let key = AnomalyBackend::encode_key(&AnomalyKey { flow: f, kind });
            match cluster.try_query(&key).expect("every collector is up") {
                QueryOutcome::Answer(value) => {
                    let event = AnomalyBackend::decode_value(&value).unwrap();
                    println!(
                        "  {kind:?}: observed by switch {} at t={} (count {}, data {:#x})",
                        event.switch_id, event.timestamp, event.count, event.event_data
                    );
                }
                QueryOutcome::Empty => println!("  {kind:?}: none reported"),
            }
        }
    }
}
