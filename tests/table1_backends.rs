//! Table 1 end-to-end: every measurement backend rides the same DART
//! collection path, including through the packet-level pipeline.

use direct_telemetry_access::collector::CollectorCluster;
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::MappingKind;
use direct_telemetry_access::core::query::QueryOutcome;
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;
use direct_telemetry_access::telemetry::event::Backend;
use direct_telemetry_access::telemetry::postcard::{
    LocalMeasurement, PostcardBackend, PostcardKey,
};
use direct_telemetry_access::wire::dart::{ChecksumWidth, SlotLayout};
use direct_telemetry_access::wire::{ipv4, FiveTuple};
use dta_bench::table1::run_table1;

#[test]
fn all_six_backends_roundtrip_through_the_store() {
    for row in run_table1() {
        assert!(row.roundtrip_ok, "{} failed", row.backend);
    }
}

#[test]
fn postcards_ride_the_full_packet_path() {
    // Postcard mode: every switch on a path reports its own local
    // measurement keyed by (switchID, 5-tuple); here three switches
    // report about one flow through real RoCEv2 frames.
    let config = DartConfig::builder()
        .slots(1 << 12)
        .copies(2)
        .mapping(MappingKind::Crc)
        .build()
        .unwrap();
    let mut cluster = CollectorCluster::new(config).unwrap();

    let flow = FiveTuple {
        src_ip: ipv4::Address([10, 0, 0, 2]),
        dst_ip: ipv4::Address([10, 2, 1, 3]),
        src_port: 50123,
        dst_port: 80,
        protocol: 6,
    };

    let switch_ids = [11u32, 22, 33];
    for (i, &switch_id) in switch_ids.iter().enumerate() {
        let mut egress = DartEgress::new(
            SwitchIdentity::derived(switch_id),
            EgressConfig {
                copies: 2,
                slots: 1 << 12,
                layout: SlotLayout {
                    checksum: ChecksumWidth::B32,
                    value_len: 20,
                },
                collectors: 1,
                udp_src_port: 49152,
                primitive: direct_telemetry_access::core::PrimitiveSpec::KeyWrite,
            },
            u64::from(switch_id),
        )
        .unwrap();
        let directory = cluster.directory_for_switch();
        ControlPlane::new()
            .install_directory(&mut egress, &directory)
            .unwrap();

        let record = PostcardBackend::record(
            &PostcardKey { switch_id, flow },
            &LocalMeasurement {
                ingress_ts: 1000 * (i as u32 + 1),
                egress_ts: 1000 * (i as u32 + 1) + 120,
                queue_depth: 5 * i as u32,
                egress_port: 8,
                queue_id: 0,
                flags: 0,
                hop_latency: 120,
            },
        );
        for copy in 0..2 {
            let report = egress
                .craft_report_copy(&record.key, &record.value, copy)
                .unwrap();
            cluster.deliver(&report.frame);
        }
    }

    // The operator reconstructs the per-hop view with one query per
    // (switch, flow) pair.
    for (i, &switch_id) in switch_ids.iter().enumerate() {
        let key = PostcardBackend::encode_key(&PostcardKey { switch_id, flow });
        match cluster.try_query(&key).unwrap() {
            QueryOutcome::Answer(value) => {
                let m = PostcardBackend::decode_value(&value).unwrap();
                assert_eq!(m.hop_latency, 120);
                assert_eq!(m.queue_depth, 5 * i as u32);
            }
            QueryOutcome::Empty => panic!("postcard from switch {switch_id} lost"),
        }
    }
}
