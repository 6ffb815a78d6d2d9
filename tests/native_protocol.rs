//! §7 native multi-write protocol, end to end: one switch packet fills
//! all `N` collector slots, and the data is queryable exactly as if `N`
//! standard WRITEs had been issued.

use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::MappingKind;
use direct_telemetry_access::core::query::QueryOutcome;
use direct_telemetry_access::core::store::OwnedQueryEngine;
use direct_telemetry_access::rdma::mr::AccessFlags;
use direct_telemetry_access::rdma::mr::MemoryRegion;
use direct_telemetry_access::rdma::native::{NativeAction, NativeNic};
use direct_telemetry_access::rdma::nic::RNic;
use direct_telemetry_access::rdma::qp::{QueuePair, Transport};
use direct_telemetry_access::rdma::verbs::RemoteEndpoint;
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;
use direct_telemetry_access::wire::dart::{ChecksumWidth, SlotLayout};
use direct_telemetry_access::wire::roce::Psn;
use direct_telemetry_access::wire::{ethernet, ipv4};

const SLOTS: u64 = 1 << 12;
const RKEY: u32 = 0x1000;
const QPN: u32 = 0x100;
const BASE_VA: u64 = 0x4000_0000;

fn setup() -> (DartEgress, NativeNic, OwnedQueryEngine) {
    let mac = ethernet::Address([0x02, 0xC0, 0, 0, 0, 1]);
    let ip = ipv4::Address([10, 200, 0, 1]);
    let mut nic = RNic::new(mac, ip);
    let region_len = SLOTS as usize * 24;
    nic.register_mr(MemoryRegion::new(
        BASE_VA,
        region_len,
        RKEY,
        AccessFlags::DART_COLLECTOR,
    ))
    .unwrap();
    let mut qp = QueuePair::new(QPN, Transport::Uc);
    qp.ready(Psn::new(0));
    nic.create_qp(qp).unwrap();
    let native = NativeNic::new(nic, RKEY);

    let endpoint = RemoteEndpoint {
        mac,
        ip,
        qpn: QPN,
        rkey: RKEY,
        base_va: BASE_VA,
        region_len: region_len as u64,
        start_psn: Psn::new(0),
    };
    let mut egress = DartEgress::new(
        SwitchIdentity::derived(3),
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
        0x7,
    )
    .unwrap();
    ControlPlane::new()
        .install_directory(&mut egress, &[endpoint])
        .unwrap();

    let config = DartConfig::builder()
        .slots(SLOTS)
        .copies(2)
        .mapping(MappingKind::Crc)
        .build()
        .unwrap();
    let engine = OwnedQueryEngine::new(config).unwrap();
    (egress, native, engine)
}

#[test]
fn one_packet_answers_queries_like_n_writes() {
    let (mut egress, mut nic, engine) = setup();
    for i in 0..200u64 {
        let key = i.to_le_bytes();
        let report = egress
            .craft_multiwrite_report(&key, &[i as u8; 20])
            .unwrap();
        let action = nic.handle_frame(&report.frame);
        assert_eq!(
            action,
            NativeAction::MultiWriteExecuted { writes: 2, len: 24 },
            "report {i}"
        );
    }
    assert_eq!(nic.counters().multiwrites, 200);
    assert_eq!(nic.counters().fanout_writes, 400);

    let memory = nic.nic().mr(RKEY).unwrap().handle().snapshot();
    let view = engine.view(&memory).unwrap();
    for i in 0..200u64 {
        let outcome = view.query(&i.to_le_bytes());
        assert_eq!(outcome, QueryOutcome::Answer(vec![i as u8; 20]), "key {i}");
    }
}

#[test]
fn network_overhead_halves_versus_standard_rdma() {
    let (mut egress, _, _) = setup();
    let key = b"overhead-key";
    let value = [1u8; 20];
    let multi = egress
        .craft_multiwrite_report(key, &value)
        .unwrap()
        .frame
        .len();
    let writes: usize = (0..2u8)
        .map(|c| {
            egress
                .craft_report_copy(key, &value, c)
                .unwrap()
                .frame
                .len()
        })
        .sum();
    // §7: "significantly reduce the network overheads of our current
    // system which ... allows only a single memory write per packet."
    assert!(
        (multi as f64) < writes as f64 * 0.65,
        "multiwrite {multi} B vs {writes} B for 2 WRITEs"
    );
}

#[test]
fn multiwrite_and_standard_writes_coexist() {
    let (mut egress, mut nic, engine) = setup();
    // Key A via multiwrite, key B via two standard WRITEs.
    let a = egress
        .craft_multiwrite_report(b"key-A", &[0xAA; 20])
        .unwrap();
    assert!(matches!(
        nic.handle_frame(&a.frame),
        NativeAction::MultiWriteExecuted { .. }
    ));
    for copy in 0..2 {
        let b = egress
            .craft_report_copy(b"key-B", &[0xBB; 20], copy)
            .unwrap();
        assert!(matches!(
            nic.handle_frame(&b.frame),
            NativeAction::Passthrough(_)
        ));
    }
    let memory = nic.nic().mr(RKEY).unwrap().handle().snapshot();
    let view = engine.view(&memory).unwrap();
    assert_eq!(view.query(b"key-A"), QueryOutcome::Answer(vec![0xAA; 20]));
    assert_eq!(view.query(b"key-B"), QueryOutcome::Answer(vec![0xBB; 20]));
}
