//! Whole-system integration: multi-collector sharding, per-query policy
//! trade-offs, and epoch rotation over NIC-registered collector regions.

use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::MappingKind;
use direct_telemetry_access::core::query::{QueryOutcome, ReturnPolicy};
use direct_telemetry_access::core::store::DartStore;
use direct_telemetry_access::topology::sim::{FatTreeSim, ReportMode, SimConfig};

#[test]
fn four_collector_cluster_serves_the_fat_tree() {
    let mut sim = FatTreeSim::new(SimConfig {
        k: 4,
        slots: 1 << 10,
        collectors: 4,
        mode: ReportMode::AllCopies,
        seed: 0xE2E4,
        ..SimConfig::default()
    })
    .unwrap();
    sim.run_flows(1000).unwrap();
    let report = sim.query_all(4);
    // α = 1000 / (4 × 1024) ≈ 0.244 → theory predicts ≈94%.
    let theory = dta_analysis::average_query_success(1000.0 / 4096.0, 2);
    assert!(
        (report.success_rate() - theory).abs() < 0.03,
        "observed {} vs theory {theory}",
        report.success_rate()
    );
    assert_eq!(report.error, 0);

    // All four collectors participate, and every report is accounted for:
    // writes + all drop reasons == frames received.
    let mut total_rx = 0;
    for i in 0..4 {
        let counters = sim.cluster().collector(i).unwrap().nic_counters();
        assert!(counters.writes > 0, "collector {i} idle");
        assert_eq!(
            counters.writes + counters.dropped(),
            counters.frames_rx,
            "collector {i}: frames unaccounted"
        );
        total_rx += counters.frames_rx;
    }
    assert_eq!(total_rx, 2 * 1000);
}

#[test]
fn per_query_policies_trade_empties_for_errors() {
    // Heavily loaded store with tiny checksums: FirstMatch answers more
    // (with errors); Consensus answers less but *never* wrongly here.
    use direct_telemetry_access::wire::dart::ChecksumWidth;
    use dta_bench::storesim::{run, StoreSimParams};

    let base = StoreSimParams {
        slots: 1 << 13,
        keys: 1 << 14,
        checksum: ChecksumWidth::B8,
        ..StoreSimParams::default()
    };
    let first = run(
        StoreSimParams {
            policy: ReturnPolicy::FirstMatch,
            ..base
        },
        1,
    );
    let consensus = run(
        StoreSimParams {
            policy: ReturnPolicy::Consensus(2),
            ..base
        },
        1,
    );
    assert!(first.error > 0, "FirstMatch at b=8 must show errors");
    assert!(
        consensus.error < first.error / 4,
        "Consensus should slash errors: {} vs {}",
        consensus.error,
        first.error
    );
    assert!(
        consensus.empty > first.empty,
        "Consensus pays with more empties"
    );
}

#[test]
fn epoch_rotation_preserves_history_under_continuous_ingest() {
    use direct_telemetry_access::collector::CollectorCluster;
    use direct_telemetry_access::core::PrimitiveSpec;
    use direct_telemetry_access::switch::control_plane::ControlPlane;
    use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
    use direct_telemetry_access::switch::SwitchIdentity;

    let config = DartConfig::builder()
        .slots(1 << 10)
        .copies(2)
        .collectors(2)
        .mapping(MappingKind::Crc)
        .build()
        .unwrap();
    let mut egress = DartEgress::new(
        SwitchIdentity::derived(9),
        EgressConfig {
            copies: 2,
            slots: 1 << 10,
            layout: config.layout,
            collectors: 2,
            udp_src_port: 49152,
            primitive: PrimitiveSpec::KeyWrite,
        },
        9,
    )
    .unwrap();
    let mut cluster = CollectorCluster::new(config).unwrap();
    ControlPlane::new()
        .install_directory(&mut egress, &cluster.directory_for_switch())
        .unwrap();

    // Five epochs of ingest; key "survivor" written every epoch with an
    // epoch-specific value.
    for epoch in 0..5u8 {
        for i in 0..500u32 {
            let key = format!("e{epoch}-k{i}");
            for report in egress.craft(key.as_bytes(), &[i as u8; 20]).unwrap() {
                cluster.deliver(&report.frame);
            }
        }
        for report in egress.craft(b"survivor", &[0xE0 + epoch; 20]).unwrap() {
            cluster.deliver(&report.frame);
        }
        assert_eq!(cluster.rotate_epoch(), Ok(u64::from(epoch)));
        egress.repoint_collectors(&cluster.directory()).unwrap();
    }

    // Every epoch's survivor value is recoverable, from DRAM or the
    // persistent tier.
    let owner = cluster
        .collector(cluster.collector_of(b"survivor"))
        .unwrap();
    for epoch in 0..5u64 {
        match owner.query_epoch(epoch, b"survivor").unwrap() {
            QueryOutcome::Answer(v) => assert_eq!(v[0], 0xE0 + epoch as u8),
            QueryOutcome::Empty => panic!("survivor lost in epoch {epoch}"),
        }
    }
    assert_eq!(owner.epoch(), 5);
    assert_eq!(owner.archived_epochs(), vec![0, 1, 2]); // 5 sealed - 2 DRAM slots
    assert_eq!(owner.dram_epochs(), vec![3, 4]);
    assert_eq!(owner.query_epoch(5, b"survivor"), Ok(QueryOutcome::Empty));
}

#[test]
fn store_over_rdma_memory_equals_local_store() {
    // A DartStore built over a memory snapshot from the packet path must
    // answer identically to a locally-written store with the same config.
    use direct_telemetry_access::collector::DartCollector;
    use direct_telemetry_access::switch::control_plane::ControlPlane;
    use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
    use direct_telemetry_access::switch::SwitchIdentity;
    use direct_telemetry_access::wire::dart::{ChecksumWidth, SlotLayout};

    let config = DartConfig::builder()
        .slots(1 << 10)
        .copies(2)
        .mapping(MappingKind::Crc)
        .build()
        .unwrap();
    let mut collector = DartCollector::new(0, config.clone()).unwrap();
    let mut egress = DartEgress::new(
        SwitchIdentity::derived(5),
        EgressConfig {
            copies: 2,
            slots: 1 << 10,
            layout: SlotLayout {
                checksum: ChecksumWidth::B32,
                value_len: 20,
            },
            collectors: 1,
            udp_src_port: 49152,
            primitive: direct_telemetry_access::core::PrimitiveSpec::KeyWrite,
        },
        0x99,
    )
    .unwrap();
    ControlPlane::new()
        .install_directory(&mut egress, &[collector.endpoint()])
        .unwrap();

    let mut local = DartStore::new(config.clone());
    for i in 0..200u64 {
        let key = i.to_le_bytes();
        let value = [i as u8; 20];
        local.insert(&key, &value).unwrap();
        for copy in 0..2 {
            let report = egress.craft_report_copy(&key, &value, copy).unwrap();
            collector.receive_frame(&report.frame);
        }
    }

    // Byte-for-byte: the RDMA-written region equals the local store.
    let remote = collector.memory().snapshot();
    assert_eq!(remote, local.memory(), "memory images diverge");

    // And a store constructed over the snapshot answers identically.
    let rebuilt = DartStore::from_memory(config, remote).unwrap();
    for i in 0..200u64 {
        let key = i.to_le_bytes();
        assert_eq!(rebuilt.query(&key), local.query(&key));
    }
}
