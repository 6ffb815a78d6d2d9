//! Micro-benchmarks of the hot paths: hashing, slot encoding, report
//! crafting (switch) and frame processing (NIC), cluster point queries
//! (trace-free and explained), plus the end-to-end fat-tree flow.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use dta_collector::CollectorCluster;
use dta_core::config::DartConfig;
use dta_core::hash::{AddressMapping, CrcMapping, LivenessMask, MappingKind, Mix64Mapping};
use dta_rdma::verbs::RemoteEndpoint;
use dta_switch::control_plane::ControlPlane;
use dta_switch::egress::{DartEgress, EgressConfig};
use dta_switch::SwitchIdentity;
use dta_wire::crc::Crc32;
use dta_wire::dart::{ChecksumWidth, SlotLayout};
use dta_wire::roce::Psn;
use dta_wire::{ethernet, ipv4};

fn bench_hashing(c: &mut Criterion) {
    let key = [0xABu8; 13];
    let crc = CrcMapping::new();
    let mix = Mix64Mapping::new(7);
    let mut group = c.benchmark_group("micro/hash");
    group.throughput(Throughput::Elements(1));
    group.bench_function("crc_slot", |b| {
        b.iter(|| black_box(crc.slot(black_box(&key), 1, 1 << 20)))
    });
    group.bench_function("mix64_slot", |b| {
        b.iter(|| black_box(mix.slot(black_box(&key), 1, 1 << 20)))
    });
    group.bench_function("crc_checksum", |b| {
        b.iter(|| black_box(crc.key_checksum(black_box(&key))))
    });
    group.finish();
}

fn bench_icrc(c: &mut Criterion) {
    let engine = Crc32::ieee();
    let payload = [0x5Au8; 88]; // a DART report frame's worth
    let mut group = c.benchmark_group("micro/crc32");
    group.throughput(Throughput::Bytes(88));
    group.bench_function("crc32_88B", |b| {
        b.iter(|| black_box(engine.checksum(black_box(&payload))))
    });
    group.finish();
}

fn bench_slot_codec(c: &mut Criterion) {
    let layout = SlotLayout {
        checksum: ChecksumWidth::B32,
        value_len: 20,
    };
    let value = [7u8; 20];
    let mut slot = [0u8; 24];
    let mut group = c.benchmark_group("micro/slot");
    group.throughput(Throughput::Elements(1));
    group.bench_function("encode", |b| {
        b.iter(|| layout.encode(black_box(0xDEAD_BEEF), black_box(&value), &mut slot))
    });
    group.bench_function("decode", |b| {
        b.iter(|| black_box(layout.decode(black_box(&slot))))
    });
    group.finish();
}

fn bench_report_crafting(c: &mut Criterion) {
    let mut egress = DartEgress::new(
        SwitchIdentity::derived(1),
        EgressConfig {
            copies: 2,
            slots: 1 << 16,
            layout: SlotLayout {
                checksum: ChecksumWidth::B32,
                value_len: 20,
            },
            collectors: 1,
            udp_src_port: 49152,
            primitive: dta_core::PrimitiveSpec::KeyWrite,
        },
        7,
    )
    .unwrap();
    egress
        .install_collector(
            0,
            RemoteEndpoint {
                mac: ethernet::Address([2, 0, 0, 0, 0, 2]),
                ip: ipv4::Address([10, 0, 0, 2]),
                qpn: 0x100,
                rkey: 0x1000,
                base_va: 0,
                region_len: 24 << 16,
                start_psn: Psn::new(0),
            },
        )
        .unwrap();

    let key = [0xABu8; 13];
    let value = [7u8; 20];
    let mut group = c.benchmark_group("micro/switch");
    group.throughput(Throughput::Elements(1));
    group.bench_function("craft_report", |b| {
        b.iter(|| {
            black_box(
                egress
                    .craft_report(black_box(&key), black_box(&value))
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// `try_query` against `explain` on a four-collector Key-Write cluster
/// holding 10,000 keys, with collector 1 marked dead: a hit (answered by
/// its live primary), a miss (never reported) and a failover read (the
/// survivor is empty for the key, its primary behind it answers).
fn bench_cluster_query(c: &mut Criterion) {
    const SLOTS: u64 = 1 << 16;
    const VICTIM: u32 = 1;
    let config = DartConfig::builder()
        .slots(SLOTS)
        .copies(2)
        .value_len(20)
        .collectors(4)
        .mapping(MappingKind::Crc)
        .build()
        .unwrap();
    let mut egress = DartEgress::new(
        SwitchIdentity::derived(1),
        EgressConfig {
            copies: 2,
            slots: SLOTS,
            layout: config.layout,
            collectors: 4,
            udp_src_port: 49152,
            primitive: dta_core::PrimitiveSpec::KeyWrite,
        },
        7,
    )
    .unwrap();
    let policy = config.policy;
    let mut cluster = CollectorCluster::new(config).unwrap();
    let directory = cluster.directory_for_switch();
    ControlPlane::new()
        .install_directory(&mut egress, &directory)
        .unwrap();
    let key = |i: u32| {
        let mut key = [0u8; 13];
        key[..4].copy_from_slice(&i.to_be_bytes());
        key
    };
    for i in 0..10_000 {
        for report in egress.craft(&key(i), &[7u8; 20]).unwrap() {
            cluster.deliver(&report.frame);
        }
    }
    let mut mask = LivenessMask::all_live(4);
    mask.set_live(VICTIM, false);
    cluster.set_liveness_mask(mask);
    let reported_on = |victim: bool| {
        (0..10_000)
            .map(key)
            .find(|k| (cluster.collector_of(k) == VICTIM) == victim)
            .unwrap()
    };
    let cases = [
        ("hit", reported_on(false)),
        ("miss", key(u32::MAX)),
        ("failover", reported_on(true)),
    ];

    let mut group = c.benchmark_group("micro/cluster_query");
    group.throughput(Throughput::Elements(1));
    for (name, key) in cases {
        group.bench_function(format!("try_query_{name}"), |b| {
            b.iter(|| black_box(cluster.try_query(black_box(&key))))
        });
        group.bench_function(format!("explain_{name}"), |b| {
            b.iter(|| black_box(cluster.explain(black_box(&key), policy)))
        });
    }
    group.finish();
}

fn bench_e2e_flow(c: &mut Criterion) {
    use dta_topology::sim::{FatTreeSim, SimConfig};
    let mut group = c.benchmark_group("micro/e2e");
    group.sample_size(20);
    group.bench_function("one_flow_full_stack", |b| {
        let mut sim = FatTreeSim::new(SimConfig {
            slots: 1 << 16,
            ..SimConfig::default()
        })
        .unwrap();
        b.iter(|| black_box(sim.run_flow().unwrap()));
    });
    group.finish();
}

/// `next_flow` on a k = 8 uniform generator (perfbench's tree) that has
/// already issued 2^16 flows (a dedup set of about 1 MB) and 2^21
/// (`ingest`'s flow count, a set of about 38 MB).
fn bench_flowgen(c: &mut Criterion) {
    use dta_topology::flowgen::{FlowGenerator, Skew};
    use dta_topology::FatTree;
    let mut group = c.benchmark_group("micro/flowgen");
    group.throughput(Throughput::Elements(1));
    for log2_issued in [16, 21] {
        let mut flowgen = FlowGenerator::new(FatTree::new(8).unwrap(), Skew::Uniform, 1);
        for _ in 0..1u64 << log2_issued {
            flowgen.next_flow();
        }
        group.bench_function(format!("next_flow_after_2^{log2_issued}"), |b| {
            b.iter(|| black_box(flowgen.next_flow()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hashing,
    bench_icrc,
    bench_slot_codec,
    bench_report_crafting,
    bench_cluster_query,
    bench_e2e_flow,
    bench_flowgen
);
criterion_main!(benches);
