//! §7 extension: flow counters maintained *in collector memory* with
//! RDMA FETCH_ADD — no counter state on the switch at all.
//!
//! ```sh
//! cargo run --release --example flow_counters
//! ```
//!
//! "Fetch & Add can be used to implement flow-counters directly in
//! collectors' memory (saving resources at switches)". Each packet of a
//! flow triggers one FETCH_ADD onto the flow's counter word; the
//! collector NIC executes the atomics and ACKs (RC transport), and the
//! operator reads totals straight out of the counter region.
//!
//! Part 1 shows the raw mechanism (hand-built atomic frames against one
//! NIC); part 2 the same workload through the Key-Increment translation
//! primitive — the switch egress crafts redundant FETCH_ADDs, the
//! cluster commits them, and the min-over-copies query answers with an
//! explain trace.

use direct_telemetry_access::collector::CollectorCluster;
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::{AddressMapping, MappingKind, Mix64Mapping};
use direct_telemetry_access::core::primitive::increment_encode;
use direct_telemetry_access::core::query::QueryOutcome;
use direct_telemetry_access::core::PrimitiveSpec;
use direct_telemetry_access::rdma::mr::AccessFlags;
use direct_telemetry_access::rdma::nic::{build_roce_frame, RxAction};
use direct_telemetry_access::rdma::verbs::Device;
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;
use direct_telemetry_access::wire::roce::{AtomicEthRepr, BthRepr, Opcode, Psn, RoceRepr};
use direct_telemetry_access::wire::{ethernet, ipv4};

const COUNTERS: u64 = 1 << 12; // 4096 64-bit counters
const BASE_VA: u64 = 0x9000_0000;

fn main() {
    // ── Part 1: the raw mechanism ────────────────────────────────────
    // Collector: one counter region + one RC QP per reporting switch.
    let mut device = Device::open(
        ethernet::Address([0x02, 0xC0, 0, 0, 0, 1]),
        ipv4::Address([10, 200, 0, 1]),
    );
    let (rkey, handle) = device
        .register_region(
            BASE_VA,
            (COUNTERS * 8) as usize,
            AccessFlags::DART_COLLECTOR,
        )
        .unwrap();
    let qpn = device.create_rc_qp(Psn::new(0), 0x77).unwrap();

    // Switch side: stateless mapping from flow key to counter word.
    let mapping = Mix64Mapping::new(0xC0DE);
    let counter_va = |key: &[u8]| BASE_VA + mapping.slot(key, 0, COUNTERS) * 8;

    let sw_mac = ethernet::Address([0x02, 0xDA, 0, 0, 0, 9]);
    let sw_ip = ipv4::Address([10, 128, 0, 9]);

    // Traffic: three flows with different packet counts and byte sizes.
    let traffic: &[(&[u8], u64, u64)] = &[
        (b"flow:alpha", 1000, 1500),
        (b"flow:beta", 250, 64),
        (b"flow:gamma", 1, 9000),
    ];

    let mut psn = 0u32;
    let mut acks = 0u64;
    for &(key, packets, bytes) in traffic {
        for _ in 0..packets {
            // One FETCH_ADD per packet: add the packet's byte count.
            let packet = RoceRepr::FetchAdd {
                bth: BthRepr {
                    opcode: Opcode::RcFetchAdd,
                    solicited: false,
                    migration: true,
                    pad_count: 0,
                    partition_key: 0xFFFF,
                    dest_qp: qpn,
                    ack_request: true,
                    psn,
                },
                atomic: AtomicEthRepr {
                    virtual_addr: counter_va(key),
                    rkey,
                    swap_or_add: bytes,
                    compare: 0,
                },
            };
            psn += 1;
            let frame = build_roce_frame(
                sw_mac,
                device.nic().mac(),
                sw_ip,
                device.nic().ip(),
                49152,
                &packet,
            );
            let outcome = device.nic_mut().handle_frame(&frame);
            match outcome.action {
                RxAction::AtomicExecuted { .. } => {}
                other => panic!("atomic rejected: {other:?}"),
            }
            if outcome.response.is_some() {
                acks += 1;
            }
        }
    }
    println!(
        "executed {} FETCH_ADDs ({} ACKed) — zero counter state on the switch",
        psn, acks
    );

    // Operator: read the totals straight out of collector memory.
    println!("\nper-flow byte counters (read from the counter region):");
    for &(key, packets, bytes) in traffic {
        let offset = (counter_va(key) - BASE_VA) as usize;
        let total =
            handle.with(|mem| u64::from_be_bytes(mem[offset..offset + 8].try_into().unwrap()));
        println!(
            "  {:<12} {:>10} B (expected {:>10})",
            String::from_utf8_lossy(key),
            total,
            packets * bytes
        );
        assert_eq!(total, packets * bytes);
    }

    let counters = device.nic().counters();
    println!(
        "\nNIC: {} fetch_adds, {} responses, {} drops",
        counters.fetch_adds,
        counters.responses,
        counters.dropped()
    );

    // ── Part 2: the Key-Increment primitive ──────────────────────────
    // The same counters through the full pipeline: the builder forces
    // 8-byte counter words, the egress crafts one RC FETCH_ADD per
    // redundant copy, and the query takes the minimum over copies — a
    // Count-Min read: a collision inflates a copy, so the minimum
    // overcounts only when every copy collided.
    let config = DartConfig::builder()
        .slots(COUNTERS)
        .copies(2)
        .collectors(1)
        .mapping(MappingKind::Crc)
        .primitive(PrimitiveSpec::KeyIncrement)
        .build()
        .unwrap();
    let layout = config.layout;
    let copies = config.copies;
    let mut cluster = CollectorCluster::new(config).unwrap();
    let directory = cluster.directory_for_switch();
    let mut egress = DartEgress::new(
        SwitchIdentity::derived(1),
        EgressConfig {
            copies,
            slots: COUNTERS,
            layout,
            collectors: 1,
            udp_src_port: 49152,
            primitive: PrimitiveSpec::KeyIncrement,
        },
        0x5EED,
    )
    .unwrap();
    ControlPlane::new()
        .install_directory(&mut egress, &directory)
        .unwrap();

    println!("\n── Key-Increment primitive (switch egress → cluster) ──");
    for &(key, packets, bytes) in traffic {
        for _ in 0..packets {
            for report in egress.craft(key, &increment_encode(bytes)).unwrap() {
                cluster.deliver(&report.frame);
            }
        }
    }

    for &(key, packets, bytes) in traffic {
        match cluster.try_query(key).expect("every collector is up") {
            QueryOutcome::Answer(word) => {
                let total = u64::from_be_bytes(word.try_into().unwrap());
                println!(
                    "  {:<12} {:>10} B (expected {:>10})",
                    String::from_utf8_lossy(key),
                    total,
                    packets * bytes
                );
                assert_eq!(total, packets * bytes);
            }
            QueryOutcome::Empty => panic!("counter was just incremented"),
        }
    }

    // The explain trace narrates the minimum read: both counter
    // words probed, the minimum answered.
    let explain = cluster.query_explain(traffic[0].0);
    println!("\nexplain {:?}:", String::from_utf8_lossy(traffic[0].0));
    println!(
        "  routed to collector {} ({:?})",
        explain.key_collector, explain.routing
    );
    let store = explain.candidates[0].explain.as_ref().unwrap();
    for probe in &store.probes {
        println!(
            "  copy {} -> counter word {} (occupied: {})",
            probe.copy, probe.slot, probe.occupied
        );
    }
    println!("  decision: {} (minimum over copies)", store.reason.name());

    let nic = cluster.collector(0).unwrap().nic_counters();
    println!(
        "\ncluster NIC: {} fetch_adds, {} writes — counters live in collector DRAM only",
        nic.fetch_adds, nic.writes
    );
    assert_eq!(nic.writes, 0, "Key-Increment commits through atomics only");
}
