//! Event logs in collector memory with the Append primitive.
//!
//! ```sh
//! cargo run --release --example event_log
//! ```
//!
//! Key-Write keeps *the latest* value per key; Append keeps *the last
//! W* — a per-listkey ring buffer in collector DRAM whose tail lives in
//! a switch register. Every event is one RDMA WRITE at the tail
//! position (no collector CPU), the entry carries its own sequence
//! number, and readers reassemble an ordered window statelessly — even
//! across tail wraparound. This is DTA's "Append" translation primitive,
//! the natural fit for event-style telemetry: congestion onsets, link
//! flaps, drop notifications.

use direct_telemetry_access::collector::CollectorCluster;
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::MappingKind;
use direct_telemetry_access::core::query::QueryOutcome;
use direct_telemetry_access::core::PrimitiveSpec;
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;

const SLOTS: u64 = 1 << 12;
const CAPACITY: u64 = 8; // events retained per listkey
const VALUE_LEN: usize = 20;

/// A fixed-width event record: kind tag + port + a timestamp-ish seq.
fn event(kind: &str, port: u16, at: u32) -> Vec<u8> {
    let mut value = vec![0u8; VALUE_LEN];
    let kind_bytes = kind.as_bytes();
    value[..kind_bytes.len().min(12)].copy_from_slice(&kind_bytes[..kind_bytes.len().min(12)]);
    value[12..14].copy_from_slice(&port.to_be_bytes());
    value[14..18].copy_from_slice(&at.to_be_bytes());
    value
}

fn decode(entry: &[u8]) -> String {
    let kind = String::from_utf8_lossy(&entry[..12]);
    let port = u16::from_be_bytes(entry[12..14].try_into().unwrap());
    let at = u32::from_be_bytes(entry[14..18].try_into().unwrap());
    format!("t={at:<4} port {port:<3} {}", kind.trim_end_matches('\0'))
}

fn main() {
    // Collector side: one region of rings instead of one region of
    // slots — same dumb memory, same zero-CPU ingest.
    let config = DartConfig::builder()
        .slots(SLOTS)
        .value_len(VALUE_LEN)
        .collectors(1)
        .mapping(MappingKind::Crc)
        .primitive(PrimitiveSpec::Append {
            ring_capacity: CAPACITY,
        })
        .build()
        .unwrap();
    let layout = config.layout;
    let copies = config.copies;
    println!(
        "region: {} rings x {} entries ({} B each) = {} B of collector DRAM",
        config.rings(),
        CAPACITY,
        config.entry_len(),
        config.bytes_per_collector()
    );

    let mut cluster = CollectorCluster::new(config).unwrap();
    let directory = cluster.directory_for_switch();

    // Switch side: the only extra state Append costs is one 4-byte tail
    // register per ring — still register-file state, never per-flow.
    let mut egress = DartEgress::new(
        SwitchIdentity::derived(1),
        EgressConfig {
            copies,
            slots: SLOTS,
            layout,
            collectors: 1,
            udp_src_port: 49152,
            primitive: PrimitiveSpec::Append {
                ring_capacity: CAPACITY,
            },
        },
        0x5EED,
    )
    .unwrap();
    ControlPlane::new()
        .install_directory(&mut egress, &directory)
        .unwrap();
    println!(
        "switch SRAM for DART state: {} B (incl. tail registers)\n",
        egress.sram_bytes()
    );

    // A stream of congestion events: 13 appends onto a ring of 8, so
    // the oldest five age out exactly as a ring should.
    let listkey = b"events:tor3:congestion";
    for at in 0..13u32 {
        let port = 1 + (at % 4) as u16;
        let kind = if at % 3 == 0 { "ecn-mark" } else { "q-depth" };
        let report = egress
            .craft_append(listkey, &event(kind, port, at))
            .unwrap();
        cluster.deliver(&report.frame);
    }
    // A second, sparse log lands in its own ring untouched.
    let flaps = b"events:tor3:link-flaps";
    for (at, port) in [(2u32, 7u16), (9, 7)] {
        let report = egress
            .craft_append(flaps, &event("link-flap", port, at))
            .unwrap();
        cluster.deliver(&report.frame);
    }

    // Operator: the query returns the retained window, oldest first.
    for key in [&listkey[..], &flaps[..]] {
        println!("query {:?}:", String::from_utf8_lossy(key));
        match cluster.try_query(key).expect("every collector is up") {
            QueryOutcome::Answer(log) => {
                for entry in log.chunks_exact(VALUE_LEN) {
                    println!("  {}", decode(entry));
                }
            }
            QueryOutcome::Empty => println!("  (no events)"),
        }
    }
    match cluster.try_query(listkey).expect("every collector is up") {
        QueryOutcome::Answer(log) => {
            let window = log.len() / VALUE_LEN;
            assert_eq!(window as u64, CAPACITY, "ring keeps exactly W events");
            println!("\n13 events appended, window of {window} retained ✓");
        }
        QueryOutcome::Empty => unreachable!("events were just appended"),
    }

    // The explain trace narrates the ring read: every probed position,
    // which entries were occupied, and why the window answered.
    let explain = cluster.query_explain(listkey);
    println!("\nexplain {:?}:", String::from_utf8_lossy(listkey));
    println!(
        "  routed to collector {} ({:?})",
        explain.key_collector, explain.routing
    );
    let store = explain.candidates[0].explain.as_ref().unwrap();
    println!(
        "  probed {} ring positions, {} occupied, {} checksum-matched",
        store.probes.len(),
        store.occupied(),
        store.matched()
    );
    println!("  decision: {}", store.reason.name());

    // Every append was one RDMA WRITE; the collector CPU only read.
    let nic = cluster.collector(0).unwrap().nic_counters();
    println!(
        "\nNIC: {} writes, {} of them appends, {} drops — zero collector CPU cycles",
        nic.writes,
        nic.appends,
        nic.dropped()
    );
    assert_eq!(nic.appends, 15);
}
