//! Epoch-based historical storage (§5.2.1): troubleshooting yesterday's
//! outage from archived telemetry.
//!
//! ```sh
//! cargo run --release --example historical_epochs
//! ```
//!
//! A switch reports into a two-collector cluster whose NIC-registered
//! regions rotate every "minute": the live region is sealed, the
//! switch's collector rows are re-pointed at a fresh one, two sealed
//! epochs stay hot in DRAM and older ones drain to the slow persistent
//! tier. The operator then asks what a flow did three epochs ago.

use direct_telemetry_access::collector::CollectorCluster;
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::MappingKind;
use direct_telemetry_access::core::query::QueryOutcome;
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;

fn main() {
    let config = DartConfig::builder()
        .slots(1 << 12)
        .copies(2)
        .collectors(2)
        .mapping(MappingKind::Crc)
        .build()
        .unwrap();
    let egress_config = EgressConfig {
        copies: config.copies,
        slots: config.slots,
        layout: config.layout,
        collectors: config.collectors,
        udp_src_port: 49152,
        primitive: config.primitive,
    };
    let mut egress = DartEgress::new(SwitchIdentity::derived(17), egress_config, 17).unwrap();
    let mut cluster = CollectorCluster::new(config).unwrap();
    ControlPlane::new()
        .install_directory(&mut egress, &cluster.directory_for_switch())
        .unwrap();

    // Epoch 0: the outage happens — flow X loops through switch 17.
    // Epochs 1..3: life goes on, the same keys get new values. Flow Y's
    // epoch-3 report is still in flight when that epoch is sealed.
    let mut in_flight = Vec::new();
    for epoch in 0..=3u8 {
        let tags = if epoch == 0 {
            [17, 3]
        } else {
            [40 + epoch, 50 + epoch]
        };
        for (key, tag) in [b"flow:X", b"flow:Y"].into_iter().zip(tags) {
            in_flight = egress.craft(key, &[tag; 20]).unwrap();
            if epoch < 3 || key == b"flow:X" {
                for report in in_flight.drain(..) {
                    cluster.deliver(&report.frame);
                }
            }
        }
        println!("epoch {epoch}: telemetry written");
        cluster.rotate_epoch().unwrap();
        egress.repoint_collectors(&cluster.directory()).unwrap();
    }
    for report in in_flight {
        cluster.deliver(&report.frame);
    }

    let x_owner = cluster.collector(cluster.collector_of(b"flow:X")).unwrap();
    println!(
        "\nlive epoch {}; DRAM ring holds epochs {:?}; persistent tier holds {:?}",
        x_owner.epoch(),
        x_owner.dram_epochs(),
        x_owner.archived_epochs()
    );
    for index in 0..2 {
        let regions = cluster.collector(index).unwrap().registered_regions();
        println!("collector {index}: {regions} NIC-registered regions (1 live + 2 sealed)");
    }

    // Live query: what is flow X doing right now? (Nothing this epoch.)
    let live = cluster.try_query(b"flow:X").unwrap();
    println!("\ncurrent epoch: flow X answers {live:?}");

    // Historical query: what did flow X do during the outage (epoch 0)?
    match x_owner.query_epoch(0, b"flow:X").unwrap() {
        QueryOutcome::Answer(v) => println!(
            "epoch 0 (from the slow tier): flow X value tagged {} — the loop through switch 17",
            v[0]
        ),
        QueryOutcome::Empty => panic!("outage telemetry must be archived"),
    }

    // The epoch right before the present is still hot in DRAM, and the
    // report delivered after the flip landed in the epoch it addressed.
    let y_owner = cluster.collector(cluster.collector_of(b"flow:Y")).unwrap();
    match y_owner.query_epoch(3, b"flow:Y").unwrap() {
        QueryOutcome::Answer(v) => println!("epoch 3 (DRAM): flow Y value tagged {}", v[0]),
        QueryOutcome::Empty => panic!("epoch 3 is still in DRAM"),
    }
}
