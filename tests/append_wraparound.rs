//! Append wraparound: the switch-held tail register wraps the full
//! `u32` space while the QP's 24-bit PSN wraps underneath it, both
//! mid-burst.
//!
//! The contract mirrors `psn_wraparound.rs` for the ring layer: a wrap
//! is one more increment, never a rewind. The one entry the design
//! sacrifices is the sequence-number-zero entry at the `u32` tail wrap
//! — stored seq 0 is indistinguishable from "empty", so the reader
//! drops it as a torn head (never serves it wrong).

use direct_telemetry_access::collector::CollectorCluster;
use direct_telemetry_access::core::config::DartConfig;
use direct_telemetry_access::core::hash::{AddressMapping, CrcMapping, MappingKind};
use direct_telemetry_access::core::query::QueryOutcome;
use direct_telemetry_access::core::PrimitiveSpec;
use direct_telemetry_access::switch::control_plane::ControlPlane;
use direct_telemetry_access::switch::egress::{DartEgress, EgressConfig};
use direct_telemetry_access::switch::SwitchIdentity;
use direct_telemetry_access::topology::sim::{FatTreeSim, SimConfig};
use direct_telemetry_access::wire::roce::Psn;

const VALUE_LEN: usize = 20;
const SLOTS: u64 = 1024;
const CAPACITY: u64 = 4;
/// Ring directory size: a region of `SLOTS` entries holds
/// `SLOTS / CAPACITY` rings.
const RINGS: u64 = SLOTS / CAPACITY;

/// One Append egress + single-collector cluster whose switch QP starts
/// at `start_psn`.
fn rig(start_psn: Psn) -> (DartEgress, CollectorCluster) {
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
    let mut cluster = CollectorCluster::new(config).unwrap();
    let directory = cluster.directory_for_switch_from(start_psn);
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
        7,
    )
    .unwrap();
    ControlPlane::new()
        .install_directory(&mut egress, &directory)
        .unwrap();
    (egress, cluster)
}

/// Append `count` distinguishable entries to `listkey`, delivering every
/// frame; returns the values in append order.
fn burst(
    egress: &mut DartEgress,
    cluster: &mut CollectorCluster,
    listkey: &[u8],
    count: u8,
) -> Vec<Vec<u8>> {
    (1..=count)
        .map(|i| {
            let value = vec![i; VALUE_LEN];
            let report = egress.craft_append(listkey, &value).unwrap();
            cluster.deliver(&report.frame);
            value
        })
        .collect()
}

/// The tail register wraps `u32::MAX → 0` mid-burst: the reader keeps a
/// correctly ordered window and sacrifices exactly the seq-0 entry
/// (aged out, never wrong).
#[test]
fn tail_wrap_sacrifices_only_the_zero_sequence_entry() {
    let (mut egress, mut cluster) = rig(Psn::new(0));
    let listkey = b"wrapping-event-log";
    let ring = CrcMapping::new().slot(listkey, 0, RINGS);

    // Pre-wind the tail register next to the modulus, as a long-lived
    // switch would arrive there: the burst stores seqs
    // MAX-1, MAX, 0, 1, 2, 3.
    egress.set_ring_tail(0, ring, u32::MAX - 2).unwrap();
    let values = burst(&mut egress, &mut cluster, listkey, 6);

    // The switch's register wrapped with the burst.
    assert_eq!(egress.ring_tail(0, ring), Some(3));

    // Seqs 1..=3 survive (the newest lap); the seq-0 entry is the torn
    // head the wrap costs, and MAX-1/MAX were lapped by seqs 2 and 3.
    match cluster.try_query(listkey).unwrap() {
        QueryOutcome::Answer(log) => {
            let window: Vec<&[u8]> = log.chunks_exact(VALUE_LEN).collect();
            assert_eq!(window.len(), 3, "exactly the seq-0 entry is lost");
            assert_eq!(window[0], values[3].as_slice());
            assert_eq!(window[1], values[4].as_slice());
            assert_eq!(window[2], values[5].as_slice());
        }
        QueryOutcome::Empty => panic!("the post-wrap window must be readable"),
    }

    // The seq-0 entry's position reads as unoccupied — dropped, not
    // misattributed.
    let explain = cluster.query_explain(listkey);
    let store = explain.candidates[0].explain.as_ref().unwrap();
    let torn: Vec<_> = store.probes.iter().filter(|p| !p.occupied).collect();
    assert_eq!(torn.len(), 1, "one ring position holds the seq-0 entry");
}

/// The acceptance scenario: the 24-bit PSN and the ring tail wrap in
/// the *same* burst, and neither corrupts the other — no frame is
/// misjudged stale, the window stays ordered.
#[test]
fn psn_and_tail_wrap_together_mid_burst() {
    let (mut egress, mut cluster) = rig(Psn::new(Psn::MODULUS - 3));
    let listkey = b"double-wrap-log";
    let ring = CrcMapping::new().slot(listkey, 0, RINGS);
    egress.set_ring_tail(0, ring, u32::MAX - 2).unwrap();

    // 6 frames spanning PSNs 0xFF_FFFD..=0x000002 and seqs MAX-1..=3.
    let values = burst(&mut egress, &mut cluster, listkey, 6);

    // Every frame accepted in sequence: no write lost, no stale verdict.
    let nic = cluster.collector(0).unwrap().nic_counters();
    assert_eq!(nic.writes, 6);
    assert_eq!(nic.appends, 6);
    assert_eq!(nic.psn, 0, "PSN wrap misread as stale frames");

    // Both registers wrapped together.
    assert_eq!(egress.ring_tail(0, ring), Some(3));
    let next = egress.craft_append(listkey, &[9; VALUE_LEN]).unwrap();
    assert_eq!(next.psn, Psn::new(3));

    // The window ordering survived the double wrap (seq-0 sacrificed,
    // then seq 4 = value 9 pushed seq 1 out of the capacity-4 window).
    cluster.deliver(&next.frame);
    match cluster.try_query(listkey).unwrap() {
        QueryOutcome::Answer(log) => {
            let window: Vec<&[u8]> = log.chunks_exact(VALUE_LEN).collect();
            assert_eq!(window.len(), 4);
            assert_eq!(window[0], values[3].as_slice());
            assert_eq!(window[1], values[4].as_slice());
            assert_eq!(window[2], values[5].as_slice());
            assert_eq!(window[3], [9u8; VALUE_LEN]);
        }
        QueryOutcome::Empty => panic!("the double-wrap window must be readable"),
    }
}

/// End to end: a fat-tree Append run whose switch QPs all start 16
/// frames shy of the PSN modulus, mirroring
/// `fattree_run_crosses_the_wrap_unharmed` for the ring primitive.
#[test]
fn fattree_append_run_crosses_the_psn_wrap_unharmed() {
    let mut sim = FatTreeSim::new(SimConfig {
        primitive: PrimitiveSpec::Append { ring_capacity: 4 },
        slots: 1 << 12,
        initial_psn: Psn::MODULUS - 16,
        seed: 0x24B1,
        ..SimConfig::default()
    })
    .unwrap();
    sim.run_flows(100).unwrap();
    let report = sim.query_all(2);
    assert_eq!(report.error, 0);
    assert!(
        report.success_rate() >= 0.9,
        "success {}",
        report.success_rate()
    );
    // No frame was misjudged stale by the wrap.
    assert_eq!(sim.cluster().collector(0).unwrap().nic_counters().psn, 0);
}
