//! `FatTreeSim::query_all` reports pinned for four configurations, one
//! per way the simulator produces a flow's true value: Key-Write with
//! every copy, Key-Write with per-packet reports over a lossy link,
//! Append, and Key-Increment under a crash-and-recover fault. Ground
//! truth is bookkeeping, so however it is stored, every count and age
//! bucket must read as pinned here.

use dta_core::primitive::PrimitiveSpec;
use dta_rdma::link::FaultModel;
use dta_topology::sim::{CollectorFault, FatTreeSim, FaultKind, ReportMode, SimConfig, SimReport};

const FLOWS: u64 = 6_000;

/// The pinned part of a report.
#[derive(Debug, PartialEq)]
struct Pinned {
    correct: u64,
    empty: u64,
    error: u64,
    unreachable: u64,
    nic_writes: u64,
    nic_atomics: u64,
    link_sent: u64,
    link_dropped: u64,
    age_buckets: Vec<f64>,
}

impl From<SimReport> for Pinned {
    fn from(report: SimReport) -> Pinned {
        Pinned {
            correct: report.correct,
            empty: report.empty,
            error: report.error,
            unreachable: report.unreachable,
            nic_writes: report.nic_writes,
            nic_atomics: report.nic_atomics,
            link_sent: report.link.sent,
            link_dropped: report.link.dropped,
            age_buckets: report.age_buckets,
        }
    }
}

/// Four collectors of 2^11 slots on a k = 8 tree: 6,000 flows load them
/// enough that the age buckets fall from oldest to newest.
fn report(primitive: PrimitiveSpec, mode: ReportMode, fault: FaultModel) -> Pinned {
    report_with_faults(primitive, mode, fault, Vec::new())
}

fn report_with_faults(
    primitive: PrimitiveSpec,
    mode: ReportMode,
    fault: FaultModel,
    faults: Vec<CollectorFault>,
) -> Pinned {
    let mut sim = FatTreeSim::new(SimConfig {
        k: 8,
        primitive,
        slots: 1 << 11,
        collectors: 4,
        fault,
        mode,
        faults,
        seed: 0x51A7,
        ..SimConfig::default()
    })
    .unwrap();
    sim.run_flows(FLOWS).unwrap();
    assert_eq!(sim.flows_run(), FLOWS);
    Pinned::from(sim.query_all(8))
}

#[test]
fn key_write_all_copies_report_is_pinned() {
    let got = report(
        PrimitiveSpec::KeyWrite,
        ReportMode::AllCopies,
        FaultModel::Perfect,
    );
    assert_eq!(
        got,
        Pinned {
            correct: 4332,
            empty: 1668,
            error: 0,
            unreachable: 0,
            nic_writes: 12_000,
            nic_atomics: 0,
            link_sent: 12_000,
            link_dropped: 0,
            age_buckets: vec![
                0.43333333333333335,
                0.49333333333333335,
                0.5733333333333334,
                0.6706666666666666,
                0.7893333333333333,
                0.8773333333333333,
                0.9533333333333334,
                0.9853333333333333,
            ],
        }
    );
}

#[test]
fn key_write_per_packet_report_is_pinned() {
    let got = report(
        PrimitiveSpec::KeyWrite,
        ReportMode::PerPacket(4),
        FaultModel::Bernoulli { loss: 0.1 },
    );
    assert_eq!(
        got,
        Pinned {
            correct: 4284,
            empty: 1716,
            error: 0,
            unreachable: 0,
            nic_writes: 21_547,
            nic_atomics: 0,
            link_sent: 24_000,
            link_dropped: 2453,
            age_buckets: vec![
                0.43333333333333335,
                0.5053333333333333,
                0.58,
                0.6746666666666666,
                0.772,
                0.8573333333333333,
                0.9146666666666666,
                0.9746666666666667,
            ],
        }
    );
}

#[test]
fn append_report_is_pinned() {
    let got = report(
        PrimitiveSpec::Append { ring_capacity: 4 },
        ReportMode::AllCopies,
        FaultModel::Perfect,
    );
    assert_eq!(
        got,
        Pinned {
            correct: 2192,
            empty: 3808,
            error: 0,
            unreachable: 0,
            nic_writes: 6000,
            nic_atomics: 0,
            link_sent: 6000,
            link_dropped: 0,
            age_buckets: vec![
                0.05466666666666667,
                0.11866666666666667,
                0.192,
                0.244,
                0.35333333333333333,
                0.472,
                0.6213333333333333,
                0.8666666666666667,
            ],
        }
    );
}

#[test]
fn key_increment_crash_and_recover_report_is_pinned() {
    let got = report_with_faults(
        PrimitiveSpec::KeyIncrement,
        ReportMode::PerPacket(4),
        FaultModel::Perfect,
        vec![CollectorFault {
            index: 1,
            after_frames: 12_000,
            kind: FaultKind::Crash,
            recover_after: Some(16_000),
        }],
    );
    assert_eq!(
        got,
        Pinned {
            correct: 2690,
            empty: 69,
            error: 3241,
            unreachable: 0,
            nic_writes: 0,
            nic_atomics: 48_944,
            link_sent: 48_000,
            link_dropped: 0,
            age_buckets: vec![
                0.424,
                0.44533333333333336,
                0.37333333333333335,
                0.36933333333333335,
                0.42933333333333334,
                0.5186666666666667,
                0.5186666666666667,
                0.508,
            ],
        }
    );
}
