//! The paper's headline experiment: INT path tracing on a fat-tree.
//!
//! ```sh
//! cargo run --release --example int_fattree
//! ```
//!
//! Builds a k=4 fat-tree of DART switches, runs tens of thousands of
//! flows whose packets accumulate per-hop switch IDs (in-band INT), lets
//! the sink switches write the 160-bit path traces into a collector
//! cluster over simulated RoCEv2, and then answers operator queries —
//! reporting queryability by report age, exactly like Figure 4.

use direct_telemetry_access::core::query::QueryOutcome;
use direct_telemetry_access::rdma::link::FaultModel;
use direct_telemetry_access::telemetry::int_path::IntPathBackend;
use direct_telemetry_access::topology::flowgen::Skew;
use direct_telemetry_access::topology::sim::{FatTreeSim, ReportMode, SimConfig};

fn main() {
    let flows: u64 = 40_000;
    let slots: u64 = 1 << 15; // load factor ≈ 1.2 → visible aging

    let mut sim = FatTreeSim::new(SimConfig {
        k: 4,
        slots,
        copies: 2,
        collectors: 2,
        fault: FaultModel::Bernoulli { loss: 0.001 },
        skew: Skew::Zipf(1.05), // skewed datacenter traffic
        mode: ReportMode::AllCopies,
        seed: 0x1A7,
        ..SimConfig::default()
    })
    .expect("valid simulation config");

    println!(
        "fat-tree k=4: {} switches, {} hosts; {} collectors x {} slots",
        sim.tree().switch_count(),
        sim.tree().host_count(),
        2,
        slots
    );

    println!("running {flows} flows through the full pipeline…");
    sim.run_flows(flows).expect("flows run");

    // Query one specific flow and decode its path.
    let probe = sim.run_flow().expect("one more flow");
    match sim.try_query_flow(&probe).expect("every collector is up") {
        QueryOutcome::Answer(value) => {
            let path = IntPathBackend::decode_path(&value).expect("valid path bytes");
            println!("\nexample query — flow {probe}");
            println!("  traversed switches: {path:?} ({} hops)", path.len());
        }
        QueryOutcome::Empty => println!("probe flow aged out already"),
    }

    // The Figure 4 view: queryability by report age.
    let report = sim.query_all(10);
    println!("\nqueryability by report age (oldest → newest):");
    for (i, rate) in report.age_buckets.iter().enumerate() {
        let bar = "#".repeat((rate * 40.0) as usize);
        println!("  decile {i}: {:5.1}% {bar}", rate * 100.0);
    }
    println!(
        "\noverall: {:.1}% of {} flows answered correctly ({} empty, {} wrong)",
        report.success_rate() * 100.0,
        report.total(),
        report.empty,
        report.error
    );
    println!(
        "link: {} frames sent, {} lost; NICs executed {} RDMA WRITEs",
        report.link.sent, report.link.dropped, report.nic_writes
    );
    // Keys shard over both collectors, so the effective table is
    // collectors × slots.
    let alpha = report.total() as f64 / (2.0 * slots as f64);
    println!(
        "theory at load α={alpha:.2}: {:.1}% average",
        direct_telemetry_access::analysis::average_query_success(alpha, 2) * 100.0
    );
}
