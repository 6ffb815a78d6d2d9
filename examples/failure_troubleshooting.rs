//! Troubleshooting a switch failure with event-triggered DART.
//!
//! ```sh
//! cargo run --release --example failure_troubleshooting
//! ```
//!
//! A live fat-tree carries long-running flows under event-triggered
//! collection (reports only on path changes, §2). A core switch dies;
//! ECMP fails over; exactly the affected flows re-report, and the
//! operator's path queries flip from the old route to the new one —
//! the whole diagnosis without a single collector-CPU ingest cycle.

use direct_telemetry_access::core::query::QueryOutcome;
use direct_telemetry_access::telemetry::int_path::IntPathBackend;
use direct_telemetry_access::topology::sim::{FatTreeSim, SimConfig};
use direct_telemetry_access::wire::FiveTuple;

/// The path an operator query returns for `flow`.
fn queried_path(sim: &FatTreeSim, flow: &FiveTuple) -> Option<Vec<u32>> {
    match sim.try_query_flow(flow).expect("the collector is up") {
        QueryOutcome::Answer(value) => Some(IntPathBackend::decode_path(&value).expect("a path")),
        QueryOutcome::Empty => None,
    }
}

fn main() {
    let mut sim = FatTreeSim::new(SimConfig {
        slots: 1 << 14,
        seed: 0xFA11,
        ..SimConfig::default()
    })
    .unwrap();
    // 500 long-lived flows, each reported once as it starts.
    sim.run_flows(500).unwrap();

    // Warm-up: the sinks' event filters see every flow for the first time.
    let first = sim.tick().unwrap();
    println!(
        "tick 1: {} packets, {} reports (first sighting of every flow)",
        first.candidates, first.reports
    );
    for tick in 2..=5 {
        let stats = sim.tick().unwrap();
        println!(
            "tick {tick}: {} packets, {} reports (steady state; residual reports \
             are filter-cell collisions — extra reports, never missed changes)",
            stats.candidates, stats.reports
        );
    }

    // Find a busy core switch and watch one of its flows.
    let (watched, route) = sim
        .routes()
        .find(|(_, route)| route.len() == 5)
        .expect("inter-pod traffic exists");
    let victim_core = route[2];
    let before = queried_path(&sim, &watched).expect("warmed up");
    println!("\nwatched flow {watched}");
    println!("  path before failure: {before:?}");

    // The incident.
    println!("\n*** core switch {victim_core} fails ***\n");
    sim.fail_switch(victim_core).unwrap();
    let failover_tick = sim.tick().unwrap();
    println!(
        "failover tick: {} packets, {} reports (only affected flows re-report)",
        failover_tick.candidates, failover_tick.reports
    );

    let after = queried_path(&sim, &watched).expect("re-reported");
    println!("  path after failover:  {after:?}");
    assert!(!after.contains(&victim_core));
    assert_ne!(before, after);

    let quiet = sim.tick().unwrap();
    println!(
        "next tick: {} reports (network re-converged)",
        quiet.reports
    );

    let totals = sim.tick_totals();
    println!(
        "\ntotals: {} packets -> {} reports ({:.2}% of per-packet volume)",
        totals.candidates,
        totals.reports,
        totals.reports as f64 / totals.candidates as f64 * 100.0
    );
}
