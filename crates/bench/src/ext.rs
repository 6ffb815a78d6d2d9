//! Extension experiments: the §5.1/§7 future-work mechanisms this repo
//! implements, measured.

use dta_core::adaptive::{AdaptiveConfig, AdaptiveN};
use dta_rdma::verbs::RemoteEndpoint;
use dta_switch::egress::{DartEgress, EgressConfig};
use dta_switch::SwitchIdentity;
use dta_topology::sim::{FatTreeSim, SimConfig};
use dta_wire::dart::{ChecksumWidth, SlotLayout};
use dta_wire::roce::Psn;
use dta_wire::{ethernet, ipv4};

use crate::report::{pct, table};

/// Adaptive-N ablation across a load ramp: the §4 success rate of the
/// adaptive choice vs every fixed N.
pub fn adaptive_table() -> String {
    let mut controller = AdaptiveN::new(AdaptiveConfig::default(), 2).expect("valid config");
    let mut rows = Vec::new();
    let mut adaptive_total = 0.0;
    let mut fixed_totals = [0.0f64; 4];
    for step in 1..=30 {
        let alpha = step as f64 * 0.1;
        let n = controller.observe(alpha);
        let adaptive_rate = dta_analysis::average_query_success(alpha, n);
        adaptive_total += adaptive_rate;
        for (i, total) in fixed_totals.iter_mut().enumerate() {
            *total += dta_analysis::average_query_success(alpha, i as u32 + 1);
        }
        if step % 5 == 0 {
            rows.push(vec![
                format!("{alpha:.1}"),
                format!("N={n}"),
                pct(adaptive_rate),
                pct(dta_analysis::average_query_success(alpha, 2)),
            ]);
        }
    }
    rows.push(vec![
        "mean".into(),
        format!("({} switches)", controller.switches()),
        pct(adaptive_total / 30.0),
        pct(fixed_totals[1] / 30.0),
    ]);
    table(
        "§5.1 — adaptive N across a load ramp (vs fixed N=2)",
        &["load α", "adaptive", "success", "fixed N=2"],
        &rows,
    )
}

/// Native multi-write vs standard RDMA: bytes on the wire per key.
pub fn native_table() -> String {
    let endpoint = RemoteEndpoint {
        mac: ethernet::Address([2, 0, 0, 0, 0, 2]),
        ip: ipv4::Address([10, 0, 0, 2]),
        qpn: 0x100,
        rkey: 0x1000,
        base_va: 0,
        region_len: 24 << 16,
        start_psn: Psn::new(0),
    };
    let mut rows = Vec::new();
    for copies in [2u8, 3, 4] {
        let mut egress = DartEgress::new(
            SwitchIdentity::derived(1),
            EgressConfig {
                copies,
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
        .expect("valid config");
        egress.install_collector(0, endpoint).expect("fits");
        let writes: usize = (0..copies)
            .map(|c| {
                egress
                    .craft_report_copy(b"key", &[0u8; 20], c)
                    .expect("valid")
                    .frame
                    .len()
            })
            .sum();
        let multi = egress
            .craft_multiwrite_report(b"key", &[0u8; 20])
            .expect("valid")
            .frame
            .len();
        rows.push(vec![
            format!("N={copies}"),
            format!("{writes} B"),
            format!("{multi} B"),
            format!("-{:.0}%", (1.0 - multi as f64 / writes as f64) * 100.0),
        ]);
    }
    table(
        "§7 — native multi-write vs N standard WRITEs (wire bytes/key)",
        &["redundancy", "N × WRITE", "multi-write", "saving"],
        &rows,
    )
}

/// Event-triggered collection: report volume vs per-packet, plus the
/// failure-burst behaviour, on 300 long-lived flows of a k = 4
/// `FatTreeSim`.
pub fn events_table(seed: u64) -> String {
    // `FatTreeSim` seeds its flow generator with `seed ^ 0xF10`, so the
    // 300 flows are those of flow-generator seed `seed ^ 0xF`, the
    // population this table has always used.
    let mut sim = FatTreeSim::new(SimConfig {
        slots: 1 << 14,
        seed: seed ^ 0xF ^ 0xF10,
        ..SimConfig::default()
    })
    .expect("valid sim");
    sim.run_flows(300).expect("valid flows");
    let mut rows = Vec::new();
    let first = sim.tick().expect("Key-Write ticks");
    rows.push(vec![
        "tick 1 (cold)".into(),
        first.candidates.to_string(),
        first.reports.to_string(),
    ]);
    let mut steady = 0u64;
    for _ in 0..20 {
        steady += sim.tick().expect("Key-Write ticks").reports;
    }
    rows.push(vec![
        "ticks 2-21 (steady)".into(),
        (20 * first.candidates).to_string(),
        steady.to_string(),
    ]);
    // Fail the core switch of the oldest inter-pod flow.
    let core = sim
        .routes()
        .map(|(_, route)| route)
        .find(|route| route.len() == 5)
        .expect("inter-pod flows exist")[2];
    sim.fail_switch(core).expect("core switches can fail");
    let burst = sim.tick().expect("Key-Write ticks");
    rows.push(vec![
        format!("failure of switch {core}"),
        burst.candidates.to_string(),
        burst.reports.to_string(),
    ]);
    let after = sim.tick().expect("Key-Write ticks");
    rows.push(vec![
        "post-failover".into(),
        after.candidates.to_string(),
        after.reports.to_string(),
    ]);
    let totals = sim.tick_totals();
    rows.push(vec![
        "total".into(),
        totals.candidates.to_string(),
        format!(
            "{} ({:.1}% of per-packet)",
            totals.reports,
            totals.reports as f64 / totals.candidates as f64 * 100.0
        ),
    ]);
    table(
        "§2 — event-triggered collection (packets vs reports)",
        &["phase", "packets", "reports"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        assert!(adaptive_table().contains("adaptive"));
        assert!(native_table().contains("multi-write"));
        assert!(events_table(0xE).contains("steady"));
    }

    #[test]
    fn native_saving_grows_with_n() {
        // N=4 saving must exceed N=2 saving (more packets amortized).
        let saving = |copies: u8| -> f64 {
            let endpoint = RemoteEndpoint {
                mac: ethernet::Address([2, 0, 0, 0, 0, 2]),
                ip: ipv4::Address([10, 0, 0, 2]),
                qpn: 0x100,
                rkey: 0x1000,
                base_va: 0,
                region_len: 24 << 16,
                start_psn: Psn::new(0),
            };
            let mut egress = DartEgress::new(
                SwitchIdentity::derived(1),
                EgressConfig {
                    copies,
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
            egress.install_collector(0, endpoint).unwrap();
            let writes: usize = (0..copies)
                .map(|c| {
                    egress
                        .craft_report_copy(b"key", &[0u8; 20], c)
                        .unwrap()
                        .frame
                        .len()
                })
                .sum();
            let multi = egress
                .craft_multiwrite_report(b"key", &[0u8; 20])
                .unwrap()
                .frame
                .len();
            1.0 - multi as f64 / writes as f64
        };
        assert!(saving(4) > saving(2) + 0.1);
    }
}
