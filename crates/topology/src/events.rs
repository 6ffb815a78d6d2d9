//! Event-triggered collection on a live network (§2's operating regime).
//!
//! Production INT does not report per packet: switches detect *events* —
//! here, path changes — and report only those, which is what brings the
//! per-switch report rate down to the "few million per second" the paper
//! budgets for. [`EventSim`] models that steady state: a population of
//! long-lived flows sends packets every tick; each sink runs a
//! [`dta_switch::event_filter::EventFilter`]; only first sightings and
//! path changes (e.g. after a switch failure triggers ECMP failover)
//! reach the collectors.
//!
//! The punchline experiment: fail a core switch mid-run and watch (a)
//! the report volume spike for exactly the affected flows, and (b)
//! operator queries return the *new* paths.

use std::collections::HashMap;

use dta_collector::CollectorCluster;
use dta_core::config::DartConfig;
use dta_core::hash::MappingKind;
use dta_core::query::QueryOutcome;
use dta_switch::control_plane::ControlPlane;
use dta_switch::egress::{DartEgress, EgressConfig};
use dta_switch::event_filter::EventFilter;
use dta_switch::SwitchIdentity;
use dta_telemetry::int_path::PATH_HOPS;
use dta_wire::dart::{ChecksumWidth, SlotLayout};
use dta_wire::int::{HopMetadata, IntStack};
use dta_wire::FiveTuple;

use crate::fattree::FatTree;
use crate::flowgen::{Flow, FlowGenerator, Skew};
use crate::sim::SimError;

/// Per-tick reporting statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Report candidates (one per flow packet reaching its sink).
    pub candidates: u64,
    /// Reports actually emitted (× `N` RDMA WRITEs each).
    pub reports: u64,
}

/// A fat-tree under event-triggered DART collection.
pub struct EventSim {
    tree: FatTree,
    cluster: CollectorCluster,
    egresses: HashMap<u32, DartEgress>,
    filters: HashMap<u32, EventFilter>,
    failed: Vec<u32>,
    flows: Vec<Flow>,
    copies: u8,
    totals: TickStats,
}

impl EventSim {
    /// Build the system: `k`-ary tree, one collector with `slots` slots.
    pub fn new(k: u8, slots: u64, seed: u64) -> Result<EventSim, SimError> {
        let tree = FatTree::new(k)?;
        let copies = 2u8;
        let layout = SlotLayout {
            checksum: ChecksumWidth::B32,
            value_len: PATH_HOPS * 4,
        };
        let config = DartConfig::builder()
            .slots(slots)
            .copies(copies)
            .value_len(layout.value_len)
            .mapping(MappingKind::Crc)
            .build()?;
        let mut cluster = CollectorCluster::new(config)?;

        let mut egresses = HashMap::new();
        let mut filters = HashMap::new();
        for id in tree.all_switch_ids() {
            let mut egress = DartEgress::new(
                SwitchIdentity::derived(id),
                EgressConfig {
                    copies,
                    slots,
                    layout,
                    collectors: 1,
                    udp_src_port: 49152,
                    primitive: dta_core::PrimitiveSpec::KeyWrite,
                },
                seed ^ u64::from(id),
            )
            .map_err(|e| SimError::Switch(dta_switch::int_transit::IntError::Switch(e)))?;
            let directory = cluster.directory_for_switch();
            ControlPlane::new()
                .install_directory(&mut egress, &directory)
                .map_err(|e| SimError::Switch(dta_switch::int_transit::IntError::Switch(e)))?;
            egresses.insert(id, egress);
            filters.insert(id, EventFilter::new(1 << 14));
        }

        Ok(EventSim {
            tree,
            cluster,
            egresses,
            filters,
            failed: Vec::new(),
            flows: Vec::new(),
            copies,
            totals: TickStats::default(),
        })
    }

    /// Register `n` long-lived flows.
    pub fn add_flows(&mut self, n: u64, seed: u64) {
        let mut generator = FlowGenerator::new(self.tree, Skew::Uniform, seed);
        for _ in 0..n {
            self.flows.push(generator.next_flow());
        }
    }

    /// The registered flows.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Fail a switch: subsequent packets fail over around it.
    pub fn fail_switch(&mut self, id: u32) {
        if !self.failed.contains(&id) {
            self.failed.push(id);
        }
    }

    /// Totals across all ticks.
    pub fn totals(&self) -> TickStats {
        self.totals
    }

    /// The path a flow currently takes.
    pub fn current_path(&self, flow: &Flow) -> Vec<u32> {
        self.tree
            .route_with_failures(flow.src, flow.dst, &flow.tuple, &self.failed)
            .expect("registered flows have valid endpoints")
            .to_vec()
    }

    /// One tick: every flow sends one packet; sinks report changes.
    pub fn tick(&mut self) -> TickStats {
        let mut stats = TickStats::default();
        let flows = std::mem::take(&mut self.flows);
        for flow in &flows {
            let route = self
                .tree
                .route_with_failures(flow.src, flow.dst, &flow.tuple, &self.failed)
                .expect("valid endpoints");
            let mut stack = IntStack::new();
            for &hop in &route {
                stack
                    .push(HopMetadata { switch_id: hop })
                    .expect("fat-tree paths are <= 5 hops");
            }
            let sink = *route.last().expect("non-empty route");
            let key = flow.tuple.to_bytes();
            let value = stack
                .to_padded_value_bytes(PATH_HOPS)
                .expect("<= PATH_HOPS hops");

            stats.candidates += 1;
            let filter = self.filters.get_mut(&sink).expect("sink exists");
            if filter.should_report(&key, &value) {
                stats.reports += 1;
                let egress = self.egresses.get_mut(&sink).expect("sink exists");
                for copy in 0..self.copies {
                    let report = egress
                        .craft_report_copy(&key, &value, copy)
                        .expect("valid report");
                    self.cluster.deliver(&report.frame);
                }
            }
        }
        self.flows = flows;
        self.totals.candidates += stats.candidates;
        self.totals.reports += stats.reports;
        stats
    }

    /// Operator query: the collected path of a flow (`None` when the
    /// flow was never collected or its collector is unreachable).
    pub fn query_path(&self, tuple: &FiveTuple) -> Option<Vec<u32>> {
        match self.cluster.try_query(&tuple.to_bytes()).ok()? {
            QueryOutcome::Answer(value) => IntStack::from_value_bytes(&value)
                .ok()
                .map(|s| s.switch_ids().into_iter().filter(|&id| id != 0).collect()),
            QueryOutcome::Empty => None,
        }
    }
}

impl core::fmt::Debug for EventSim {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventSim")
            .field("flows", &self.flows.len())
            .field("failed", &self.failed)
            .field("totals", &self.totals)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> EventSim {
        let mut sim = EventSim::new(4, 1 << 14, 0xE0E).unwrap();
        sim.add_flows(200, 0x71);
        sim
    }

    #[test]
    fn steady_state_suppresses_almost_everything() {
        let mut sim = sim();
        let first = sim.tick();
        assert_eq!(first.candidates, 200);
        assert_eq!(first.reports, 200, "first sighting always reports");
        for _ in 0..20 {
            let tick = sim.tick();
            // Direct-mapped filter cells can collide (two flows evicting
            // each other's digests every tick) — extra reports, never
            // missed changes. Allow a handful.
            assert!(
                tick.reports <= 4,
                "stable paths mostly suppressed, got {}",
                tick.reports
            );
        }
        let totals = sim.totals();
        assert_eq!(totals.candidates, 21 * 200);
        assert!(totals.reports < 200 + 21 * 4);
    }

    #[test]
    fn failure_triggers_rereports_with_new_paths() {
        let mut sim = sim();
        sim.tick();

        // Pick a core switch actually used by some flows.
        let used_core = sim
            .flows()
            .iter()
            .map(|f| sim.current_path(f))
            .filter(|p| p.len() == 5)
            .map(|p| p[2])
            .next()
            .expect("some inter-pod flow exists");
        let affected: Vec<_> = sim
            .flows()
            .iter()
            .filter(|f| sim.current_path(f).contains(&used_core))
            .map(|f| f.tuple)
            .collect();
        assert!(!affected.is_empty());

        // Baseline flapping from filter-cell collisions (constant per
        // tick for a fixed flow population).
        let baseline = sim.tick().reports;

        sim.fail_switch(used_core);
        let tick = sim.tick();
        // The affected flows re-report (plus the collision baseline).
        assert!(
            tick.reports >= affected.len() as u64
                && tick.reports <= affected.len() as u64 + baseline + 2,
            "reports {} vs affected {}",
            tick.reports,
            affected.len()
        );

        // Queries now return the new path, which avoids the failed core.
        for tuple in &affected {
            let path = sim.query_path(tuple).expect("reported flows queryable");
            assert!(
                !path.contains(&used_core),
                "query returned the pre-failure path"
            );
        }
        // And the next tick returns to the collision baseline.
        assert!(sim.tick().reports <= baseline + 2);
    }

    #[test]
    fn unaffected_flows_stay_silent_on_failure() {
        let mut sim = sim();
        sim.tick();
        // Fail a core nobody currently uses (find one).
        let used: std::collections::HashSet<u32> = sim
            .flows()
            .iter()
            .flat_map(|f| sim.current_path(f))
            .collect();
        let all_cores: Vec<u32> = (0..2)
            .flat_map(|a| (0..2).map(move |c| (a, c)))
            .map(|(a, c)| FatTree::new(4).unwrap().core_id(a, c))
            .collect();
        let baseline = sim.tick().reports;
        if let Some(&unused) = all_cores.iter().find(|c| !used.contains(c)) {
            sim.fail_switch(unused);
            assert!(sim.tick().reports <= baseline + 2);
        }
    }

    #[test]
    fn suppression_ratio_matches_section2_motivation() {
        // Per-packet reporting would be candidates; event detection cuts
        // it to ~flows/(flows × ticks) — a ~99% reduction in this run.
        let mut sim = sim();
        for _ in 0..100 {
            sim.tick();
        }
        let t = sim.totals();
        let ratio = t.reports as f64 / t.candidates as f64;
        assert!(ratio < 0.011, "report ratio {ratio}");
    }
}
