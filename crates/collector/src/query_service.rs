//! The operator console: typed queries over a collector cluster (§3.2).
//!
//! Wraps [`crate::CollectorCluster`] with the Table 1 backend codecs so
//! operators ask questions in domain terms — "what path did this flow
//! take?", "what did switch 7 measure for it?" — and get decoded answers.
//! Each call is exactly the four-step §3.2 procedure: hash the key to a
//! collector, hash to the `N` addresses, read, checksum-filter, decide.

use dta_core::query::QueryOutcome;
use dta_telemetry::anomaly::{AnomalyBackend, AnomalyEvent, AnomalyKey, AnomalyKind};
use dta_telemetry::event::Backend;
use dta_telemetry::failure::{FailureBackend, FailureEvent, FailureKey};
use dta_telemetry::flow_count::FlowCountBackend;
use dta_telemetry::int_path::IntPathBackend;
use dta_telemetry::postcard::{LocalMeasurement, PostcardBackend, PostcardKey};
use dta_telemetry::query_mirror::{QueryAnswer, QueryMirrorBackend};
use dta_telemetry::trace::{AnalysisKind, AnalysisOutput, TraceBackend, TraceKey};
use dta_wire::FiveTuple;

use crate::cluster::{ClusterQueryExplain, CollectorCluster, RereplStats};

/// A typed query answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer<T> {
    /// The decoded value.
    Value(T),
    /// No answer could be determined (empty return, §4).
    Empty,
    /// A slot matched but its bytes failed to decode — indistinguishable
    /// in the wild from a return error that corrupted structure; counted
    /// separately so operators see it.
    Garbled,
}

impl<T> Answer<T> {
    /// The value, if any.
    pub fn value(self) -> Option<T> {
        match self {
            Answer::Value(v) => Some(v),
            _ => None,
        }
    }

    /// Whether a decoded value is present.
    pub fn is_value(&self) -> bool {
        matches!(self, Answer::Value(_))
    }
}

/// Query statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries answered with a decodable value.
    pub answered: u64,
    /// Queries with empty returns.
    pub empty: u64,
    /// Queries whose matched bytes failed to decode.
    pub garbled: u64,
}

/// The operator's recovery dashboard row: how much outage-era telemetry
/// is still in flight back to its primaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStatus {
    /// Re-replication sweeps currently in flight.
    pub active_sweeps: usize,
    /// Failover records parked for a future recovery — their primary
    /// died again mid-sweep, or their write-backs exhausted the retry
    /// budget.
    pub parked_records: usize,
    /// Lifetime sweep totals (the plain twin of the `dta_rerepl_*`
    /// counters).
    pub stats: RereplStats,
}

impl RecoveryStatus {
    /// Whether every piece of outage-era telemetry is home: nothing
    /// sweeping, nothing parked.
    pub fn settled(&self) -> bool {
        self.active_sweeps == 0 && self.parked_records == 0
    }
}

/// The typed query console.
pub struct QueryService<'a> {
    cluster: &'a CollectorCluster,
    stats: ServiceStats,
}

impl<'a> QueryService<'a> {
    /// Wrap a cluster.
    pub fn new(cluster: &'a CollectorCluster) -> QueryService<'a> {
        QueryService {
            cluster,
            stats: ServiceStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    fn run<T>(&mut self, key: Vec<u8>, decode: impl FnOnce(&[u8]) -> Option<T>) -> Answer<T> {
        // An unreachable collector reads as Empty to the operator; the
        // explain lens tells the two apart.
        match self.cluster.try_query(&key).unwrap_or(QueryOutcome::Empty) {
            QueryOutcome::Empty => {
                self.stats.empty += 1;
                Answer::Empty
            }
            QueryOutcome::Answer(bytes) => match decode(&bytes) {
                Some(value) => {
                    self.stats.answered += 1;
                    Answer::Value(value)
                }
                None => {
                    self.stats.garbled += 1;
                    Answer::Garbled
                }
            },
        }
    }

    /// "What path did this flow take?" (in-band INT, Table 1 row 1).
    pub fn int_path(&mut self, flow: &FiveTuple) -> Answer<Vec<u32>> {
        self.run(IntPathBackend::encode_key(flow), |bytes| {
            IntPathBackend::decode_path(bytes).ok()
        })
    }

    /// "What did this switch measure for this flow?" (postcards, row 2).
    pub fn postcard(&mut self, switch_id: u32, flow: FiveTuple) -> Answer<LocalMeasurement> {
        self.run(
            PostcardBackend::encode_key(&PostcardKey { switch_id, flow }),
            |bytes| PostcardBackend::decode_value(bytes).ok(),
        )
    }

    /// "What did this switch recently measure for this flow?" — the
    /// postcard *stream* over the Append primitive: the cluster must be
    /// configured with [`dta_core::PrimitiveSpec::Append`], and the
    /// answer is the ring window for the `(switch, flow)` listkey,
    /// oldest first.
    pub fn postcard_log(
        &mut self,
        switch_id: u32,
        flow: FiveTuple,
    ) -> Answer<Vec<LocalMeasurement>> {
        self.run(
            PostcardBackend::encode_log_key(&PostcardKey { switch_id, flow }),
            |bytes| PostcardBackend::decode_log(bytes).ok(),
        )
    }

    /// "How much has this flow sent?" — the running total over the
    /// Key-Increment primitive: the minimum across copies. It
    /// overcounts by what collided into every copy's slot, and
    /// undercounts when FETCH_ADDs were lost; with none lost it never
    /// undercounts.
    pub fn flow_total(&mut self, flow: FiveTuple) -> Answer<u64> {
        self.run(FlowCountBackend::encode_key(&flow), |bytes| {
            FlowCountBackend::decode_value(bytes).ok()
        })
    }

    /// "What is the current answer of installed query Q?" (row 3).
    pub fn mirror_answer(&mut self, query_id: u32) -> Answer<QueryAnswer> {
        self.run(QueryMirrorBackend::encode_key(&query_id), |bytes| {
            QueryMirrorBackend::decode_value(bytes).ok()
        })
    }

    /// "What did trace analysis K conclude about trace T?" (row 4).
    pub fn trace_analysis(&mut self, trace_id: u32, kind: AnalysisKind) -> Answer<AnalysisOutput> {
        self.run(
            TraceBackend::encode_key(&TraceKey { trace_id, kind }),
            |bytes| TraceBackend::decode_value(bytes).ok(),
        )
    }

    /// "Has this flow seen this anomaly?" (row 5).
    pub fn anomaly(&mut self, flow: FiveTuple, kind: AnomalyKind) -> Answer<AnomalyEvent> {
        self.run(
            AnomalyBackend::encode_key(&AnomalyKey { flow, kind }),
            |bytes| AnomalyBackend::decode_value(bytes).ok(),
        )
    }

    /// "What do we know about failure F at location L?" (row 6).
    pub fn failure(&mut self, failure_id: u32, location: u32) -> Answer<FailureEvent> {
        self.run(
            FailureBackend::encode_key(&FailureKey {
                failure_id,
                location,
            }),
            |bytes| FailureBackend::decode_value(bytes).ok(),
        )
    }

    /// The full §3.2 trace for the path question (Table 1 row 1): why
    /// did "what path did this flow take?" answer — or not? Which
    /// collector the key hashed to, the failover routing taken, the `N`
    /// slots probed (and which checksums matched), and why the return
    /// policy answered or abstained. For any other raw key, ask the
    /// cluster directly ([`CollectorCluster::query_explain`]).
    ///
    /// Does not touch [`ServiceStats`] — explain is a diagnostic lens,
    /// not an operator question.
    pub fn explain_int_path(&self, flow: &FiveTuple) -> ClusterQueryExplain {
        self.cluster
            .query_explain(&IntPathBackend::encode_key(flow))
    }

    /// The recovery dashboard: in-flight sweeps, parked failover
    /// records and lifetime re-replication totals. Like explain, a
    /// diagnostic lens — does not touch [`ServiceStats`].
    pub fn recovery_status(&self) -> RecoveryStatus {
        RecoveryStatus {
            active_sweeps: self.cluster.active_sweeps(),
            parked_records: self.cluster.parked_total(),
            stats: self.cluster.rerepl_stats(),
        }
    }

    /// Whether `key`'s current answer is a re-replicated copy a sweep
    /// carried home after an outage — the same fact the explain path
    /// narrates as [`dta_core::query::DecisionReason::RereplicatedCopy`].
    pub fn was_restored(&self, key: &[u8]) -> bool {
        self.cluster.key_restored(key)
    }

    /// Probe every anomaly kind for a flow — an incident dashboard row.
    pub fn anomaly_profile(&mut self, flow: FiveTuple) -> Vec<(AnomalyKind, AnomalyEvent)> {
        [
            AnomalyKind::Drop,
            AnomalyKind::Loop,
            AnomalyKind::Congestion,
            AnomalyKind::Blackhole,
            AnomalyKind::PathChange,
        ]
        .into_iter()
        .filter_map(|kind| match self.anomaly(flow, kind) {
            Answer::Value(event) => Some((kind, event)),
            _ => None,
        })
        .collect()
    }
}

impl core::fmt::Debug for QueryService<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("QueryService")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_core::config::DartConfig;
    use dta_core::hash::MappingKind;
    use dta_telemetry::event::TelemetryRecord;
    use dta_wire::int::{HopMetadata, IntStack};
    use dta_wire::ipv4;

    fn flow() -> FiveTuple {
        FiveTuple {
            src_ip: ipv4::Address([10, 0, 0, 2]),
            dst_ip: ipv4::Address([10, 1, 1, 2]),
            src_port: 50000,
            dst_port: 443,
            protocol: 6,
        }
    }

    fn cluster_with(records: &[TelemetryRecord]) -> CollectorCluster {
        let config = DartConfig::builder()
            .slots(1 << 12)
            .copies(2)
            .collectors(2)
            .mapping(MappingKind::Mix64 { seed: 4 })
            .build()
            .unwrap();
        let mut cluster = CollectorCluster::new(config.clone()).unwrap();
        // Ingest path for the test: build each collector's slot image
        // with a local DartStore (identical layout/mapping), then splice
        // the non-empty slots in as genuine RDMA WRITE frames so the data
        // arrives through the NIC like production reports.
        use dta_core::store::DartStore;
        let mut stores: Vec<DartStore> = (0..2).map(|_| DartStore::new(config.clone())).collect();
        for record in records {
            let id = cluster.collector_of(&record.key) as usize;
            stores[id].insert(&record.key, &record.value).unwrap();
        }
        for (i, store) in stores.iter().enumerate() {
            let collector = cluster.collector_mut(i as u32).unwrap();
            let ep = collector.endpoint();
            let slot_len = 24usize;
            for (slot, chunk) in store.memory().chunks(slot_len).enumerate() {
                if chunk.iter().all(|&b| b == 0) {
                    continue;
                }
                let frame = dta_rdma::nic::build_roce_frame(
                    dta_wire::ethernet::Address([2, 0, 0, 0, 0, 9]),
                    ep.mac,
                    dta_wire::ipv4::Address([10, 0, 0, 9]),
                    ep.ip,
                    49152,
                    &dta_wire::roce::RoceRepr::Write {
                        bth: dta_wire::roce::BthRepr {
                            opcode: dta_wire::roce::Opcode::UcRdmaWriteOnly,
                            solicited: false,
                            migration: true,
                            pad_count: 0,
                            partition_key: 0xFFFF,
                            dest_qp: ep.qpn,
                            ack_request: false,
                            psn: slot as u32,
                        },
                        reth: dta_wire::roce::RethRepr {
                            virtual_addr: ep.base_va + (slot * slot_len) as u64,
                            rkey: ep.rkey,
                            dma_len: slot_len as u32,
                        },
                        payload: chunk.to_vec(),
                    },
                );
                collector.receive_frame(&frame);
            }
        }
        cluster
    }

    #[test]
    fn typed_path_query() {
        let mut stack = IntStack::new();
        for id in [5u32, 6, 7] {
            stack.push(HopMetadata { switch_id: id }).unwrap();
        }
        let record = IntPathBackend::record(&flow(), &stack);
        let cluster = cluster_with(&[record]);
        let mut service = QueryService::new(&cluster);
        assert_eq!(service.int_path(&flow()), Answer::Value(vec![5, 6, 7]));
        assert_eq!(service.stats().answered, 1);
    }

    #[test]
    fn empty_answers_counted() {
        let cluster = cluster_with(&[]);
        let mut service = QueryService::new(&cluster);
        assert_eq!(service.int_path(&flow()), Answer::Empty);
        assert_eq!(service.postcard(9, flow()), Answer::Empty);
        assert_eq!(service.mirror_answer(1), Answer::Empty);
        assert_eq!(
            service.trace_analysis(1, AnalysisKind::Reordering),
            Answer::Empty
        );
        assert_eq!(service.failure(1, 2), Answer::Empty);
        assert!(service.anomaly_profile(flow()).is_empty());
        assert_eq!(service.stats().empty, 10); // profile probes 5 kinds
    }

    #[test]
    fn anomaly_profile_collects_present_kinds() {
        let key1 = AnomalyKey {
            flow: flow(),
            kind: AnomalyKind::Drop,
        };
        let ev1 = AnomalyEvent {
            timestamp: 1,
            switch_id: 2,
            event_data: 3,
            count: 4,
        };
        let key2 = AnomalyKey {
            flow: flow(),
            kind: AnomalyKind::Congestion,
        };
        let ev2 = AnomalyEvent {
            timestamp: 9,
            switch_id: 8,
            event_data: 7,
            count: 6,
        };
        let cluster = cluster_with(&[
            AnomalyBackend::record(&key1, &ev1),
            AnomalyBackend::record(&key2, &ev2),
        ]);
        let mut service = QueryService::new(&cluster);
        let profile = service.anomaly_profile(flow());
        assert_eq!(profile.len(), 2);
        assert!(profile.contains(&(AnomalyKind::Drop, ev1)));
        assert!(profile.contains(&(AnomalyKind::Congestion, ev2)));
    }

    #[test]
    fn explain_traces_a_typed_query() {
        let mut stack = IntStack::new();
        stack.push(HopMetadata { switch_id: 5 }).unwrap();
        let record = IntPathBackend::record(&flow(), &stack);
        let cluster = cluster_with(&[record]);
        let service = QueryService::new(&cluster);
        let explain = service.explain_int_path(&flow());
        assert_eq!(explain.answered_by, Some(explain.key_collector));
        assert!(explain.outcome.unwrap().is_answer());
        let store = explain.candidates[0].explain.as_ref().unwrap();
        assert!(store.matched() >= 1);
        // Explain is a diagnostic lens: stats stay untouched.
        assert_eq!(service.stats(), ServiceStats::default());
    }

    #[test]
    fn recovery_dashboard_settles_on_a_healthy_cluster() {
        let cluster = cluster_with(&[]);
        let service = QueryService::new(&cluster);
        let status = service.recovery_status();
        assert!(status.settled());
        assert_eq!(status.active_sweeps, 0);
        assert_eq!(status.parked_records, 0);
        assert_eq!(status.stats, crate::cluster::RereplStats::default());
        assert!(!service.was_restored(b"never-swept"));
    }

    #[test]
    fn answer_helpers() {
        assert_eq!(Answer::Value(5).value(), Some(5));
        assert!(Answer::Value(5).is_value());
        assert_eq!(Answer::<u32>::Empty.value(), None);
        assert!(!Answer::<u32>::Garbled.is_value());
    }
}
