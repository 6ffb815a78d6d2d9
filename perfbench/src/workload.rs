//! Workload definitions, ground truth, and the closed-loop driver that
//! runs one workload through any [`Pipeline`] — the real `FatTreeSim`
//! for the end-to-end figures, or the outside-in mirror for the traced
//! run.

use std::time::Instant;

use dta_collector::QueryError;
use dta_core::primitive::{increment_encode, PrimitiveSpec};
use dta_core::query::{classify, QueryClass, QueryOutcome};
use dta_telemetry::int_path::PATH_HOPS;
use dta_topology::fattree::{FatTree, Host};
use dta_topology::flowgen::{Skew, Zipf};
use dta_topology::sim::{CollectorFault, FatTreeSim, FaultKind, ReportMode, SimConfig, SimError};
use dta_wire::int::{HopMetadata, IntStack};
use dta_wire::ipv4;
use dta_wire::FiveTuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::timing::Timings;

/// Fat-tree arity shared by every workload (80 switches).
pub const K: u8 = 8;
/// Redundant copies per key.
pub const COPIES: u8 = 2;
/// Collectors sharing the key space.
pub const COLLECTORS: u32 = 4;
/// Flows timed as one batch (one `Instant` pair per batch).
const FLOW_BATCH: usize = 16;
/// Most recent flows the recency-skewed query sampler draws from.
const RECENT_WINDOW: usize = 1 << 16;

/// Which of the three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ingest,
    Query,
    Churn,
}

/// How a query picks its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sampler {
    /// Uniform over every flow reported so far (the §4 aging view).
    Uniform,
    /// Zipf(1) over the most recent flows, newest most likely.
    Recent,
    /// Uniform over the most recent flows.
    Window,
}

/// One workload: the simulator configuration plus a fixed, seeded
/// amount of work.
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    primitive: PrimitiveSpec,
    /// Slots per collector.
    slots: u64,
    mode: ReportMode,
    skew: Skew,
    /// Flows run during set-up, before anything is timed.
    pub prefill_flows: u64,
    /// Measured rounds, each its flows then its queries.
    pub rounds: u64,
    flows_per_round: u64,
    queries_per_round: u64,
    sampler: Sampler,
    /// Percent of queries asking for a tuple that was never reported.
    absent_pct: u32,
    faults: Vec<CollectorFault>,
}

impl Spec {
    /// The workload named `name`, sized for a nominal `seconds` of work.
    /// The amount of work depends only on the arguments, never on the
    /// clock, so every output but the timings repeats per seed.
    pub fn new(name: &str, seconds: u64) -> Result<Spec, String> {
        let spec = match name {
            // Key-Write on 4 × 2^16 slots (6 MiB, three times L2):
            // prefilled to α = 0.5, then driven past α = 2 with one
            // sampled query per four flows (a latency percentile in every
            // 100 ms window). The queries of a round run as one block:
            // spread out as 4 per 16 flows, each was the first after a
            // flow batch, and their p90 spread 0.2–0.3 across runs.
            "ingest" => Spec {
                kind: Kind::Ingest,
                primitive: PrimitiveSpec::KeyWrite,
                slots: 1 << 16,
                mode: ReportMode::AllCopies,
                skew: Skew::Uniform,
                prefill_flows: 1 << 17,
                rounds: seconds * 96,
                flows_per_round: 1024,
                queries_per_round: 256,
                sampler: Sampler::Uniform,
                absent_pct: 0,
                faults: Vec::new(),
            },
            // Key-Write on 4 × 2^16 slots (6 MiB) at α = 0.5: dashboard
            // reads, recency-skewed, with a trickle of new flows.
            "query" => Spec {
                kind: Kind::Query,
                primitive: PrimitiveSpec::KeyWrite,
                slots: 1 << 16,
                mode: ReportMode::AllCopies,
                skew: Skew::Uniform,
                prefill_flows: 1 << 17,
                rounds: seconds * 200,
                flows_per_round: 16,
                queries_per_round: 4096,
                sampler: Sampler::Recent,
                absent_pct: 10,
                faults: Vec::new(),
            },
            // Key-Increment under a crash/recover rotation: the only
            // workload that runs the health monitor's verdict flips, the
            // liveness-masked failover and the re-replication sweep.
            // Destinations are uniform: under Zipf(1) the success ratio
            // hinged on whether the hottest host's edge switch lost its
            // queue pair to a crash, and spread 0.44–0.51 across seeds.
            // Rounds are 1024 flows then 1024 queries, so the latency tail
            // is not just the first, cache-cold queries after each flow
            // batch.
            "churn" => {
                let prefill_flows = 1 << 14;
                let rounds = seconds * 34;
                let flows_per_round = 1024;
                Spec {
                    kind: Kind::Churn,
                    primitive: PrimitiveSpec::KeyIncrement,
                    slots: 1 << 16,
                    mode: ReportMode::PerPacket(4),
                    skew: Skew::Uniform,
                    prefill_flows,
                    rounds,
                    flows_per_round,
                    queries_per_round: 1024,
                    sampler: Sampler::Window,
                    absent_pct: 0,
                    faults: churn_faults(prefill_flows, rounds * flows_per_round),
                }
            }
            other => return Err(format!("unknown workload `{other}` (ingest, query, churn)")),
        };
        Ok(spec)
    }

    /// The simulator configuration this workload runs on.
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        SimConfig {
            k: K,
            primitive: self.primitive,
            slots: self.slots,
            copies: COPIES,
            collectors: COLLECTORS,
            mode: self.mode,
            skew: self.skew,
            seed,
            faults: self.faults.clone(),
            ..SimConfig::default()
        }
    }

    /// Flows run after set-up.
    pub fn measured_flows(&self) -> u64 {
        self.rounds * self.flows_per_round
    }
}

/// Frames one churn flow puts on the wire: 4 reports × N copies.
const CHURN_FRAMES_PER_FLOW: u64 = 4 * COPIES as u64;
/// A collector crashes every this many frames, round-robin...
const CRASH_PERIOD_FRAMES: u64 = 1 << 17;
/// ...and comes back (with wiped memory) this many frames later.
const RECOVER_AFTER_FRAMES: u64 = 1 << 15;

/// The frame-clocked crash schedule of `churn`: starts half a period
/// after the prefill and covers the measured flows.
fn churn_faults(prefill_flows: u64, measured_flows: u64) -> Vec<CollectorFault> {
    let start = prefill_flows * CHURN_FRAMES_PER_FLOW + CRASH_PERIOD_FRAMES / 2;
    let end = (prefill_flows + measured_flows) * CHURN_FRAMES_PER_FLOW;
    (0..)
        .map(|i: u64| (i, start + i * CRASH_PERIOD_FRAMES))
        .take_while(|&(_, at)| at < end)
        .map(|(i, at)| CollectorFault {
            index: (i % u64::from(COLLECTORS)) as u32,
            after_frames: at,
            kind: FaultKind::Crash,
            recover_after: Some(RECOVER_AFTER_FRAMES),
        })
        .collect()
}

/// What the driver needs from a pipeline: run one flow, query one key.
pub trait Pipeline {
    fn run_flow(&mut self) -> Result<FiveTuple, SimError>;
    fn query(&mut self, tuple: &FiveTuple) -> Result<QueryOutcome, QueryError>;
}

impl Pipeline for FatTreeSim {
    fn run_flow(&mut self) -> Result<FiveTuple, SimError> {
        FatTreeSim::run_flow(self)
    }

    fn query(&mut self, tuple: &FiveTuple) -> Result<QueryOutcome, QueryError> {
        self.try_query_flow(tuple)
    }
}

/// Ground truth for every reported flow. A tuple's addresses encode its
/// endpoints (`10.pod.edge.idx+2`), so its INT path, the fat-tree route
/// between them, is known without reaching into the simulator.
pub struct Truth {
    tree: FatTree,
    tuples: Vec<FiveTuple>,
    primitive: PrimitiveSpec,
    /// Key-Increment: packets (FETCH_ADD deltas of 1) per flow.
    increments: u64,
}

impl Truth {
    /// Truth for a simulator whose prefill reported `prefill`.
    pub fn new(spec: &Spec, mut prefill: Vec<FiveTuple>) -> Truth {
        prefill.reserve(spec.measured_flows() as usize);
        Truth {
            tree: FatTree::new(K).expect("k = 8 is a valid fat-tree"),
            tuples: prefill,
            primitive: spec.primitive,
            increments: match spec.mode {
                ReportMode::AllCopies => 1,
                ReportMode::PerPacket(n) => u64::from(n),
            },
        }
    }

    /// Every `step`-th reported flow's tuple.
    pub fn sample(&self, step: usize) -> impl Iterator<Item = &FiveTuple> + '_ {
        self.tuples.iter().step_by(step)
    }

    /// The value a correct query for reported flow `index` returns.
    fn expected(&self, index: usize) -> Vec<u8> {
        // The flow generator never repeats a tuple, so a Key-Increment
        // total is one flow's packets.
        if self.primitive == PrimitiveSpec::KeyIncrement {
            return increment_encode(self.increments).to_vec();
        }
        let tuple = &self.tuples[index];
        let host = |ip: ipv4::Address| Host {
            pod: ip.0[1],
            edge: ip.0[2],
            idx: ip.0[3] - 2,
        };
        let route = self
            .tree
            .route(host(tuple.src_ip), host(tuple.dst_ip), tuple)
            .expect("reported flows route within the tree");
        let mut stack = IntStack::new();
        for switch_id in route {
            stack
                .push(HopMetadata { switch_id })
                .expect("fat-tree paths fit the INT stack");
        }
        stack
            .to_padded_value_bytes(PATH_HOPS)
            .expect("fat-tree paths fit the padded value")
    }
}

/// Picks each query's key from the seeded query stream.
struct QueryStream {
    rng: StdRng,
    sampler: Sampler,
    recent: Zipf,
    absent_pct: u32,
}

/// A query's key: a reported flow, or a tuple no switch ever reported.
enum Target {
    Reported(usize),
    Absent(FiveTuple),
}

impl QueryStream {
    fn new(spec: &Spec, seed: u64) -> QueryStream {
        QueryStream {
            rng: StdRng::seed_from_u64(seed ^ 0x9E3779B97F4A7C15),
            sampler: spec.sampler,
            recent: Zipf::new(RECENT_WINDOW, 1.0),
            absent_pct: spec.absent_pct,
        }
    }

    fn next(&mut self, reported: usize) -> Target {
        if self.absent_pct > 0 && self.rng.gen_range(0..100u32) < self.absent_pct {
            // The flow generator only emits TCP tuples, so a UDP tuple
            // was never reported.
            return Target::Absent(FiveTuple {
                src_ip: ipv4::Address(self.rng.gen::<u32>().to_be_bytes()),
                dst_ip: ipv4::Address(self.rng.gen::<u32>().to_be_bytes()),
                src_port: self.rng.gen(),
                dst_port: self.rng.gen(),
                protocol: 17,
            });
        }
        let index = match self.sampler {
            Sampler::Uniform => self.rng.gen_range(0..reported),
            Sampler::Recent => reported - 1 - self.recent.sample(&mut self.rng) % reported,
            Sampler::Window => reported - 1 - self.rng.gen_range(0..reported.min(RECENT_WINDOW)),
        };
        Target::Reported(index)
    }
}

/// Outcome counts of one run, deterministic per seed except where a
/// re-replication sweep ran (see `trace::Counters::order_independent`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub flows: u64,
    pub flow_errors: u64,
    pub queries: u64,
    /// Queries on reported keys, and how they were answered.
    pub reported_queries: u64,
    pub correct: u64,
    pub empty: u64,
    pub wrong: u64,
    /// `try_query` errors (no collector holding the key reachable).
    pub unreachable: u64,
    /// Queries for tuples never reported, and how many were answered
    /// (each such answer is wrong).
    pub absent_queries: u64,
    pub absent_answered: u64,
}

impl Tally {
    /// Operations that broke the workload's correctness gate: flows
    /// that returned an error and answers for never-reported keys on
    /// every workload, and wrong answers and `try_query` errors on the
    /// fault-free ones. Under `churn`'s crash schedule those two are the
    /// degraded answers DART allows while a collector is down or being
    /// re-replicated; `query_success_ratio` measures them instead.
    pub fn failed(&self, kind: Kind) -> u64 {
        let degraded = match kind {
            Kind::Churn => 0,
            Kind::Ingest | Kind::Query => self.wrong + self.unreachable,
        };
        self.flow_errors + self.absent_answered + degraded
    }

    pub fn success_ratio(&self) -> f64 {
        self.correct as f64 / self.reported_queries.max(1) as f64
    }

    pub fn error_ratio(&self) -> f64 {
        (self.wrong + self.absent_answered + self.unreachable) as f64 / self.queries.max(1) as f64
    }

    pub fn empty_ratio(&self) -> f64 {
        self.empty as f64 / self.reported_queries.max(1) as f64
    }
}

/// Run `spec`'s measured rounds against `pipeline` as a closed loop:
/// each round runs its flows (timed per batch), then its queries (timed
/// one by one), and every answer is classified against `truth`.
/// `between` is called, untimed, with each round's index after it.
pub fn drive<P: Pipeline>(
    pipeline: &mut P,
    spec: &Spec,
    truth: &mut Truth,
    seed: u64,
    between: &mut dyn FnMut(u64),
) -> (Tally, Timings) {
    let mut stream = QueryStream::new(spec, seed);
    let mut tally = Tally::default();
    let mut timings = Timings::new();
    let mut batch: Vec<Result<FiveTuple, SimError>> = Vec::with_capacity(FLOW_BATCH);
    let mut targets = Vec::with_capacity(spec.queries_per_round as usize);
    let mut results = Vec::with_capacity(spec.queries_per_round as usize);
    for round in 0..spec.rounds {
        let mut left = spec.flows_per_round as usize;
        while left > 0 {
            let n = left.min(FLOW_BATCH);
            timings.tick();
            let start = Instant::now();
            for _ in 0..n {
                batch.push(pipeline.run_flow());
            }
            timings.flows(n as u64, start.elapsed().as_nanos() as u64);
            for result in batch.drain(..) {
                tally.flows += 1;
                match result {
                    Ok(tuple) => truth.tuples.push(tuple),
                    Err(_) => tally.flow_errors += 1,
                }
            }
            left -= n;
        }
        // Keys are drawn before and answers classified after the timed
        // loop, so only the pipeline's own work runs between queries.
        let reported = truth.tuples.len();
        targets.extend((0..spec.queries_per_round).map(|_| stream.next(reported)));
        timings.tick();
        for target in &targets {
            let tuple = match target {
                Target::Reported(i) => {
                    tally.reported_queries += 1;
                    truth.tuples[*i]
                }
                Target::Absent(tuple) => {
                    tally.absent_queries += 1;
                    *tuple
                }
            };
            let start = Instant::now();
            let result = pipeline.query(&tuple);
            timings.query(start.elapsed().as_nanos() as u64);
            results.push(result);
        }
        for (target, result) in targets.drain(..).zip(results.drain(..)) {
            tally.queries += 1;
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(_) => {
                    tally.unreachable += 1;
                    continue;
                }
            };
            match target {
                Target::Absent(_) => {
                    if outcome.is_answer() {
                        tally.absent_answered += 1;
                    }
                }
                Target::Reported(i) => match classify(&outcome, &truth.expected(i)) {
                    QueryClass::Correct => tally.correct += 1,
                    QueryClass::EmptyReturn => tally.empty += 1,
                    QueryClass::ReturnError => tally.wrong += 1,
                },
            }
        }
        between(round);
    }
    timings.finish();
    (tally, timings)
}
