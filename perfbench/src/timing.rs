//! Busy-time bookkeeping per wall-clock window, and the estimator the
//! end-to-end timings are read with.
//!
//! The host this was built on runs the pipeline at one of two speeds,
//! switching every few seconds and sometimes holding one for many
//! minutes: a contended speed that stays within a few percent, and an
//! uncontended one up to 1.8× faster that wanders by ±20%. In some
//! periods it adds episodes of a few seconds at a third, slower speed.
//! A whole-run mean moves with the share of time spent at each, and a
//! set of ten runs moved by up to 31% against the next. The benchmark
//! therefore cuts each run into 100 ms windows, ranks them by the speed
//! of the run's main operation (the one that took most of its busy
//! time), and reads every timing from the slower half of the windows
//! less the slowest 5%. That leans on the steady contended speed
//! whenever a run meets it, and is wide enough that a short slow
//! episode, a table resize, or a crash and its sweep do not decide it.
//! Ranking by the main operation, not by each metric's own operation,
//! keeps a few slow queries on `ingest` from choosing the windows their
//! own latency is then read from.

use std::time::{Duration, Instant};

/// Wall-clock length of one window.
const WINDOW: Duration = Duration::from_millis(100);
/// The share of windows, ranked slowest first, the timings are read from.
const BAND: (f64, f64) = (0.05, 0.5);

/// Busy time and work of one window.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    flows: u64,
    flow_ns: u64,
    queries: u64,
    query_ns: u64,
    /// The window's 50th, 90th and 99th-percentile query latency, in ns.
    p50: f64,
    p90: f64,
    p99: f64,
}

/// Busy time of one run, window by window.
pub struct Timings {
    opened: Instant,
    current: Window,
    latencies: Vec<u64>,
    windows: Vec<Window>,
    queries: u64,
}

impl Timings {
    pub fn new() -> Timings {
        Timings {
            opened: Instant::now(),
            current: Window::default(),
            latencies: Vec::new(),
            windows: Vec::new(),
            queries: 0,
        }
    }

    /// Close the current window once it has been open for `WINDOW`.
    /// Called between operations, never inside a timed one.
    pub fn tick(&mut self) {
        if self.opened.elapsed() >= WINDOW {
            self.close();
            self.opened = Instant::now();
        }
    }

    fn close(&mut self) {
        let w = &mut self.current;
        if w.flows == 0 && w.queries == 0 {
            return;
        }
        if !self.latencies.is_empty() {
            self.latencies.sort_unstable();
            let n = self.latencies.len();
            let at = |q: f64| self.latencies[((q * n as f64) as usize).min(n - 1)] as f64;
            (w.p50, w.p90, w.p99) = (at(0.50), at(0.90), at(0.99));
            self.latencies.clear();
        }
        self.windows.push(std::mem::take(w));
    }

    /// `flows` flows took `ns` nanoseconds.
    pub fn flows(&mut self, flows: u64, ns: u64) {
        self.current.flows += flows;
        self.current.flow_ns += ns;
    }

    /// One query took `ns` nanoseconds.
    pub fn query(&mut self, ns: u64) {
        self.current.queries += 1;
        self.current.query_ns += ns;
        self.latencies.push(ns);
        self.queries += 1;
    }

    /// Close the last, partial window.
    pub fn finish(&mut self) {
        self.close();
    }

    /// The windows in `BAND`, ranked slowest first by the rate of the
    /// operation that took most of the run's busy time.
    fn band(&self) -> Vec<Window> {
        let flow_ns: u64 = self.windows.iter().map(|w| w.flow_ns).sum();
        let query_ns: u64 = self.windows.iter().map(|w| w.query_ns).sum();
        let work = |w: &Window| {
            if flow_ns >= query_ns {
                (w.flows, w.flow_ns)
            } else {
                (w.queries, w.query_ns)
            }
        };
        let mut ranked: Vec<Window> = self
            .windows
            .iter()
            .filter(|w| work(w).1 > 0)
            .copied()
            .collect();
        let rate = |w: &Window| work(w).0 as f64 / work(w).1 as f64;
        ranked.sort_by(|a, b| rate(a).total_cmp(&rate(b)));
        let n = ranked.len() as f64;
        let lo = (BAND.0 * n) as usize;
        let hi = ((BAND.1 * n) as usize).max(lo + 1).min(ranked.len());
        ranked.get(lo..hi).map_or_else(Vec::new, <[Window]>::to_vec)
    }

    /// Flows per second of ingest busy time, over the band windows.
    pub fn ingest_per_s(&self) -> f64 {
        let band = self.band();
        let flows: u64 = band.iter().map(|w| w.flows).sum();
        let ns: u64 = band.iter().map(|w| w.flow_ns).sum();
        flows as f64 * 1e9 / ns.max(1) as f64
    }

    /// Queries per second of query busy time, over the band windows.
    pub fn query_per_s(&self) -> f64 {
        let band = self.band();
        let queries: u64 = band.iter().map(|w| w.queries).sum();
        let ns: u64 = band.iter().map(|w| w.query_ns).sum();
        queries as f64 * 1e9 / ns.max(1) as f64
    }

    /// Query latency p50, p90 and p99 in microseconds: each band
    /// window's percentile, averaged over the band windows that ran
    /// queries.
    pub fn query_latency_us(&self) -> [f64; 3] {
        let band: Vec<Window> = self.band().into_iter().filter(|w| w.queries > 0).collect();
        let n = band.len().max(1) as f64;
        let mean = |at: fn(&Window) -> f64| band.iter().map(at).sum::<f64>() / n / 1e3;
        [mean(|w| w.p50), mean(|w| w.p90), mean(|w| w.p99)]
    }

    /// Flows and queries per second of busy time over the whole run,
    /// for comparison with the band.
    pub fn whole_run_per_s(&self) -> (f64, f64) {
        let sum = |f: fn(&Window) -> u64| self.windows.iter().map(f).sum::<u64>() as f64;
        let flows = sum(|w| w.flows) * 1e9 / sum(|w| w.flow_ns).max(1.0);
        let queries = sum(|w| w.queries) * 1e9 / sum(|w| w.query_ns).max(1.0);
        (flows, queries)
    }

    /// Queries timed, the windows of the run, and how many windows the
    /// timings were read from.
    pub fn counts(&self) -> (u64, usize, usize) {
        (self.queries, self.windows.len(), self.band().len())
    }
}
