//! DART pipeline benchmark: three closed-loop workloads (ingest / query
//! / churn) run end to end through `FatTreeSim`, plus a traced run that
//! times every layer from outside. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod timing;
mod trace;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use dta_topology::sim::FatTreeSim;

use dta_wire::FiveTuple;
use timing::Timings;
use workload::{drive, Kind, Pipeline, Spec, Tally, Truth};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per end-to-end run; `setup_s` is their median. The first
/// builds the measured simulator. Each of the others runs in a child
/// process (`--setup-probe 1`), spaced evenly through the measured
/// rounds, so the set-ups sample the whole run's host phases and their
/// memory never shows in the measured process's peak RSS.
const SETUP_REPS: u64 = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = number()? != 0,
            "--setup-probe" => args.setup_probe = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required (ingest, query, churn)".into());
    }
    Ok(args)
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match Spec::new(&args.workload, args.seconds) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return match setup(&spec, args.seed) {
            Ok((_, _, seconds)) => {
                println!("{seconds}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = if args.trace {
        trace::run(&spec, &args.workload, args.seed)
    } else {
        run_e2e(&spec, &args)
    };
    match result {
        Ok(outcome) => {
            print_outcome(&args.workload, spec.kind, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable summary.
    pub notes: Vec<String>,
}

/// Build the simulator and prefill it to the workload's starting load;
/// returns the simulator, the flows its prefill reported, and the time
/// this took.
fn setup(spec: &Spec, seed: u64) -> Result<(FatTreeSim, Vec<FiveTuple>, f64), String> {
    let start = Instant::now();
    let mut sim = FatTreeSim::new(spec.sim_config(seed)).map_err(|e| e.to_string())?;
    let prefill = prefill(&mut sim, spec.prefill_flows)?;
    Ok((sim, prefill, start.elapsed().as_secs_f64()))
}

/// Run `flows` flows through `pipeline`, returning their tuples.
pub fn prefill<P: Pipeline>(pipeline: &mut P, flows: u64) -> Result<Vec<FiveTuple>, String> {
    (0..flows)
        .map(|_| pipeline.run_flow().map_err(|e| format!("prefill: {e}")))
        .collect()
}

/// Run the workload through `FatTreeSim` with nothing traced, calling
/// `between` with each round's index after the round.
pub fn run_sim(
    spec: &Spec,
    seed: u64,
    between: &mut dyn FnMut(u64),
) -> Result<(FatTreeSim, Tally, Timings, f64), String> {
    let (mut sim, prefill, setup_time) = setup(spec, seed)?;
    let mut truth = Truth::new(spec, prefill);
    let (tally, timings) = drive(&mut sim, spec, &mut truth, seed, between);
    Ok((sim, tally, timings, setup_time))
}

/// Time one set-up in a child process running this benchmark with
/// `--setup-probe 1`; waits for the child to exit.
fn setup_probe(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("setup probe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--setup-probe", "1"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("setup probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("setup probe exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse::<f64>()
        .map_err(|_| format!("setup probe printed `{}`", text.trim()))
}

fn run_e2e(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let every = (spec.rounds / SETUP_REPS).max(1);
    let mut setup_times = Vec::new();
    let mut probe_error = None;
    let mut between = |round: u64| {
        let due = (round + 1).is_multiple_of(every) && (setup_times.len() as u64) < SETUP_REPS - 1;
        if due && probe_error.is_none() {
            match setup_probe(args) {
                Ok(seconds) => setup_times.push(seconds),
                Err(e) => probe_error = Some(e),
            }
        }
    };
    let (sim, tally, timings, first_setup) = run_sim(spec, args.seed, &mut between)?;
    drop(sim);
    if let Some(e) = probe_error {
        return Err(e);
    }
    setup_times.insert(0, first_setup);
    let mut notes = vec![format!(
        "setup runs: {:?} s",
        setup_times
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    )];
    let correct = check(spec, &tally, &mut notes);
    let mut metrics = vec![("setup_s", median(setup_times), "s")];
    metrics.extend(e2e_metrics(&tally, &timings));
    metrics.push(("peak_rss_mib", peak_rss_mib(), "MiB"));
    let (queries, windows, band) = timings.counts();
    notes.push(format!(
        "{queries} queries in {windows} windows of 100 ms; timings read from {band} windows"
    ));
    let (flows_per_s, queries_per_s) = timings.whole_run_per_s();
    notes.push(format!(
        "whole run, not bounded: {flows_per_s:.0} flows/s, {queries_per_s:.0} queries/s"
    ));
    // Too noisy on a shared host to bound (see README, "Noise").
    notes.push(format!(
        "query p99 {:.3} us (not a bounded metric)",
        timings.query_latency_us()[2]
    ));
    Ok(Outcome {
        correct,
        tally,
        metrics,
        notes,
    })
}

/// The correctness gate every run applies to its tallies.
pub fn check(spec: &Spec, tally: &Tally, notes: &mut Vec<String>) -> bool {
    let mut ok = true;
    let mut fail = |why: String| {
        notes.push(format!("CHECK FAILED: {why}"));
        ok = false;
    };
    if tally.flow_errors > 0 {
        fail(format!("{} flows returned an error", tally.flow_errors));
    }
    if tally.absent_answered > 0 {
        fail(format!(
            "{} of {} never-reported keys were answered",
            tally.absent_answered, tally.absent_queries
        ));
    }
    // Without faults every answer must be right (32-bit checksums); the
    // crash schedule of `churn` makes errors and lag part of its result.
    if spec.kind != Kind::Churn && tally.wrong + tally.unreachable > 0 {
        fail(format!(
            "{} wrong answers and {} unreachable errors on a fault-free workload",
            tally.wrong, tally.unreachable
        ));
    }
    if tally.correct == 0 {
        fail("no query was answered correctly".into());
    }
    ok
}

/// The end-to-end metrics computed from one driven run's busy times.
pub fn e2e_metrics(tally: &Tally, timings: &Timings) -> Vec<Metric> {
    let [p50, p90, _] = timings.query_latency_us();
    vec![
        ("ingest_flows_per_s", timings.ingest_per_s(), "1/s"),
        ("query_per_s", timings.query_per_s(), "1/s"),
        ("query_p50_us", p50, "us"),
        ("query_p90_us", p90, "us"),
        ("query_success_ratio", tally.success_ratio(), "ratio"),
    ]
}

pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn print_outcome(workload: &str, kind: Kind, outcome: &Outcome) {
    let t = &outcome.tally;
    println!(
        "workload {workload}: {} flows, {} queries",
        t.flows, t.queries
    );
    println!(
        "  reported keys {}: correct {}, empty {}, wrong {}; never-reported keys {}: answered {}; unreachable {}",
        t.reported_queries,
        t.correct,
        t.empty,
        t.wrong,
        t.absent_queries,
        t.absent_answered,
        t.unreachable
    );
    println!("  query_error_ratio {} ratio", t.error_ratio());
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    // JSON has no NaN or infinity; a run that produced one is broken.
    let finite = outcome
        .metrics
        .iter()
        .all(|(_, value, _)| value.is_finite());
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct && finite,
        t.flows + t.queries,
        t.failed(kind)
    );
}
