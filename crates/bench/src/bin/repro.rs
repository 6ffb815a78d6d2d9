//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale S] [--out DIR] [--check FILE] [fig1a|fig1b|fig3|fig4|fig5|table1|cas|theory|e2e|ext|fit|all]
//! ```
//!
//! `--scale` multiplies simulation sizes (default 1 ≈ 100 k keys; the
//! paper's 100 M-flow setting corresponds to `--scale 1000`, which the
//! scale-invariance tests show is unnecessary for matching rates).
//! `--out DIR` additionally writes each target's output to
//! `DIR/<target>.md`; the `e2e` target also drops `DIR/BENCH_e2e.json`,
//! a JSONL snapshot of throughput and every lifecycle metric.
//! `--check FILE` reruns the e2e bench and diffs every deterministic
//! counter against the checked-in `FILE` baseline (wall-clock gauges
//! are skipped), exiting non-zero on any drift. The baseline must have
//! been generated at the same `--scale`.

use std::env;
use std::fs;
use std::path::PathBuf;

use dta_bench::{cas, e2e, ext, fig1, fig3, fig4, fig5, fit, table1, theory, Scale};

const TARGETS: &[&str] = &[
    "fig1a", "fig1b", "fig3", "fig4", "fig5", "table1", "cas", "theory", "e2e", "ext", "fit",
];

fn render(target: &str, scale: Scale, seed: u64, out_dir: Option<&PathBuf>) -> Option<String> {
    let mut out = String::new();
    match target {
        "fig1a" => out.push_str(&fig1::fig1a_table()),
        "fig1b" => {
            out.push_str(&fig1::fig1b_table(200_000 * scale.0 as usize));
            out.push_str(&fig1::capacity_table());
        }
        "fig3" => {
            let fig = fig3::run_fig3(scale, seed);
            out.push_str(&fig3::fig3_table(&fig));
        }
        "fig4" => {
            let curves = fig4::run_fig4(scale, 20, seed);
            out.push_str(&fig4::fig4_table(&curves));
        }
        "fig5" => {
            let points = fig5::run_fig5(scale, seed);
            out.push_str(&fig5::fig5_table(&points));
        }
        "table1" => out.push_str(&table1::table1_table(&table1::run_table1())),
        "cas" => out.push_str(&cas::cas_table(&cas::run_cas(scale, seed))),
        "theory" => {
            let grid = theory::run_grid(1 << 16, 20_000 * scale.0, seed);
            out.push_str(&theory::theory_table(&grid));
        }
        "e2e" => {
            let slots = (1u64 << 13) * scale.0;
            let bench = e2e::run_bench(slots, seed);
            out.push_str(&e2e::e2e_table(&bench.points));
            out.push_str(&e2e::primitive_table(&bench.matrix));
            out.push_str(&e2e::recovery_table(&bench.recovery));
            if let Some(dir) = out_dir {
                let path = dir.join("BENCH_e2e.json");
                if let Err(e) = fs::write(&path, e2e::bench_jsonl(&bench)) {
                    eprintln!("cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        "ext" => {
            out.push_str(&ext::adaptive_table());
            out.push_str(&ext::native_table());
            out.push_str(&ext::events_table(seed));
        }
        "fit" => out.push_str(&fit::fit_table(&fit::run_fit())),
        _ => return None,
    }
    Some(out)
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut scale = Scale(1);
    let mut out_dir: Option<PathBuf> = None;
    let mut check: Option<PathBuf> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--scale needs a positive integer");
                        std::process::exit(2);
                    });
                scale = Scale(value.max(1));
            }
            "--out" => {
                let dir = iter.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                });
                out_dir = Some(PathBuf::from(dir));
            }
            "--check" => {
                let file = iter.next().unwrap_or_else(|| {
                    eprintln!("--check needs a baseline file (BENCH_e2e.json)");
                    std::process::exit(2);
                });
                check = Some(PathBuf::from(file));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--scale S] [--out DIR] [--check FILE] [{}|all]",
                    TARGETS.join("|")
                );
                return;
            }
            other => targets.push(other.to_string()),
        }
    }

    let seed = 0xDA27_2021u64;
    if let Some(baseline_path) = check {
        let baseline = fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", baseline_path.display());
            std::process::exit(1);
        });
        let slots = (1u64 << 13) * scale.0;
        let bench = e2e::run_bench(slots, seed);
        match e2e::diff_baseline(&bench, &baseline) {
            Err(e) => {
                eprintln!("cannot parse {}: {e}", baseline_path.display());
                std::process::exit(1);
            }
            Ok(diffs) if diffs.is_empty() => {
                println!(
                    "e2e bench reproduces {} (all deterministic counters match)",
                    baseline_path.display()
                );
                return;
            }
            Ok(diffs) => {
                eprintln!("e2e bench drifted from {}:", baseline_path.display());
                for diff in diffs {
                    eprintln!("  {diff}");
                }
                std::process::exit(1);
            }
        }
    }

    if targets.is_empty() {
        targets.push("all".into());
    }
    if targets.iter().any(|t| t == "all") {
        targets = TARGETS.iter().map(|s| s.to_string()).collect();
    }

    if let Some(dir) = &out_dir {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    for target in &targets {
        let Some(output) = render(target, scale, seed, out_dir.as_ref()) else {
            eprintln!("unknown target '{target}', see --help");
            std::process::exit(2);
        };
        print!("{output}");
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{target}.md"));
            if let Err(e) = fs::write(&path, &output) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
