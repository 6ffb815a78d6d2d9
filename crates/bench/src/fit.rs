//! §6 resource fit: the DART program against a Tofino-1 budget.
//!
//! The paper's feasibility claim is that about 20 B of switch SRAM per
//! collector supports "tens of thousands of collectors without
//! impacting the pipeline complexity". This runs the estimator of
//! `dta_switch::pipeline` for the paper's program (N = 2 copies, 13-byte
//! 5-tuple keys, 20-byte 5-hop paths) at growing collector counts, so
//! the claim reads off one table: stages stay constant, SRAM grows
//! linearly, and only the million-collector row overflows.

use dta_switch::pipeline::{AsicBudget, DartProgram, PipelineResources};

use crate::report::{pct, table};

/// Collector counts the table sweeps.
const COLLECTORS: [u32; 4] = [4, 1_000, 50_000, 1_000_000];

/// One collector count's estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitRow {
    /// Collectors in the egress lookup table.
    pub collectors: u32,
    /// The program's estimated resource use.
    pub usage: PipelineResources,
    /// Share of the budget's SRAM it uses.
    pub sram_utilization: f64,
    /// Whether every resource fits the budget.
    pub fits: bool,
}

/// Estimate the paper's DART program at 4, 1,000, 50,000 and 1,000,000
/// collectors against [`AsicBudget::TOFINO_1`].
pub fn run_fit() -> Vec<FitRow> {
    let budget = AsicBudget::TOFINO_1;
    COLLECTORS
        .iter()
        .map(|&collectors| {
            let usage = DartProgram {
                collectors,
                copies: 2,
                key_len: 13,
                value_len: 20,
            }
            .resources();
            FitRow {
                collectors,
                usage,
                sram_utilization: budget.sram_utilization(&usage),
                fits: budget.admits(&usage),
            }
        })
        .collect()
}

/// Render the rows, with the budget in the title.
pub fn fit_table(rows: &[FitRow]) -> String {
    let budget = AsicBudget::TOFINO_1;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.collectors.to_string(),
                format!("{}/{}", r.usage.stages, budget.stages),
                r.usage.sram_bytes.to_string(),
                pct(r.sram_utilization),
                if r.fits { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    table(
        &format!(
            "§6 resource fit — DART (N=2, 13 B key, 20 B value) on Tofino-1 \
             ({} stages, {} B SRAM)",
            budget.stages, budget.sram_bytes
        ),
        &["collectors", "stages", "SRAM bytes", "SRAM used", "fits"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_million_collectors_overflow() {
        let rows = run_fit();
        let fits: Vec<bool> = rows.iter().map(|r| r.fits).collect();
        assert_eq!(fits, [true, true, true, false]);
        assert!(rows.iter().all(|r| r.usage.stages == rows[0].usage.stages));
        let text = fit_table(&rows);
        assert!(text.contains("1000000") && text.contains("| no"));
    }
}
