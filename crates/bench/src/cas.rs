//! §7 extension: the WRITE + COMPARE_SWAP strategy vs plain writes.
//!
//! Sweeps the load factor for both strategies on a fresh table (the
//! setting §7 describes) and reports the queryability difference.

use dta_core::config::WriteStrategy;

use crate::report::{pct, table};
use crate::storesim::{run, StoreSimParams};
use crate::Scale;

/// One comparison point.
#[derive(Debug, Clone, PartialEq)]
pub struct CasPoint {
    /// Load factor.
    pub alpha: f64,
    /// Success rate with plain double-WRITE.
    pub plain: f64,
    /// Success rate with WRITE + CAS.
    pub cas: f64,
}

/// Run the sweep.
pub fn run_cas(scale: Scale, seed: u64) -> Vec<CasPoint> {
    let slots = ((1u64 << 16) * scale.0).max(1 << 14);
    let mut points = Vec::new();
    for &alpha in &[0.25f64, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0] {
        let keys = (alpha * slots as f64) as u64;
        let success = |strategy| {
            run(
                StoreSimParams {
                    slots,
                    keys,
                    copies: 2,
                    strategy,
                    seed,
                    ..StoreSimParams::default()
                },
                1,
            )
            .success_rate()
        };
        points.push(CasPoint {
            alpha,
            plain: success(WriteStrategy::AllSlots),
            cas: success(WriteStrategy::WriteThenCas),
        });
    }
    points
}

/// Render the sweep.
pub fn cas_table(points: &[CasPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.alpha),
                pct(p.plain),
                pct(p.cas),
                format!("{:+.1}pp", (p.cas - p.plain) * 100.0),
            ]
        })
        .collect();
    table(
        "§7 — WRITE+CAS vs 2×WRITE on a fresh table (N=2, plurality)",
        &["load α", "2×WRITE", "WRITE+CAS", "delta"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cas_wins_in_the_fresh_table_regime() {
        let points = run_cas(Scale(1), 0xCA5);
        // §7: "simulations show [it] can potentially improve
        // queryability" — it should win at moderate-to-heavy load on a
        // fresh table.
        let heavy: Vec<_> = points.iter().filter(|p| p.alpha >= 1.0).collect();
        assert!(!heavy.is_empty());
        for p in heavy {
            assert!(
                p.cas >= p.plain - 0.005,
                "α={}: cas {} should not lose to plain {}",
                p.alpha,
                p.cas,
                p.plain
            );
        }
        let at_1 = points.iter().find(|p| p.alpha == 1.0).unwrap();
        assert!(
            at_1.cas > at_1.plain + 0.01,
            "α=1: expected a clear CAS win, got {} vs {}",
            at_1.cas,
            at_1.plain
        );
    }

    #[test]
    fn table_renders() {
        let t = cas_table(&run_cas(Scale(1), 1));
        assert!(t.contains("WRITE+CAS"));
    }
}
