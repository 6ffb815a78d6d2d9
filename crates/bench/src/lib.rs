//! # dta-bench — regenerating every table and figure of the paper
//!
//! Each module computes the data behind one artifact of the paper's
//! evaluation; the `repro` binary prints them as paper-shaped tables and
//! the Criterion benches under `benches/` measure the performance-
//! critical paths. Shared between both so numbers cannot drift apart.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig1`] | Figure 1(a): cores for pure packet I/O; Figure 1(b): I/O vs storage cycle breakdown |
//! | [`fig3`] | Figure 3: query success vs load factor for N ∈ {1..4}, with optimal-N bands |
//! | [`fig4`] | Figure 4: INT path-tracing queryability vs report age at 30/100/300 B per flow |
//! | [`fig5`] | Figure 5: wrong-answer probability vs storage for checksum widths |
//! | [`table1`] | Table 1: all six telemetry backends through one collector |
//! | [`cas`] | §7: WRITE+CAS strategy vs plain double-WRITE |
//! | [`theory`] | §4: simulation vs closed-form bounds |
//! | [`e2e`] | §5/§6 cross-check: full-stack fat-tree sim vs theory |
//! | [`ext`] | §5.1 adaptive N, §7 native multi-write, §2 event filtering |
//! | [`fit`] | §6: switch resources of the DART program vs collector count |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cas;
pub mod e2e;
pub mod ext;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fit;
pub mod report;
pub mod storesim;
pub mod table1;
pub mod theory;

/// Scale knob for simulation sizes: 1 = quick (CI-friendly), larger
/// values increase key counts toward paper scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub u64);

impl Scale {
    /// Default key count for store-level sweeps.
    pub fn keys(&self) -> u64 {
        100_000 * self.0
    }

    /// Default slot count (power of two near the key count).
    pub fn slots_for_load(&self, alpha: f64) -> u64 {
        ((self.keys() as f64 / alpha).round() as u64).max(16)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale(1)
    }
}
