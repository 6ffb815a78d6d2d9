//! # dta-core — the DART algorithm and data structure
//!
//! DART (Distributed Aggregation of Rich Telemetry) treats collector
//! memory as one large, coordination-free key-value hash table:
//!
//! 1. a *stateless global mapping* ([`hash`]) sends every telemetry key to
//!    a collector and, per redundant copy `i ∈ [0, N)`, to a memory slot;
//! 2. each slot stores a `b`-bit *key checksum* next to the value
//!    ([`dta_wire::dart::SlotLayout`]);
//! 3. writers — the switch's `dta_switch::egress::DartEgress` and, in
//!    simulation, [`DartStore::insert`] — blindly overwrite their `N`
//!    slots: no reads, no locks, no inter-switch coordination;
//! 4. readers ([`query`]) recompute the same mapping, fetch the `N` slots,
//!    discard checksum mismatches and decide an answer under a
//!    configurable *return policy* (§4 of the paper).
//!
//! The store itself ([`store`]) is just bytes — the same layout whether it
//! lives in a `Vec<u8>` for simulation or inside a registered RDMA memory
//! region written by switches (see `dta-rdma` / `dta-collector`).
//!
//! Extensions from the paper's discussion section are also here: the
//! write-then-compare-and-swap strategy ([`cas`], §7) and epoch-based
//! historical storage ([`epoch`], §5.2.1).
//!
//! ```
//! use dta_core::{config::DartConfig, store::DartStore, query::QueryOutcome};
//!
//! let config = DartConfig::builder()
//!     .slots(1 << 12)
//!     .copies(2)
//!     .value_len(20)
//!     .build()
//!     .unwrap();
//! let mut store = DartStore::new(config);
//! store.insert(b"flow:10.0.0.1->10.0.1.9", &[7u8; 20]).unwrap();
//! match store.query(b"flow:10.0.0.1->10.0.1.9") {
//!     dta_core::query::QueryOutcome::Answer(value) => assert_eq!(value, vec![7u8; 20]),
//!     dta_core::query::QueryOutcome::Empty => unreachable!("just inserted"),
//! }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod cas;
pub mod config;
pub mod epoch;
pub mod error;
pub mod hash;
pub mod primitive;
pub mod query;
pub mod sketch;
pub mod store;

pub use config::DartConfig;
pub use error::DartError;
pub use primitive::{PrimitiveKind, PrimitiveSpec};
pub use query::{DecisionReason, QueryOutcome, ReturnPolicy};
pub use store::{DartStore, SlotProbe, StoreExplain};
