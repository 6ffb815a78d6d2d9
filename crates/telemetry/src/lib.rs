//! # dta-telemetry — measurement backends on the DART key-value schema
//!
//! DART "does not place any specific restriction on the underlying
//! measurement framework" (§3): any telemetry technique that can phrase
//! its reports as `(key, value)` pairs can ride the direct-access path.
//! Table 1 of the paper lists six such backends; this crate implements
//! each one's key and value encodings:
//!
//! | Backend | Key | Value | Module |
//! |---|---|---|---|
//! | In-band INT | flow 5-tuple | packet-carried data (path trace) | [`int_path`] |
//! | Postcards | switch ID ‖ 5-tuple | local measurement | [`postcard`] |
//! | Query-based mirroring | query ID | query answer | [`query_mirror`] |
//! | Trace analysis | trace ID ‖ analysis kind | analysis output | [`trace`] |
//! | Flow anomalies | 5-tuple ‖ anomaly ID | time + event data | [`anomaly`] |
//! | Network failures | failure ID ‖ location | time + debug info | [`failure`] |
//!
//! Key encodings are *domain separated* (a leading tag byte per backend)
//! so the same collector region can hold several backends at once without
//! cross-backend key collisions being systematic.
//!
//! All value encodings are fixed-size per backend — DART slots are
//! fixed-size — and every encode has a decode with round-trip tests.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod anomaly;
pub mod event;
pub mod failure;
pub mod flow_count;
pub mod int_path;
pub mod postcard;
pub mod query_mirror;
pub mod trace;

pub use event::{Backend, TelemetryRecord};
