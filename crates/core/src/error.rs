//! Error types for the DART core.

/// Errors raised by the DART store, writer and query engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DartError {
    /// A value had a different length than the configured slot layout.
    ValueLength {
        /// Configured value length in bytes.
        expected: usize,
        /// Length of the value that was supplied.
        actual: usize,
    },
    /// A configuration parameter is out of range.
    InvalidConfig(&'static str),
    /// A slot index fell outside the store.
    SlotOutOfRange {
        /// The offending slot index.
        slot: u64,
        /// Number of slots in the store.
        slots: u64,
    },
    /// The provided memory buffer does not match the configured geometry.
    GeometryMismatch {
        /// Bytes required by the configuration.
        expected: usize,
        /// Bytes provided.
        actual: usize,
    },
    /// An epoch id referenced historical data that does not exist.
    UnknownEpoch(u64),
    /// An epoch rotation was refused: a recovery sweep still addresses
    /// the live region.
    SweepInProgress,
}

impl core::fmt::Display for DartError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DartError::ValueLength { expected, actual } => {
                write!(f, "value length {actual} != configured {expected}")
            }
            DartError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DartError::SlotOutOfRange { slot, slots } => {
                write!(f, "slot {slot} out of range (store has {slots})")
            }
            DartError::GeometryMismatch { expected, actual } => {
                write!(f, "memory is {actual} bytes, geometry needs {expected}")
            }
            DartError::UnknownEpoch(id) => write!(f, "unknown epoch {id}"),
            DartError::SweepInProgress => write!(f, "a recovery sweep is in progress"),
        }
    }
}

impl std::error::Error for DartError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            DartError::ValueLength {
                expected: 20,
                actual: 4
            }
            .to_string(),
            "value length 4 != configured 20"
        );
        assert_eq!(
            DartError::InvalidConfig("copies must be >= 1").to_string(),
            "invalid configuration: copies must be >= 1"
        );
        assert_eq!(
            DartError::SlotOutOfRange { slot: 9, slots: 8 }.to_string(),
            "slot 9 out of range (store has 8)"
        );
        assert_eq!(DartError::UnknownEpoch(3).to_string(), "unknown epoch 3");
    }
}
