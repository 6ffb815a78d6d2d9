//! The query path: from `N` raw slots to an answer (or no answer).
//!
//! Reading a key fetches its `N` slots, keeps the values whose stored
//! checksum matches the key's, and then a *return policy* decides what to
//! answer (§4). Policies trade **empty returns** (no answer although the
//! key was reported) against **return errors** (a wrong value returned
//! because an overwriting key collided on both slot address and
//! checksum):
//!
//! * [`ReturnPolicy::UniqueValue`] — the paper's introductory scheme:
//!   answer only if exactly one *distinct* value matches.
//! * [`ReturnPolicy::FirstMatch`] — answer the first matching value;
//!   maximally answerable, maximally error-prone (used to measure Fig. 5's
//!   worst case).
//! * [`ReturnPolicy::Plurality`] — the paper's suggested default: majority
//!   vote among matching values, ties treated as empty.
//! * [`ReturnPolicy::Consensus`] — require at least `k` identical matching
//!   values; chooses fewer errors at the cost of more empties, decidable
//!   per query without changing stored state.

/// How to turn matching slot values into an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReturnPolicy {
    /// Answer iff exactly one distinct value matches the checksum.
    UniqueValue,
    /// Answer the first checksum-matching value.
    FirstMatch,
    /// Plurality vote among matching values; ties → empty.
    Plurality,
    /// Require at least this many identical matching values (≥ 2).
    Consensus(u8),
}

/// The result of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// A value was returned (it may still be wrong — see
    /// [`QueryClass::ReturnError`]).
    Answer(Vec<u8>),
    /// No answer could be determined ("empty return", §4).
    Empty,
}

impl QueryOutcome {
    /// The answered value, if any.
    pub fn value(&self) -> Option<&[u8]> {
        match self {
            QueryOutcome::Answer(v) => Some(v),
            QueryOutcome::Empty => None,
        }
    }

    /// Whether an answer was returned.
    pub fn is_answer(&self) -> bool {
        matches!(self, QueryOutcome::Answer(_))
    }
}

/// Ground-truth classification of an outcome (§4 terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// The correct value was returned.
    Correct,
    /// No value was returned although the key had been reported.
    EmptyReturn,
    /// A wrong value was returned.
    ReturnError,
}

/// Classify `outcome` against the true value of the key.
pub fn classify(outcome: &QueryOutcome, truth: &[u8]) -> QueryClass {
    match outcome {
        QueryOutcome::Empty => QueryClass::EmptyReturn,
        QueryOutcome::Answer(v) if v == truth => QueryClass::Correct,
        QueryOutcome::Answer(_) => QueryClass::ReturnError,
    }
}

/// Why a return policy answered or abstained — the §4 taxonomy made
/// directly inspectable (the query-explain API surfaces these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// No slot held a value whose checksum matched the key.
    NoSlotMatched,
    /// The policy answered; `votes` matching slots agreed on the value
    /// (1 for [`ReturnPolicy::FirstMatch`], which never counts).
    Answered {
        /// Matching slots that carried the returned value.
        votes: u8,
    },
    /// [`ReturnPolicy::UniqueValue`] saw more than one distinct
    /// matching value and abstained.
    ConflictingValues,
    /// [`ReturnPolicy::Plurality`] found no strict winner.
    PluralityTie,
    /// [`ReturnPolicy::Consensus`] found a winner with too few votes.
    BelowConsensus {
        /// Votes required.
        needed: u8,
        /// Votes the best value actually had.
        got: u8,
    },
    /// The policy answered from a slot that a recovery sweep wrote back
    /// after its primary collector returned from the dead. Never
    /// produced by [`decide_explain`] itself — the cluster's failover
    /// router rewrites [`DecisionReason::Answered`] into this variant
    /// when the answering key is known to have been re-replicated, so
    /// explain traces show the answer survived an outage.
    RereplicatedCopy {
        /// Matching slots that carried the returned value.
        votes: u8,
    },
}

impl DecisionReason {
    /// A stable snake_case name for counters, exporters and event logs.
    pub fn name(&self) -> &'static str {
        match self {
            DecisionReason::NoSlotMatched => "no_slot_matched",
            DecisionReason::Answered { .. } => "answered",
            DecisionReason::ConflictingValues => "conflicting_values",
            DecisionReason::PluralityTie => "plurality_tie",
            DecisionReason::BelowConsensus { .. } => "below_consensus",
            DecisionReason::RereplicatedCopy { .. } => "rereplicated_copy",
        }
    }

    /// Whether the reason corresponds to an answered query.
    pub fn is_answered(&self) -> bool {
        matches!(
            self,
            DecisionReason::Answered { .. } | DecisionReason::RereplicatedCopy { .. }
        )
    }
}

/// Apply a return policy to the checksum-matching values of a key's `N`
/// slots (in copy order).
pub fn decide(matches: &[&[u8]], policy: ReturnPolicy) -> QueryOutcome {
    decide_explain(matches, policy).0
}

/// Apply a return policy and say why it answered or abstained.
pub fn decide_explain(matches: &[&[u8]], policy: ReturnPolicy) -> (QueryOutcome, DecisionReason) {
    let Some(&first) = matches.first() else {
        return (QueryOutcome::Empty, DecisionReason::NoSlotMatched);
    };
    let votes = |count: usize| count.min(u8::MAX as usize) as u8;
    match policy {
        ReturnPolicy::FirstMatch => (
            QueryOutcome::Answer(first.to_vec()),
            DecisionReason::Answered { votes: 1 },
        ),
        ReturnPolicy::UniqueValue => {
            if matches.iter().all(|&v| v == first) {
                (
                    QueryOutcome::Answer(first.to_vec()),
                    DecisionReason::Answered {
                        votes: votes(matches.len()),
                    },
                )
            } else {
                (QueryOutcome::Empty, DecisionReason::ConflictingValues)
            }
        }
        ReturnPolicy::Plurality => {
            let (winner, count, tied) = plurality(matches);
            if tied || count == 0 {
                (QueryOutcome::Empty, DecisionReason::PluralityTie)
            } else {
                (
                    QueryOutcome::Answer(winner.to_vec()),
                    DecisionReason::Answered {
                        votes: votes(count),
                    },
                )
            }
        }
        ReturnPolicy::Consensus(k) => {
            let k = usize::from(k.max(2));
            let (winner, count, tied) = plurality(matches);
            if !tied && count >= k {
                (
                    QueryOutcome::Answer(winner.to_vec()),
                    DecisionReason::Answered {
                        votes: votes(count),
                    },
                )
            } else if tied {
                (QueryOutcome::Empty, DecisionReason::PluralityTie)
            } else {
                (
                    QueryOutcome::Empty,
                    DecisionReason::BelowConsensus {
                        needed: votes(k),
                        got: votes(count),
                    },
                )
            }
        }
    }
}

/// Find the most frequent value among the non-empty `matches`;
/// returns `(value, count, tie)`.
fn plurality<'a>(matches: &[&'a [u8]]) -> (&'a [u8], usize, bool) {
    let mut best = matches[0];
    let mut best_count = 0usize;
    let mut tie = false;
    // N is tiny (≤ 4 in practice); quadratic counting beats hashing.
    for (i, &candidate) in matches.iter().enumerate() {
        // Count only the first occurrence of each distinct value.
        if matches[..i].contains(&candidate) {
            continue;
        }
        let count = matches.iter().filter(|&&v| v == candidate).count();
        match count.cmp(&best_count) {
            core::cmp::Ordering::Greater => {
                best = candidate;
                best_count = count;
                tie = false;
            }
            core::cmp::Ordering::Equal => tie = true,
            core::cmp::Ordering::Less => {}
        }
    }
    (best, best_count, tie)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &[u8] = b"aaaa";
    const B: &[u8] = b"bbbb";
    const C: &[u8] = b"cccc";

    #[test]
    fn no_matches_is_empty_for_all_policies() {
        for policy in [
            ReturnPolicy::UniqueValue,
            ReturnPolicy::FirstMatch,
            ReturnPolicy::Plurality,
            ReturnPolicy::Consensus(2),
        ] {
            assert_eq!(decide(&[], policy), QueryOutcome::Empty);
        }
    }

    #[test]
    fn unique_value_semantics() {
        assert_eq!(
            decide(&[A, A], ReturnPolicy::UniqueValue),
            QueryOutcome::Answer(A.to_vec())
        );
        // Two distinct values with matching checksums → empty (§4).
        assert_eq!(
            decide(&[A, B], ReturnPolicy::UniqueValue),
            QueryOutcome::Empty
        );
        assert_eq!(
            decide(&[A], ReturnPolicy::UniqueValue),
            QueryOutcome::Answer(A.to_vec())
        );
    }

    #[test]
    fn first_match_semantics() {
        assert_eq!(
            decide(&[B, A], ReturnPolicy::FirstMatch),
            QueryOutcome::Answer(B.to_vec())
        );
    }

    #[test]
    fn plurality_semantics() {
        assert_eq!(
            decide(&[A, B, A], ReturnPolicy::Plurality),
            QueryOutcome::Answer(A.to_vec())
        );
        // 2-2 tie → empty.
        assert_eq!(
            decide(&[A, B, A, B], ReturnPolicy::Plurality),
            QueryOutcome::Empty
        );
        // Singleton is a plurality of one.
        assert_eq!(
            decide(&[C], ReturnPolicy::Plurality),
            QueryOutcome::Answer(C.to_vec())
        );
        // 1-1-1 tie → empty.
        assert_eq!(
            decide(&[A, B, C], ReturnPolicy::Plurality),
            QueryOutcome::Empty
        );
    }

    #[test]
    fn consensus_semantics() {
        assert_eq!(
            decide(&[A], ReturnPolicy::Consensus(2)),
            QueryOutcome::Empty
        );
        assert_eq!(
            decide(&[A, A], ReturnPolicy::Consensus(2)),
            QueryOutcome::Answer(A.to_vec())
        );
        assert_eq!(
            decide(&[A, A, B], ReturnPolicy::Consensus(2)),
            QueryOutcome::Answer(A.to_vec())
        );
        assert_eq!(
            decide(&[A, A, B], ReturnPolicy::Consensus(3)),
            QueryOutcome::Empty
        );
        // Consensus below 2 is clamped to 2.
        assert_eq!(
            decide(&[A], ReturnPolicy::Consensus(0)),
            QueryOutcome::Empty
        );
    }

    #[test]
    fn classification() {
        assert_eq!(
            classify(&QueryOutcome::Answer(A.to_vec()), A),
            QueryClass::Correct
        );
        assert_eq!(
            classify(&QueryOutcome::Answer(B.to_vec()), A),
            QueryClass::ReturnError
        );
        assert_eq!(classify(&QueryOutcome::Empty, A), QueryClass::EmptyReturn);
    }

    #[test]
    fn explain_reasons_match_outcomes() {
        // Empty slot set: every policy reports NoSlotMatched.
        for policy in [
            ReturnPolicy::UniqueValue,
            ReturnPolicy::FirstMatch,
            ReturnPolicy::Plurality,
            ReturnPolicy::Consensus(2),
        ] {
            assert_eq!(
                decide_explain(&[], policy),
                (QueryOutcome::Empty, DecisionReason::NoSlotMatched)
            );
        }
        assert_eq!(
            decide_explain(&[A, B], ReturnPolicy::UniqueValue).1,
            DecisionReason::ConflictingValues
        );
        assert_eq!(
            decide_explain(&[A, A], ReturnPolicy::UniqueValue).1,
            DecisionReason::Answered { votes: 2 }
        );
        assert_eq!(
            decide_explain(&[A, B], ReturnPolicy::Plurality).1,
            DecisionReason::PluralityTie
        );
        assert_eq!(
            decide_explain(&[A, A, B], ReturnPolicy::Plurality).1,
            DecisionReason::Answered { votes: 2 }
        );
        assert_eq!(
            decide_explain(&[A, A, B], ReturnPolicy::Consensus(3)).1,
            DecisionReason::BelowConsensus { needed: 3, got: 2 }
        );
        assert_eq!(
            decide_explain(&[A, B], ReturnPolicy::Consensus(2)).1,
            DecisionReason::PluralityTie
        );
        assert_eq!(
            decide_explain(&[B, A], ReturnPolicy::FirstMatch).1,
            DecisionReason::Answered { votes: 1 }
        );
    }

    #[test]
    fn decide_is_explain_outcome() {
        // decide() must stay a thin wrapper: same outcome on shapes
        // covering every reason.
        for matches in [
            &[][..],
            &[A][..],
            &[A, A][..],
            &[A, B][..],
            &[A, A, B][..],
            &[A, B, C][..],
        ] {
            for policy in [
                ReturnPolicy::UniqueValue,
                ReturnPolicy::FirstMatch,
                ReturnPolicy::Plurality,
                ReturnPolicy::Consensus(2),
                ReturnPolicy::Consensus(3),
            ] {
                assert_eq!(decide(matches, policy), decide_explain(matches, policy).0);
            }
        }
    }

    #[test]
    fn reason_names_are_stable() {
        assert_eq!(DecisionReason::NoSlotMatched.name(), "no_slot_matched");
        assert_eq!(DecisionReason::Answered { votes: 2 }.name(), "answered");
        assert_eq!(
            DecisionReason::BelowConsensus { needed: 3, got: 1 }.name(),
            "below_consensus"
        );
        assert_eq!(
            DecisionReason::RereplicatedCopy { votes: 2 }.name(),
            "rereplicated_copy"
        );
    }

    #[test]
    fn answered_reasons_are_flagged() {
        assert!(DecisionReason::Answered { votes: 1 }.is_answered());
        assert!(DecisionReason::RereplicatedCopy { votes: 1 }.is_answered());
        assert!(!DecisionReason::NoSlotMatched.is_answered());
        assert!(!DecisionReason::ConflictingValues.is_answered());
        assert!(!DecisionReason::PluralityTie.is_answered());
        assert!(!DecisionReason::BelowConsensus { needed: 2, got: 1 }.is_answered());
    }

    #[test]
    fn outcome_helpers() {
        let answer = QueryOutcome::Answer(A.to_vec());
        assert!(answer.is_answer());
        assert_eq!(answer.value(), Some(A));
        assert!(!QueryOutcome::Empty.is_answer());
        assert_eq!(QueryOutcome::Empty.value(), None);
    }
}
