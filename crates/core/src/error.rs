//! Fallible-path errors for the selection pipeline and the advisor
//! session API built on top of it.

use crate::pipeline::ReasoningMode;
use rdf_query::parser::ParseError;

/// Everything that can go wrong while configuring or running view
/// selection.
///
/// Before this type existed the pipeline panicked on misconfiguration
/// (`expect("… needs a schema")`); every fallible entry point now returns
/// `Result<_, SelectionError>` instead.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectionError {
    /// The chosen [`ReasoningMode`] needs an RDF Schema, but none was
    /// provided.
    SchemaRequired(ReasoningMode),
    /// The workload has no queries; a state needs at least one rewriting.
    EmptyWorkload,
    /// A workload query failed to parse.
    Parse(ParseError),
    /// The search ran out of its state or time budget before completing,
    /// and the caller asked for that to be an error
    /// (`SelectionOptions::fail_on_exhausted_budget`).
    BudgetExhausted {
        /// States created before the budget ran out.
        created: u64,
    },
    /// A query index outside the workload (or recommendation) was
    /// referenced.
    UnknownQuery {
        /// The offending index.
        index: usize,
        /// The number of known queries.
        len: usize,
    },
    /// A group search panicked on a worker thread of the partitioned
    /// scheduler. The panic is captured and surfaced instead of aborting
    /// the process (a panicking `thread::scope` join would otherwise
    /// propagate and take the whole selection down).
    SearchPanicked {
        /// The panic payload, stringified.
        detail: String,
    },
    /// A prepared session was asked to run under a different reasoning
    /// mode than it was built for.
    ModeMismatch {
        /// The mode the session was prepared for.
        prepared: ReasoningMode,
        /// The mode the call requested.
        requested: ReasoningMode,
    },
    /// No complete views-only rewriting of an ad-hoc query exists over the
    /// deployed views. Returned by planning under the views-only answer
    /// policy instead of silently wrong (or empty) answers; a hybrid or
    /// base-fallback policy would answer the query.
    NoViewsOnlyPlan {
        /// Query atoms left uncovered by the best hybrid cover.
        residual_atoms: usize,
    },
    /// A query that cannot be handled: a workload query (or one of its
    /// reformulation branches) that is unsafe or has a Cartesian product,
    /// refused before the search starts; or an ad-hoc query the planner
    /// cannot plan (unsafe head variable, empty body, too many atoms, or a
    /// reformulation that exceeds the branch limit).
    UnsupportedQuery {
        /// Why the query was rejected.
        reason: String,
    },
    /// A query plan was executed on a deployment other than the one that
    /// produced it. Plans bind the view ids of their own deployment;
    /// running them elsewhere could silently read the wrong view tables.
    ForeignPlan,
    /// An operating-system I/O failure on a durability path (snapshot
    /// write, WAL append, recovery read). The OS error travels as a string
    /// so the type stays `Clone + PartialEq`.
    Io {
        /// What was being attempted (e.g. `"writing snapshot /data/x"`).
        context: String,
        /// The OS error message.
        message: String,
    },
    /// A snapshot bundle failed validation: bad magic, unsupported format
    /// version, a section checksum mismatch, or inconsistent contents.
    /// Detected at load time — a bundle that decodes is fully trusted at
    /// query time.
    CorruptBundle {
        /// The first defect found.
        detail: String,
    },
    /// The write-ahead log ends in an incomplete (torn) record. Recovery
    /// drops the tail and succeeds; strict verification surfaces it as
    /// this error.
    WalTornTail {
        /// Byte offset of the first incomplete record.
        offset: u64,
    },
}

impl std::fmt::Display for SelectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectionError::SchemaRequired(mode) => {
                write!(f, "{mode:?} reasoning requires a schema; none was provided")
            }
            SelectionError::EmptyWorkload => write!(f, "the workload is empty"),
            SelectionError::Parse(e) => write!(f, "workload query: {e}"),
            SelectionError::BudgetExhausted { created } => {
                write!(f, "search budget exhausted after creating {created} states")
            }
            SelectionError::UnknownQuery { index, len } => {
                write!(f, "query index {index} out of range (workload has {len})")
            }
            SelectionError::SearchPanicked { detail } => {
                write!(f, "a group search thread panicked: {detail}")
            }
            SelectionError::ModeMismatch {
                prepared,
                requested,
            } => write!(
                f,
                "session was prepared for {prepared:?} reasoning but {requested:?} was requested"
            ),
            SelectionError::NoViewsOnlyPlan { residual_atoms } => write!(
                f,
                "no complete views-only rewriting exists over the deployed views \
                 ({residual_atoms} atom(s) uncovered); use the Hybrid or BaseFallback policy"
            ),
            SelectionError::UnsupportedQuery { reason } => {
                write!(f, "unsupported query: {reason}")
            }
            SelectionError::ForeignPlan => write!(
                f,
                "the query plan was produced by a different deployment; re-plan on this one"
            ),
            SelectionError::Io { context, message } => {
                write!(f, "i/o failure while {context}: {message}")
            }
            SelectionError::CorruptBundle { detail } => {
                write!(f, "corrupt snapshot bundle: {detail}")
            }
            SelectionError::WalTornTail { offset } => write!(
                f,
                "write-ahead log has a torn tail record at byte {offset}; \
                 recover() drops it and replays the valid prefix"
            ),
        }
    }
}

impl std::error::Error for SelectionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SelectionError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for SelectionError {
    fn from(e: ParseError) -> Self {
        SelectionError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_mode() {
        let e = SelectionError::SchemaRequired(ReasoningMode::Saturation);
        assert!(e.to_string().contains("Saturation"));
        let e = SelectionError::UnknownQuery { index: 4, len: 2 };
        assert!(e.to_string().contains('4'));
    }

    #[test]
    fn durability_errors_display_their_payloads() {
        let e = SelectionError::Io {
            context: "writing snapshot /x".into(),
            message: "disk full".into(),
        };
        assert!(e.to_string().contains("disk full"));
        let e = SelectionError::CorruptBundle {
            detail: "section 3 checksum mismatch".into(),
        };
        assert!(e.to_string().contains("checksum"));
        let e = SelectionError::WalTornTail { offset: 42 };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn parse_errors_convert() {
        let p = ParseError {
            offset: 3,
            message: "bad token".into(),
        };
        let e: SelectionError = p.clone().into();
        assert_eq!(e, SelectionError::Parse(p));
        assert!(std::error::Error::source(&e).is_some());
    }
}
