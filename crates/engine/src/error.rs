//! [`KboostError`] — the workspace-wide error taxonomy.
//!
//! Before the engine existed every layer reported failure its own way:
//! `Result<_, String>` on the CLI paths, panics on config mistakes
//! (`apply_epoch`'s contiguity assert), and per-crate error enums
//! ([`BuildError`], [`TreeError`], [`IoError`]) that no caller could hold
//! in one variable. `KboostError` unifies them: the engine validates
//! configuration into [`Config`](KboostError::Config) errors up front and
//! wraps the substrate errors via `From`, so a service can match on one
//! type end to end.

use std::fmt;

use kboost_graph::io::IoError;
use kboost_graph::BuildError;
use kboost_online::{InterruptCause, MutationError, OnlineError};
use kboost_tree::TreeError;

/// Any error the kboost workspace can produce through the engine API.
#[derive(Clone, Debug, PartialEq)]
pub enum KboostError {
    /// A configuration field failed validation in
    /// [`EngineBuilder::build`](crate::EngineBuilder::build) (or one of the
    /// scenario wrappers).
    Config {
        /// The offending builder field.
        field: &'static str,
        /// Human-readable explanation of the constraint that was violated.
        message: String,
    },
    /// Graph assembly failed (bad endpoint, self-loop, invalid probability
    /// pair, duplicate edge).
    Graph(BuildError),
    /// The graph could not be interpreted as a bidirected tree (required
    /// by [`Algorithm::TreeExact`](crate::Algorithm::TreeExact)).
    Tree(TreeError),
    /// Graph IO failed (edge-list parse or filesystem error). Rendered to
    /// text because `std::io::Error` is neither `Clone` nor `PartialEq`.
    Io(String),
    /// The requested operation is not supported under the engine's
    /// configuration (e.g. online maintenance without fixed-size
    /// sampling).
    Unsupported {
        /// The operation that was attempted.
        operation: &'static str,
        /// Why the configuration rules it out.
        reason: String,
    },
    /// A mutation epoch was applied out of order; epochs must be applied
    /// contiguously or the refresh seed streams would diverge from the
    /// replay oracle's.
    EpochOrder {
        /// The epoch the engine expected next.
        expected: u64,
        /// The epoch that was submitted.
        got: u64,
    },
    /// A mutation batch failed ingress validation (out-of-universe
    /// endpoint, self-loop); nothing was applied.
    Mutation(MutationError),
    /// An epoch's refresh sampling was cancelled by a
    /// [`Budget`](crate::Budget) or panicked; the maintained pool was
    /// rolled back byte-identically to its pre-epoch state and the same
    /// batch can be retried verbatim.
    Interrupted {
        /// The epoch whose refresh was interrupted.
        epoch: u64,
        /// Whether the refresh was cancelled or panicked.
        cause: InterruptCause,
    },
}

impl fmt::Display for KboostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KboostError::Config { field, message } => {
                write!(f, "invalid config `{field}`: {message}")
            }
            KboostError::Graph(e) => write!(f, "graph error: {e}"),
            KboostError::Tree(e) => write!(f, "tree error: {e}"),
            KboostError::Io(e) => write!(f, "io error: {e}"),
            KboostError::Unsupported { operation, reason } => {
                write!(f, "unsupported operation `{operation}`: {reason}")
            }
            KboostError::EpochOrder { expected, got } => write!(
                f,
                "mutation epochs must be applied contiguously: expected epoch {expected}, \
                 got {got}"
            ),
            KboostError::Mutation(e) => write!(f, "invalid mutation batch: {e}"),
            KboostError::Interrupted { epoch, cause } => {
                write!(f, "epoch {epoch} refresh {cause}; pool rolled back")
            }
        }
    }
}

impl std::error::Error for KboostError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KboostError::Graph(e) => Some(e),
            KboostError::Tree(e) => Some(e),
            KboostError::Mutation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildError> for KboostError {
    fn from(e: BuildError) -> Self {
        KboostError::Graph(e)
    }
}

impl From<TreeError> for KboostError {
    fn from(e: TreeError) -> Self {
        KboostError::Tree(e)
    }
}

impl From<IoError> for KboostError {
    fn from(e: IoError) -> Self {
        KboostError::Io(e.to_string())
    }
}

impl From<MutationError> for KboostError {
    fn from(e: MutationError) -> Self {
        KboostError::Mutation(e)
    }
}

impl From<OnlineError> for KboostError {
    fn from(e: OnlineError) -> Self {
        match e {
            OnlineError::Mutation(m) => KboostError::Mutation(m),
            OnlineError::EpochOrder { expected, got } => KboostError::EpochOrder { expected, got },
            OnlineError::Interrupted { epoch, cause } => KboostError::Interrupted { epoch, cause },
        }
    }
}

/// Shorthand constructor for [`KboostError::Config`].
pub(crate) fn config_err(field: &'static str, message: impl Into<String>) -> KboostError {
    KboostError::Config {
        field,
        message: message.into(),
    }
}
