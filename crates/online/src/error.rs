//! Typed errors of the online subsystem — the "never panic mid-service"
//! contract.
//!
//! Ingress validation ([`validate_mutations`](crate::validate_mutations))
//! rejects malformed batches with a [`MutationError`] before anything is
//! touched; epoch application returns [`OnlineError`] for every failure
//! mode — bad batch, misconfigured staleness, out-of-order epoch, or an
//! interrupted/panicked refresh — and in each case the maintainer's state
//! (graph, epoch counter, arena bytes) is exactly what it was before the
//! call.

use std::fmt;

use kboost_graph::{BuildError, NodeId};

/// Why a mutation batch was rejected at ingress.
#[derive(Clone, Debug, PartialEq)]
pub enum MutationError {
    /// A mutation endpoint is outside the fixed node universe `0..n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// The universe size.
        n: usize,
    },
    /// A mutation references the self-loop `(u, u)`, which the diffusion
    /// model has no use for and the graph builder rejects everywhere.
    SelfLoop {
        /// The looped node.
        node: NodeId,
    },
    /// Rebuilding the mutated edge set failed in the graph builder.
    /// Unreachable for batches that passed ingress validation (the
    /// remaining builder checks — probability ranges, duplicate edges —
    /// are enforced by construction of [`Mutation`](crate::Mutation)),
    /// kept typed so no path panics.
    Rebuild(BuildError),
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::NodeOutOfRange { node, n } => {
                write!(
                    f,
                    "mutation endpoint {node} out of range for graph with {n} nodes"
                )
            }
            MutationError::SelfLoop { node } => {
                write!(f, "mutation references self-loop on node {node}")
            }
            MutationError::Rebuild(e) => write!(f, "mutated edge set failed to rebuild: {e}"),
        }
    }
}

impl std::error::Error for MutationError {}

/// Why a refresh was interrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterruptCause {
    /// A [`Terminator`](kboost_rrset::Terminator) stopped the refresh
    /// (deadline, budget, or cancel flag).
    Cancelled,
    /// A worker panicked mid-sampling; the panic was contained and the
    /// epoch rolled back.
    Panicked,
}

impl fmt::Display for InterruptCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InterruptCause::Cancelled => "cancelled",
            InterruptCause::Panicked => "panicked",
        })
    }
}

/// A failure of the online maintenance path. Every variant leaves the
/// maintainer byte-identical to its pre-call state.
#[derive(Clone, Debug, PartialEq)]
pub enum OnlineError {
    /// The batch failed ingress validation; nothing was applied.
    Mutation(MutationError),
    /// Epochs must apply contiguously (`expected = current + 1`), or the
    /// refresh seed streams would diverge from the replay oracle's.
    EpochOrder {
        /// The epoch the maintainer would accept next.
        expected: u64,
        /// The epoch the batch carried.
        got: u64,
    },
    /// The epoch's refresh sampling was cancelled or panicked; the pool
    /// was rolled back and the batch can be retried verbatim.
    Interrupted {
        /// The epoch whose refresh was interrupted.
        epoch: u64,
        /// Whether the refresh was cancelled or panicked.
        cause: InterruptCause,
    },
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::Mutation(e) => write!(f, "invalid mutation batch: {e}"),
            OnlineError::EpochOrder { expected, got } => write!(
                f,
                "epochs must be applied contiguously: expected epoch {expected}, got {got}"
            ),
            OnlineError::Interrupted { epoch, cause } => {
                write!(f, "epoch {epoch} refresh {cause}; pool rolled back")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

impl From<MutationError> for OnlineError {
    fn from(e: MutationError) -> Self {
        OnlineError::Mutation(e)
    }
}
