//! Graph mutations, batched into epochs.
//!
//! The node universe is fixed (`0..n`, as everywhere in the workspace);
//! mutations change the edge set and its probabilities. Semantics are
//! *total* — every mutation applies to every graph state:
//!
//! * [`Mutation::Upsert`] inserts the edge or overwrites its probability
//!   pair if it already exists (probability updates and edge insertions
//!   are the same operation on a probabilistic graph);
//! * [`Mutation::Remove`] deletes the edge, a no-op when absent.
//!
//! A [`MutationLog`] accumulates mutations and seals them into numbered
//! [`EpochBatch`]es; epoch numbers start at 1 because epoch 0 is the
//! initial pool build. [`apply_mutations`] is the pure graph-rebuild both
//! the incremental maintainer and the replay oracle share.

use kboost_graph::{DiGraph, EdgeProbs, NodeId};

use crate::error::MutationError;

/// One edge mutation. Construct via the [`MutationLog`] helpers or
/// directly; probability pairs are validated by [`EdgeProbs::new`] before
/// they can exist.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mutation {
    /// Insert edge `(from, to)` with the given probabilities, or overwrite
    /// the pair if the edge exists.
    Upsert {
        /// Edge tail.
        from: NodeId,
        /// Edge head.
        to: NodeId,
        /// The new `(p, p')` pair.
        probs: EdgeProbs,
    },
    /// Remove edge `(from, to)`; no-op when absent.
    Remove {
        /// Edge tail.
        from: NodeId,
        /// Edge head.
        to: NodeId,
    },
}

impl Mutation {
    /// The two endpoints this mutation touches — the staleness footprint
    /// matched against stored node tables.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            Mutation::Upsert { from, to, .. } | Mutation::Remove { from, to } => (from, to),
        }
    }
}

/// A sealed batch of mutations forming one refresh epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochBatch {
    /// Epoch number (1-based: epoch 0 is the initial build).
    pub epoch: u64,
    /// The mutations, in arrival order (later entries win on conflicts).
    pub mutations: Vec<Mutation>,
}

/// Accumulates mutations between refreshes and seals them into epochs.
#[derive(Debug, Default)]
pub struct MutationLog {
    pending: Vec<Mutation>,
    sealed_epochs: u64,
}

impl MutationLog {
    /// An empty log; the first sealed batch will be epoch 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a probability update (or insertion) of edge `(from, to)`.
    pub fn set_probs(&mut self, from: NodeId, to: NodeId, probs: EdgeProbs) {
        self.pending.push(Mutation::Upsert { from, to, probs });
    }

    /// Records an edge insertion — the same operation as
    /// [`set_probs`](Self::set_probs), named for call-site clarity.
    pub fn insert_edge(&mut self, from: NodeId, to: NodeId, probs: EdgeProbs) {
        self.set_probs(from, to, probs);
    }

    /// Records an edge removal.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) {
        self.pending.push(Mutation::Remove { from, to });
    }

    /// The pending (unsealed) mutations, in arrival order — e.g. for a
    /// [`stale_graphs`](crate::maintain::PoolMaintainer::stale_graphs)
    /// dry run before sealing.
    pub fn pending(&self) -> &[Mutation] {
        &self.pending
    }

    /// Number of pending (unsealed) mutations.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no mutations are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Number of epochs sealed so far.
    pub fn sealed_epochs(&self) -> u64 {
        self.sealed_epochs
    }

    /// Seals the pending mutations into the next epoch's batch (which may
    /// be empty — an epoch with nothing to refresh).
    pub fn seal_epoch(&mut self) -> EpochBatch {
        self.sealed_epochs += 1;
        EpochBatch {
            epoch: self.sealed_epochs,
            mutations: std::mem::take(&mut self.pending),
        }
    }
}

/// Ingress validation of a mutation batch against the fixed node
/// universe `0..n`: every endpoint must be in range and no mutation may
/// reference a self-loop (the same rules
/// [`GraphBuilder`](kboost_graph::GraphBuilder) enforces everywhere). The
/// first offending mutation is reported; a batch that validates can never
/// make [`apply_mutations`] fail.
pub fn validate_mutations(n: usize, batch: &[Mutation]) -> Result<(), MutationError> {
    for m in batch {
        let (from, to) = m.endpoints();
        for node in [from, to] {
            if node.index() >= n {
                return Err(MutationError::NodeOutOfRange { node, n });
            }
        }
        if from == to {
            return Err(MutationError::SelfLoop { node: from });
        }
    }
    Ok(())
}

/// Applies a mutation batch to a graph, producing the next epoch's graph.
///
/// Pure and deterministic: the result depends only on the input graph and
/// the batch (mutations apply in order, the last one on an edge wins, and
/// the CSR order is canonical). The CSR is immutable, so an epoch builds
/// a new one: [`DiGraph::with_updates`] merges the batch into both
/// directions in sequential passes, `O(n + m)` copying plus
/// `O(|batch| log |batch|)`, far below the resampling cost the maintainer
/// saves.
///
/// Malformed batches (out-of-range endpoints, self-loops) are rejected
/// with a typed [`MutationError`] by [`validate_mutations`] before the
/// edge set is touched — never a panic, so one bad mutation cannot take
/// down a serving maintainer.
pub fn apply_mutations(g: &DiGraph, batch: &[Mutation]) -> Result<DiGraph, MutationError> {
    validate_mutations(g.num_nodes(), batch)?;
    let updates: Vec<_> = batch
        .iter()
        .map(|m| match *m {
            Mutation::Upsert { from, to, probs } => (from, to, Some(probs)),
            Mutation::Remove { from, to } => (from, to, None),
        })
        .collect();
    g.with_updates(&updates).map_err(MutationError::Rebuild)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kboost_graph::GraphBuilder;

    fn probs(p: f64, pb: f64) -> EdgeProbs {
        EdgeProbs::new(p, pb).unwrap()
    }

    fn line() -> DiGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.2, 0.4).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.1, 0.2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn log_seals_numbered_epochs() {
        let mut log = MutationLog::new();
        assert!(log.is_empty());
        log.set_probs(NodeId(0), NodeId(1), probs(0.3, 0.5));
        log.remove_edge(NodeId(1), NodeId(2));
        assert_eq!(log.len(), 2);
        let b1 = log.seal_epoch();
        assert_eq!(b1.epoch, 1);
        assert_eq!(b1.mutations.len(), 2);
        assert!(log.is_empty());
        let b2 = log.seal_epoch();
        assert_eq!(b2.epoch, 2);
        assert!(b2.mutations.is_empty());
        assert_eq!(log.sealed_epochs(), 2);
    }

    #[test]
    fn upsert_updates_and_inserts() {
        let g = apply_mutations(
            &line(),
            &[
                Mutation::Upsert {
                    from: NodeId(0),
                    to: NodeId(1),
                    probs: probs(0.5, 0.9),
                },
                Mutation::Upsert {
                    from: NodeId(2),
                    to: NodeId(3),
                    probs: probs(0.1, 0.3),
                },
            ],
        )
        .unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge(NodeId(0), NodeId(1)).unwrap(), probs(0.5, 0.9));
        assert_eq!(g.edge(NodeId(1), NodeId(2)).unwrap(), probs(0.1, 0.2));
        assert_eq!(g.edge(NodeId(2), NodeId(3)).unwrap(), probs(0.1, 0.3));
    }

    #[test]
    fn remove_is_total_and_reinsertable() {
        let batch = [
            Mutation::Remove {
                from: NodeId(0),
                to: NodeId(1),
            },
            Mutation::Remove {
                from: NodeId(3),
                to: NodeId(0), // absent: no-op
            },
            Mutation::Upsert {
                from: NodeId(0),
                to: NodeId(1), // re-insert after removal, new probs
                probs: probs(0.7, 0.8),
            },
        ];
        let g = apply_mutations(&line(), &batch).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge(NodeId(0), NodeId(1)).unwrap(), probs(0.7, 0.8));

        // Dropping the re-insert removes the edge for good.
        let g = apply_mutations(&line(), &batch[..2]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn upsert_then_remove_in_one_batch_removes() {
        // Last-write-wins *within* a batch: an Upsert followed by a
        // Remove of the same edge leaves the edge absent, whether the
        // edge pre-existed or was introduced by the Upsert itself.
        let batch = [
            Mutation::Upsert {
                from: NodeId(0),
                to: NodeId(1), // pre-existing edge: update, then drop
                probs: probs(0.9, 0.95),
            },
            Mutation::Remove {
                from: NodeId(0),
                to: NodeId(1),
            },
            Mutation::Upsert {
                from: NodeId(2),
                to: NodeId(3), // fresh edge: insert, then drop
                probs: probs(0.4, 0.8),
            },
            Mutation::Remove {
                from: NodeId(2),
                to: NodeId(3),
            },
        ];
        let g = apply_mutations(&line(), &batch).unwrap();
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(2), NodeId(3)));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn duplicate_edge_mutated_twice_in_one_epoch_is_last_write_wins() {
        // Remove → Upsert → Upsert on one edge within one sealed epoch:
        // the final Upsert's probabilities survive, and the intermediate
        // states are never observable (the epoch applies atomically).
        let mut log = MutationLog::new();
        log.remove_edge(NodeId(0), NodeId(1));
        log.set_probs(NodeId(0), NodeId(1), probs(0.3, 0.5));
        log.set_probs(NodeId(0), NodeId(1), probs(0.6, 0.9));
        let batch = log.seal_epoch();
        assert_eq!(batch.mutations.len(), 3, "no dedup: arrival order kept");
        let g = apply_mutations(&line(), &batch.mutations).unwrap();
        assert_eq!(g.edge(NodeId(0), NodeId(1)).unwrap(), probs(0.6, 0.9));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn later_mutations_win() {
        let g = apply_mutations(
            &line(),
            &[
                Mutation::Upsert {
                    from: NodeId(0),
                    to: NodeId(1),
                    probs: probs(0.3, 0.4),
                },
                Mutation::Upsert {
                    from: NodeId(0),
                    to: NodeId(1),
                    probs: probs(0.6, 0.7),
                },
            ],
        )
        .unwrap();
        assert_eq!(g.edge(NodeId(0), NodeId(1)).unwrap(), probs(0.6, 0.7));
    }

    #[test]
    fn out_of_range_endpoint_is_a_typed_error() {
        // Either endpoint out of `0..n` is rejected at ingress — no panic.
        let bad_head = [Mutation::Upsert {
            from: NodeId(0),
            to: NodeId(9),
            probs: probs(0.1, 0.2),
        }];
        assert_eq!(
            apply_mutations(&line(), &bad_head).unwrap_err(),
            MutationError::NodeOutOfRange {
                node: NodeId(9),
                n: 4
            }
        );
        let bad_tail = [Mutation::Remove {
            from: NodeId(17),
            to: NodeId(0),
        }];
        assert_eq!(
            apply_mutations(&line(), &bad_tail).unwrap_err(),
            MutationError::NodeOutOfRange {
                node: NodeId(17),
                n: 4
            }
        );
    }

    #[test]
    fn self_loop_is_a_typed_error() {
        let batch = [Mutation::Upsert {
            from: NodeId(2),
            to: NodeId(2),
            probs: probs(0.1, 0.2),
        }];
        assert_eq!(
            apply_mutations(&line(), &batch).unwrap_err(),
            MutationError::SelfLoop { node: NodeId(2) }
        );
        // A self-loop *removal* is equally rejected: the edge cannot
        // exist, so the reference is a caller bug either way.
        let removal = [Mutation::Remove {
            from: NodeId(2),
            to: NodeId(2),
        }];
        assert!(validate_mutations(4, &removal).is_err());
    }

    #[test]
    fn invalid_mutation_anywhere_in_a_batch_rejects_the_whole_batch() {
        // Remove-then-upsert where the upsert is invalid: the valid
        // leading mutation must not be applied — all-or-nothing.
        let batch = [
            Mutation::Remove {
                from: NodeId(0),
                to: NodeId(1),
            },
            Mutation::Upsert {
                from: NodeId(3),
                to: NodeId(7), // out of range
                probs: probs(0.2, 0.4),
            },
        ];
        let g0 = line();
        assert!(apply_mutations(&g0, &batch).is_err());
        // The input graph is untouched by construction (apply_mutations
        // is pure), and validation alone flags the batch up front.
        assert!(g0.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(
            validate_mutations(4, &batch).unwrap_err(),
            MutationError::NodeOutOfRange {
                node: NodeId(7),
                n: 4
            }
        );
    }

    #[test]
    fn endpoints_cover_both_variants() {
        let up = Mutation::Upsert {
            from: NodeId(3),
            to: NodeId(5),
            probs: probs(0.1, 0.2),
        };
        assert_eq!(up.endpoints(), (NodeId(3), NodeId(5)));
        let rm = Mutation::Remove {
            from: NodeId(5),
            to: NodeId(3),
        };
        assert_eq!(rm.endpoints(), (NodeId(5), NodeId(3)));
    }
}
