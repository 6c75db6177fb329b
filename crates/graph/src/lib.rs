//! Directed-graph substrate for the k-boosting problem.
//!
//! This crate provides the graph model every other `kboost` crate builds on:
//!
//! * [`DiGraph`]: an immutable directed graph in compressed-sparse-row form,
//!   with *two* influence probabilities per edge — the base probability
//!   `p_uv` and the boosted probability `p'_uv ≥ p_uv` used when the edge's
//!   head is a boosted node (Definition 1 of the paper).
//! * [`GraphBuilder`]: the only way to construct a [`DiGraph`].
//! * [`generators`]: synthetic network generators (Erdős–Rényi, preferential
//!   attachment, Watts–Strogatz, bidirected trees, and the set-cover gadget
//!   used in the paper's NP-hardness proof).
//! * [`probability`]: influence-probability models (constant, trivalency,
//!   weighted cascade, log-normal) and the boosting parameter
//!   `p' = 1 − (1−p)^β`.
//! * [`io`]: a plain-text edge-list format.
//! * [`stats`]: degree/probability statistics and weakly-connected components.
//!
//! # Example
//!
//! ```
//! use kboost_graph::{GraphBuilder, NodeId};
//!
//! // The 3-node example from Figure 1 of the paper.
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(NodeId(0), NodeId(1), 0.2, 0.4).unwrap();
//! b.add_edge(NodeId(1), NodeId(2), 0.1, 0.2).unwrap();
//! let g = b.build().unwrap();
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.num_edges(), 2);
//! let (v, p) = g.out_edges(NodeId(0)).next().unwrap();
//! assert_eq!(v, NodeId(1));
//! assert!((p.base - 0.2).abs() < 1e-12);
//! ```

mod builder;
mod csr;
mod node;

pub mod generators;
pub mod io;
pub mod probability;
pub mod stats;

pub use builder::{BuildError, GraphBuilder};
pub use csr::{coin_at_least, coin_threshold_hi, DiGraph, EdgeProbs, InEdgeSoa, PackedInEdge};
pub use node::NodeId;

/// A set of nodes represented as a sorted, deduplicated vector.
///
/// Used for seed sets and boost sets throughout the workspace. Kept as a
/// plain vector (rather than a hash set) because algorithms iterate these
/// sets far more often than they test membership, and the sets are small.
pub type NodeSet = Vec<NodeId>;

/// Normalizes a list of nodes into a sorted, deduplicated [`NodeSet`].
pub fn node_set(mut nodes: Vec<NodeId>) -> NodeSet {
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}
