//! PRR-Boost and PRR-Boost-LB — the paper's algorithms for the
//! k-boosting problem on general graphs (Section V).
//!
//! * [`algo`] — Algorithm 2: IMM-style sampling over PRR-graphs, greedy
//!   selection for both the submodular lower bound `µ̂` and the true
//!   objective `Δ̂`, and the Sandwich Approximation choosing between them.
//! * [`pool`] — the retained PRR-graph pool with `Δ̂`/`µ̂` estimators.
//! * [`sandwich`] — the sandwich-ratio analysis of Figures 7/9/12:
//!   perturb a solution and chart `µ̂(B)/Δ̂(B)` against `Δ̂(B)`.
//! * [`budget`] — the budget-allocation heuristic of Section V-D /
//!   Figure 13: split a budget between seeding and boosting.
//!
//! # Guarantee
//!
//! With probability at least `1 − n^−ℓ`, PRR-Boost returns a
//! `(1 − 1/e − ε)·µ(B*)/Δ_S(B*)`-approximate solution (Theorem 2);
//! PRR-Boost-LB has the same factor at lower cost (Section V-C).

pub mod algo;
pub mod budget;
pub mod pool;
pub mod sandwich;

pub use algo::{prr_boost, prr_boost_lb, BoostOptions, BoostOutcome, BoostStats};
pub use budget::{budget_sweep, BudgetOptions, BudgetPoint};
pub use pool::{EvalManyScratch, PrrPool};
pub use sandwich::{sandwich_ratio_curve, RatioPoint};
