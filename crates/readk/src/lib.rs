#![warn(missing_docs)]
//! Read-k families of random variables, executable.
//!
//! A family `Y_1, …, Y_n` of boolean random variables is **read-k** when
//! each `Y_j` is a function of a subset `P_j` of independent base variables
//! `X_1, …, X_m`, and every `X_i` appears in at most `k` of the `P_j`.
//! Gavinsky, Lovett, Saks and Srinivasan (*Random Structures & Algorithms*
//! 2015) proved a conjunction bound and Chernoff-style tail bounds for such
//! families, losing only a factor `1/k` in the exponent relative to full
//! independence. Pemmaraju & Riaz (PODC 2016) use exactly these
//! inequalities to analyze a shattering-based distributed MIS algorithm on
//! bounded-arboricity graphs.
//!
//! This crate makes that analysis *executable*:
//!
//! * [`family::ReadKFamily`] — a concrete read-k family: dependency sets +
//!   evaluator; the read parameter `k` is computed, not asserted.
//! * [`bounds`] — the paper's inequalities (Theorem 1.1, Theorem 1.2 forms
//!   (1) and (2)) plus Chernoff and Azuma comparators.
//! * [`montecarlo`] — seed-parallel estimation of event probabilities with
//!   Wilson confidence intervals.
//! * [`events`] — the paper's three probabilistic events (Figure 1 A/B/C:
//!   node-vs-children, node-vs-parents, elimination-via-children) built
//!   over any graph + low-out-degree orientation.

pub mod bounds;
pub mod events;
pub mod exact;
pub mod family;
pub mod montecarlo;

pub use bounds::{
    azuma_lower_tail, chernoff_lower_tail, conjunction_bound, tail_form1, tail_form2,
};
pub use family::ReadKFamily;
pub use montecarlo::{
    estimate, estimate_mean, estimate_mean_threaded, estimate_threaded, Estimate,
};
