#![warn(missing_docs)]
//! Distributed MIS algorithms: the Pemmaraju–Riaz shattering pipeline and
//! its baselines.
//!
//! The centerpiece is [`bounded_arb::BoundedArbConfig`] /
//! [`bounded_arb::bounded_arb_independent_set`] — Algorithm 1 of the paper
//! (*BoundedArbIndependentSet*, a parameter-rescaled version of the
//! Barenboim–Elkin–Pettie–Schneider `TreeIndependentSet`) — and
//! [`arb_mis::arb_mis`] — Algorithm 2, the full MIS pipeline that finishes
//! up the residual active set and the "bad" set.
//!
//! Baselines (§1 of the paper):
//!
//! * [`luby`] — Luby's Algorithm B (degree-based marking), O(log n) whp.
//! * [`metivier`] — the Métivier et al. priority algorithm, the inner loop
//!   of Algorithm 1.
//! * [`ghaffari`] — Ghaffari's SODA 2016 desire-level algorithm,
//!   O(log Δ) + 2^O(√(log log n)).
//! * [`greedy`] — sequential greedy MIS (correctness oracle, not
//!   distributed).
//!
//! Finishing machinery (§3.3):
//!
//! * [`forest_decomp`] — Barenboim–Elkin H-partition and the derived
//!   ≤ (2+ε)α-forest decomposition.
//! * [`cole_vishkin`] — deterministic coin tossing: O(log* n) forest
//!   3-coloring and the color-sweep MIS for small components.
//!
//! Luby, Métivier and Algorithm 1 have two executions drawing
//! *identical* random bits:
//!
//! 1. the **flat engine** ([`flat::FlatBackend`]) — the one centralized
//!    executor, sweeping word-packed frontiers over the CSR; the `run`
//!    functions are short drivers of it that report the paper's round
//!    counts (`3·I` for Luby and Métivier, the oblivious `Θ·(3Λ + 2)`
//!    schedule for Algorithm 1); and
//! 2. a **CONGEST protocol** ([`protocols`]) — runs on
//!    [`arbmis_congest::Simulator`] with real message passing and
//!    per-message bit accounting.
//!
//! The two are round-identical (DESIGN.md §11; `arbmis-flat` steps them
//! in lockstep). Ghaffari keeps its own centralized `run` beside its
//! protocol, and tests assert the two produce identical sets.

pub mod arb_mis;
pub mod bounded_arb;
pub mod cole_vishkin;
pub mod flat;
pub mod forest_decomp;
pub mod ghaffari;
pub mod greedy;
pub mod luby;
pub mod metivier;
pub mod params;
pub mod protocols;
pub mod result;
pub mod trace;
pub mod tree_mis;
pub mod verify;

pub use arb_mis::{arb_mis, ArbMisConfig, ArbMisOutcome, PhaseRounds};
pub use bounded_arb::{bounded_arb_independent_set, BoundedArbConfig, ShatterOutcome};
pub use params::{ArbParams, ParamMode, ScheduleError};
pub use result::MisRun;
pub use verify::{check_mis, is_independent, is_maximal, is_valid_mis, MisError};
