//! The flat engine, the one centralized executor of Luby, Métivier and
//! `BoundedArbIndependentSet`: the oblivious CONGEST protocols
//! ([`crate::protocols`]) replayed as frontier sweeps over the CSR, with
//! no message objects (see [`FlatBackend`]). [`crate::luby::run`],
//! [`crate::metivier`]'s `run*` functions and
//! [`crate::bounded_arb::bounded_arb_independent_set`] are short drivers
//! of it; `arbmis-flat` adds the simulator-backed [`MisBackend`] and the
//! divergence tooling.
//!
//! A backend round is exactly one CONGEST round. Luby and Métivier spend
//! three per iteration (announce, decide, exit; joiners land at rounds
//! `r ≡ 2 (mod 3)`) plus one final all-halt round: `3I + 1` rounds for
//! `I` iterations, 0 without nodes. [`paper_rounds`] converts that to
//! the paper's `3·I`. BoundedArb follows the oblivious schedule of
//! [`crate::protocols::BoundedArbProtocol`]: `Θ` scales of `3Λ + 2`
//! rounds (Λ iterations, a degree exchange and a bad-exit round).

pub mod digest;
mod engine;
pub mod region;

pub use digest::CoinFlip;
pub use engine::FlatBackend;
pub use region::{solve_mis, RegionMis};

use crate::{ArbParams, MisRun};
use arbmis_congest::{BitMask, SimulatorError};
use arbmis_graph::{Graph, NodeId};
use arbmis_obs::{FlightRecorder, Recorder};
use std::fmt;

/// A core driver's engine. The drivers emit the observations their
/// algorithm-level code always did, so the engine runs unobserved.
pub(crate) fn driver_engine<'g>(
    g: &'g Graph,
    seed: u64,
    algo: FlatAlgo,
    region: Option<&[bool]>,
) -> FlatBackend<'g> {
    let b = match region {
        None => FlatBackend::new(g, seed, algo),
        Some(r) => FlatBackend::on_region(g, seed, algo, r),
    };
    b.with_recorder(Recorder::disabled())
        .with_flight(FlightRecorder::disabled())
}

/// Runs a Luby or Métivier engine to completion and reports it in the
/// paper's `3·I` convention.
pub(crate) fn run_to_mis(mut b: FlatBackend<'_>) -> MisRun {
    while !b.is_done() {
        b.step_round().expect("the flat engine never fails");
    }
    let rounds = paper_rounds(b.round());
    MisRun::new(b.mis().to_bools(), rounds / 3, rounds)
}

/// The paper's round count `3·I` of a Luby or Métivier engine run that
/// executed `engine_rounds` rounds: `I` iterations of three rounds each,
/// without the final all-halt round the engine counts (`3I + 1 → 3I`).
/// Also exact for a run stopped after whole iterations (`3k → 3k`).
pub fn paper_rounds(engine_rounds: u64) -> u64 {
    engine_rounds - engine_rounds % 3
}

/// Which MIS algorithm a backend executes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlatAlgo {
    /// Luby's Algorithm B: mark with probability `1/2d`, higher
    /// `(degree, id)` wins among marked neighbors.
    Luby,
    /// Métivier et al. priority competition: higher `(priority, id)` wins.
    Metivier,
    /// `BoundedArbIndependentSet` (Algorithm 1): Θ scales of Λ Métivier
    /// iterations with the ρ_k opt-out, plus per-scale bad exits.
    BoundedArb {
        /// The instantiated parameter schedule.
        params: ArbParams,
        /// Whether the ρ_k competitiveness cutoff is active.
        rho_cutoff: bool,
    },
}

impl FlatAlgo {
    /// Short stable name for logs and cache keys.
    pub fn label(&self) -> &'static str {
        match self {
            FlatAlgo::Luby => "luby",
            FlatAlgo::Metivier => "metivier",
            FlatAlgo::BoundedArb { .. } => "bounded_arb",
        }
    }
}

/// How [`FlatBackend`] walks the active set each sub-round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScanMode {
    /// Sparse (frontier iteration) while the active set is small, dense
    /// (linear scan over all nodes) once it crosses [`DENSE_FRACTION`].
    #[default]
    Auto,
    /// Always iterate the frontier bitset.
    Sparse,
    /// Always scan `0..n` and filter on the `active` flag.
    Dense,
}

impl ScanMode {
    /// The one shared density decision: whether a sweep over
    /// `active_count` of `n` nodes should walk the flat word array
    /// (dense) rather than the summary-skipping frontier (sparse).
    /// Every per-round derivation in the engine routes through here so
    /// the flight-record label and the sweeps can never disagree.
    #[inline]
    pub fn is_dense(self, active_count: usize, n: usize) -> bool {
        match self {
            ScanMode::Sparse => false,
            ScanMode::Dense => true,
            ScanMode::Auto => active_count.saturating_mul(DENSE_FRACTION) >= n,
        }
    }
}

/// `Auto` sweeps go dense when `active_count ≥ n / DENSE_FRACTION`.
pub const DENSE_FRACTION: usize = 8;

/// Why a backend run failed.
#[derive(Debug)]
pub enum BackendError {
    /// The underlying CONGEST simulator rejected the execution (budget
    /// violation etc.). Only the CONGEST-backed adapter (`arbmis_flat::CongestBackend`)
    /// produces this.
    Congest(SimulatorError),
    /// `run` exceeded its round limit before every node finished.
    RoundLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Congest(e) => write!(f, "congest backend: {e}"),
            BackendError::RoundLimitExceeded { limit } => {
                write!(f, "backend exceeded round limit {limit}")
            }
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Congest(e) => Some(e),
            BackendError::RoundLimitExceeded { .. } => None,
        }
    }
}

impl From<SimulatorError> for BackendError {
    fn from(e: SimulatorError) -> Self {
        BackendError::Congest(e)
    }
}

/// Summary of a completed [`MisBackend::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendRun {
    /// CONGEST rounds executed (identical across backends for the same
    /// graph, seed, and algorithm).
    pub rounds: u64,
}

/// A round-steppable MIS execution.
///
/// The contract that makes backends interchangeable:
///
/// * [`round`](MisBackend::round) counts CONGEST rounds; one
///   [`step_round`](MisBackend::step_round) call executes exactly one.
/// * [`joiners`](MisBackend::joiners) is the ascending list of nodes
///   that entered the MIS during the *last executed* round — empty on
///   rounds where the protocol does not admit joiners.
/// * [`is_done`](MisBackend::is_done) mirrors the simulator's
///   termination test (`pending == 0`): true once every node has
///   halted, so total round counts agree across backends.
/// * [`init`](MisBackend::init) rewinds to round 0, reusing internal
///   buffers (no steady-state allocation on re-runs).
pub trait MisBackend {
    /// Resets to round 0 on the same graph/seed/algorithm.
    fn init(&mut self);

    /// Executes one CONGEST round.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures for the CONGEST-backed adapter;
    /// the flat engine never fails.
    fn step_round(&mut self) -> Result<(), BackendError>;

    /// Nodes that joined the MIS in the last executed round, ascending.
    fn joiners(&self) -> &[NodeId];

    /// True once every node has terminated.
    fn is_done(&self) -> bool;

    /// Current MIS membership mask (word-packed, length `n`, original
    /// id space regardless of any execution-layout permutation).
    fn mis(&self) -> &BitMask;

    /// CONGEST rounds executed so far.
    fn round(&self) -> u64;

    /// Runs from a fresh [`init`](MisBackend::init) to completion.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::RoundLimitExceeded`] if the execution is
    /// still pending after `max_rounds`, or any error from
    /// [`step_round`](MisBackend::step_round).
    fn run(&mut self, max_rounds: u64) -> Result<BackendRun, BackendError> {
        self.init();
        while !self.is_done() {
            if self.round() >= max_rounds {
                return Err(BackendError::RoundLimitExceeded { limit: max_rounds });
            }
            self.step_round()?;
        }
        Ok(BackendRun {
            rounds: self.round(),
        })
    }
}
