//! Process-global MIS backend selection for the experiment suite.
//!
//! The experiments report the paper's round counts (`iterations × 3`).
//! Both engines count the final all-halt round as well, so the helpers
//! here convert through [`paper_rounds`]; routing the baselines through
//! either engine must not change a single byte of any report. What
//! *does* change is the cell cache key: executions by different backends
//! are distinct cache entries (see EXPERIMENTS.md), keyed by
//! [`key_suffix`].

use arbmis_core::flat::paper_rounds;
use arbmis_flat::{CongestBackend, FlatAlgo, FlatBackend, MisBackend};
use arbmis_graph::Graph;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which engine executes the Luby/Métivier baselines in experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MisBackendChoice {
    /// The flat shared-memory engine (what `luby::run` /
    /// `metivier::run` drive).
    #[default]
    Flat,
    /// The CONGEST message-passing simulator.
    Congest,
}

impl MisBackendChoice {
    /// Stable name used in cache keys and `--backend` values.
    pub fn label(self) -> &'static str {
        match self {
            MisBackendChoice::Flat => "flat",
            MisBackendChoice::Congest => "congest",
        }
    }
}

impl FromStr for MisBackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "flat" => Ok(MisBackendChoice::Flat),
            "congest" => Ok(MisBackendChoice::Congest),
            other => Err(format!(
                "unknown backend {other:?} (expected flat or congest)"
            )),
        }
    }
}

static CHOICE: AtomicU8 = AtomicU8::new(0);

/// Sets the process-global backend (call before building plans, so cell
/// keys pick up the suffix).
pub fn set_choice(c: MisBackendChoice) {
    CHOICE.store(c as u8, Ordering::Relaxed);
}

/// The current process-global backend.
pub fn choice() -> MisBackendChoice {
    match CHOICE.load(Ordering::Relaxed) {
        1 => MisBackendChoice::Congest,
        _ => MisBackendChoice::Flat,
    }
}

/// Cache-key suffix naming the active backend. Appended to every cell
/// key whose closure routes through this module: the key must uniquely
/// determine the bytes *and* the execution that produced them.
pub fn key_suffix() -> String {
    format!(";backend={}", choice().label())
}

const MAX_ROUNDS: u64 = 10_000_000;

fn routed_rounds(g: &Graph, seed: u64, algo: FlatAlgo) -> u64 {
    let rounds = match choice() {
        MisBackendChoice::Flat => {
            FlatBackend::new(g, seed, algo)
                .run(MAX_ROUNDS)
                .expect("flat backend run failed")
                .rounds
        }
        MisBackendChoice::Congest => {
            CongestBackend::new(g, seed, algo)
                .run(MAX_ROUNDS)
                .expect("congest backend run failed")
                .rounds
        }
    };
    paper_rounds(rounds)
}

/// Luby round count under the active backend (paper convention).
pub fn luby_rounds(g: &Graph, seed: u64) -> u64 {
    routed_rounds(g, seed, FlatAlgo::Luby)
}

/// Métivier round count under the active backend (paper convention).
pub fn metivier_rounds(g: &Graph, seed: u64) -> u64 {
    routed_rounds(g, seed, FlatAlgo::Metivier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbmis_core::{luby, metivier};
    use arbmis_graph::gen;

    /// Both backends must report the rounds `luby::run` / `metivier::run`
    /// do — this is the invariant that keeps experiment reports
    /// byte-identical across `--backend` values. One test (not several)
    /// because the choice is process-global.
    #[test]
    fn routed_rounds_match_the_drivers() {
        let g = gen::cycle(40);
        for seed in [1, 7] {
            let want_l = luby::run(&g, seed).rounds;
            let want_m = metivier::run(&g, seed).rounds;
            for c in [MisBackendChoice::Congest, MisBackendChoice::Flat] {
                set_choice(c);
                assert_eq!(luby_rounds(&g, seed), want_l, "{c:?} luby");
                assert_eq!(metivier_rounds(&g, seed), want_m, "{c:?} metivier");
            }
        }

        assert_eq!(key_suffix(), ";backend=flat");
        set_choice(MisBackendChoice::Congest);
        assert_eq!(key_suffix(), ";backend=congest");
        set_choice(MisBackendChoice::Flat);
        assert!("bogus".parse::<MisBackendChoice>().is_err());
        assert!("fast".parse::<MisBackendChoice>().is_err());
        assert_eq!(
            "congest".parse::<MisBackendChoice>().unwrap(),
            MisBackendChoice::Congest
        );
    }
}
