#![warn(missing_docs)]
//! The CONGEST-backed [`MisBackend`] and the tooling that compares
//! backends.
//!
//! The flat engine ([`FlatBackend`]) lives in [`arbmis_core::flat`], so
//! the core algorithms can drive it, and is re-exported here under its
//! historical paths. This crate adds [`CongestBackend`] — an adapter that
//! steps the simulator's [`arbmis_congest::Stepper`] one round at a time
//! and diffs node states to report joiners — and [`divergence`]: lockstep
//! localization of the first divergent round and replay artifacts. The
//! two backends are round-identical (`tests/backend_equivalence.rs`,
//! DESIGN.md §11).

mod congest_backend;
pub mod divergence;

pub use congest_backend::CongestBackend;
pub use divergence::{localize, CoinFlip, Divergence, DivergenceKind, ReplayArtifact};

pub use arbmis_congest::BitMask;
pub use arbmis_core::flat::{
    region, solve_mis, BackendError, BackendRun, FlatAlgo, FlatBackend, MisBackend, RegionMis,
    ScanMode, DENSE_FRACTION,
};
pub use arbmis_graph::{NodeOrder, Permutation};

#[cfg(test)]
mod tests {
    use super::*;
    use arbmis_core::{ArbParams, ParamMode};
    use arbmis_graph::{gen, Graph};
    use rand::{rngs::StdRng, SeedableRng};

    const MAX_ROUNDS: u64 = 100_000;

    fn graphs() -> Vec<(&'static str, Graph)> {
        let mut rng = StdRng::seed_from_u64(7);
        vec![
            ("empty", Graph::empty(0)),
            ("isolated", Graph::empty(1)),
            ("path", gen::path(17)),
            ("complete", gen::complete(9)),
            ("gnp", gen::gnp(120, 0.05, &mut rng)),
            ("ktree", gen::random_ktree(90, 3, &mut rng)),
        ]
    }

    /// Steps `a` and `b` in lockstep, asserting identical joiners each
    /// round, then identical final MIS and round counts.
    fn assert_lockstep(label: &str, a: &mut dyn MisBackend, b: &mut dyn MisBackend) {
        a.init();
        b.init();
        while !a.is_done() || !b.is_done() {
            assert_eq!(
                a.is_done(),
                b.is_done(),
                "{label}: done flags diverge at round {}",
                a.round()
            );
            assert!(a.round() < MAX_ROUNDS, "{label}: round limit");
            a.step_round().unwrap();
            b.step_round().unwrap();
            assert_eq!(
                a.joiners(),
                b.joiners(),
                "{label}: joiners diverge at round {}",
                a.round() - 1
            );
        }
        assert_eq!(a.round(), b.round(), "{label}: round counts diverge");
        assert_eq!(a.mis(), b.mis(), "{label}: final MIS diverges");
    }

    #[test]
    fn flat_matches_congest_luby_and_metivier() {
        for (name, g) in &graphs() {
            for algo in [FlatAlgo::Luby, FlatAlgo::Metivier] {
                for seed in [1, 42] {
                    let mut flat = FlatBackend::new(g, seed, algo);
                    let mut congest = CongestBackend::new(g, seed, algo);
                    let label = format!("{name}/{}/seed{seed}", algo.label());
                    assert_lockstep(&label, &mut flat, &mut congest);
                }
            }
        }
    }

    #[test]
    fn flat_matches_congest_bounded_arb() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = gen::random_ktree(80, 3, &mut rng);
        let delta = g.degree_histogram().len().saturating_sub(1);
        let params = ArbParams::new(3, delta, ParamMode::default());
        for rho_cutoff in [true, false] {
            let algo = FlatAlgo::BoundedArb { params, rho_cutoff };
            let mut flat = FlatBackend::new(&g, 5, algo);
            let mut congest = CongestBackend::new(&g, 5, algo);
            assert_lockstep(
                &format!("ktree/arb/rho={rho_cutoff}"),
                &mut flat,
                &mut congest,
            );
            // BoundedArb is not maximal: also compare the shattering
            // outputs (bad and residual active sets) against the
            // protocol states.
            for (v, s) in congest.states().iter().enumerate() {
                assert_eq!(flat.bad().test(v), s.bad, "bad set diverges at {v}");
                assert_eq!(
                    flat.is_active(v),
                    s.active,
                    "residual active set diverges at {v}"
                );
            }
        }
    }

    /// A schedule whose Δ sits far below the graph's degrees, so the ρ_k
    /// opt-out and the bad exits both fire — the natural schedules never
    /// reach them on test-sized inputs.
    #[test]
    fn flat_matches_congest_with_binding_cutoffs() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = gen::gnp(300, 0.02, &mut rng);
        // Δ = 2: ρ_1 = 2Δ·lnΔ ≈ 2.8, so every node of degree ≥ 3 opts
        // out, and a node with any active neighbor of degree > Δ/2 + α
        // = 2 exceeds the bad threshold Δ/8.
        let params = ArbParams {
            alpha: 1,
            delta: 2,
            theta: 4,
            lambda: 1,
            mode: ParamMode::default(),
        };
        let mut outcomes = Vec::new();
        for rho_cutoff in [true, false] {
            let algo = FlatAlgo::BoundedArb { params, rho_cutoff };
            let mut flat = FlatBackend::new(&g, 3, algo);
            let mut congest = CongestBackend::new(&g, 3, algo);
            assert_lockstep(
                &format!("binding/rho={rho_cutoff}"),
                &mut flat,
                &mut congest,
            );
            for (v, s) in congest.states().iter().enumerate() {
                assert_eq!(flat.bad().test(v), s.bad, "bad set diverges at {v}");
                assert_eq!(flat.is_active(v), s.active, "residue diverges at {v}");
            }
            assert!(
                flat.bad().count_ones() > 0,
                "rho={rho_cutoff}: no bad exits"
            );
            outcomes.push((flat.mis().clone(), flat.bad().clone()));
        }
        assert_ne!(outcomes[0], outcomes[1], "the ρ_k opt-out never bound");
    }

    #[test]
    fn scan_modes_agree() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = gen::gnp(150, 0.04, &mut rng);
        for algo in [FlatAlgo::Luby, FlatAlgo::Metivier] {
            let mut sparse = FlatBackend::new(&g, 9, algo).with_scan(ScanMode::Sparse);
            let mut dense = FlatBackend::new(&g, 9, algo).with_scan(ScanMode::Dense);
            assert_lockstep(&format!("{}/scan", algo.label()), &mut sparse, &mut dense);
        }
    }

    #[test]
    fn orders_and_threads_are_transcript_invisible() {
        let mut rng = StdRng::seed_from_u64(29);
        let g = gen::gnp(160, 0.04, &mut rng);
        let delta = g.degree_histogram().len().saturating_sub(1);
        let params = ArbParams::new(3, delta, ParamMode::default());
        for algo in [
            FlatAlgo::Luby,
            FlatAlgo::Metivier,
            FlatAlgo::BoundedArb {
                params,
                rho_cutoff: true,
            },
        ] {
            let mut base = FlatBackend::new(&g, 9, algo);
            for order in [NodeOrder::Degree, NodeOrder::Bfs] {
                let mut permuted = FlatBackend::new(&g, 9, algo).with_order(order);
                assert_lockstep(
                    &format!("{}/order={}", algo.label(), order.label()),
                    &mut base,
                    &mut permuted,
                );
            }
            for threads in [2, 4] {
                let mut par = FlatBackend::new(&g, 9, algo)
                    .with_order(NodeOrder::Degree)
                    .with_threads(threads);
                assert_lockstep(
                    &format!("{}/threads={threads}", algo.label()),
                    &mut base,
                    &mut par,
                );
            }
        }
    }

    #[test]
    fn rerun_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = gen::gnp(100, 0.06, &mut rng);
        let mut b = FlatBackend::new(&g, 17, FlatAlgo::Metivier);
        let r1 = b.run(MAX_ROUNDS).unwrap();
        let mis1 = b.mis().clone();
        let r2 = b.run(MAX_ROUNDS).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(&mis1, b.mis());
        assert!(arbmis_core::is_valid_mis(&g, &b.mis().to_bools()));
    }

    #[test]
    fn round_limit_reported() {
        let g = gen::path(8);
        let mut b = FlatBackend::new(&g, 1, FlatAlgo::Metivier);
        let err = b.run(1).unwrap_err();
        assert!(matches!(err, BackendError::RoundLimitExceeded { limit: 1 }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn joiners_only_on_exit_rounds() {
        let g = gen::cycle(12);
        let mut b = FlatBackend::new(&g, 4, FlatAlgo::Luby);
        b.init();
        while !b.is_done() {
            let r = b.round();
            b.step_round().unwrap();
            if r % 3 != 2 {
                assert!(b.joiners().is_empty(), "joiners at non-exit round {r}");
            }
            assert!(b.joiners().windows(2).all(|w| w[0] < w[1]));
        }
    }
}
