//! Cross-crate equivalence: Ghaffari's CONGEST protocol must reproduce
//! its centralized run bit-for-bit on workloads from every family, and
//! the Métivier protocol's round count must track the driver's `3·I`.
//! (Luby, Métivier and Algorithm 1 run centrally on the flat engine,
//! which `tests/backend_equivalence.rs` steps in lockstep with the
//! simulator.)

use arbmis::congest::Simulator;
use arbmis::core::protocols::*;
use arbmis::core::{ghaffari, metivier};
use arbmis::graph::gen::{GraphFamily, GraphSpec};
use rand::SeedableRng;

fn workloads(_n: usize) -> Vec<(GraphFamily, usize)> {
    vec![
        (GraphFamily::RandomTree, 1),
        (GraphFamily::ForestUnion { alpha: 2 }, 2),
        (GraphFamily::Apollonian, 3),
        (GraphFamily::GnpAvgDegree { d: 5.0 }, 4),
    ]
}

#[test]
fn ghaffari_equivalence_across_families() {
    for (fam, _) in workloads(120) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let g = GraphSpec::new(fam, 120).generate(&mut rng);
        for seed in 0..3 {
            let fast = ghaffari::run(&g, seed);
            let run = Simulator::new(&g, seed)
                .run(&GhaffariProtocol, 100_000)
                .unwrap();
            let mis: Vec<bool> = run.states.iter().map(|s| s.in_mis).collect();
            assert_eq!(mis, fast.in_mis, "{fam} seed {seed}");
        }
    }
}

#[test]
fn protocol_round_counts_track_fast_path() {
    // The protocol spends 3 rounds per iteration plus (up to) one halting
    // lap; round metrics should be within a small constant of 3×iters.
    let mut rng = rand::rngs::StdRng::seed_from_u64(25);
    let g = GraphSpec::new(GraphFamily::ForestUnion { alpha: 2 }, 200).generate(&mut rng);
    let fast = metivier::run(&g, 9);
    let run = Simulator::new(&g, 9)
        .run(&MetivierProtocol, 50_000)
        .unwrap();
    let lower = fast.iterations * 3;
    assert!(
        (lower..=lower + 4).contains(&run.metrics.rounds),
        "protocol rounds {} vs fast iterations {}",
        run.metrics.rounds,
        fast.iterations
    );
}
