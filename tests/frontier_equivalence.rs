//! Serial differentials for the CONGEST round engine's scheduling and
//! observation layers:
//!
//! * the sparse frontier (DESIGN.md §10) against the diagnostic full
//!   scan, for every protocol with a non-trivial quiescence predicate;
//! * recorders (timing, deterministic, none) never perturb transcripts,
//!   metrics or states, and deterministic recorder contents are
//!   reproducible (DESIGN.md §8);
//! * degenerate graphs (n ∈ {0, 1}) agree between the simulator and both
//!   `MisBackend`s.

use arbmis::congest::{Protocol, Simulator};
use arbmis::core::bounded_arb::{bounded_arb_independent_set, BoundedArbConfig};
use arbmis::core::forest_decomp::HPartitionProtocol;
use arbmis::core::protocols::*;
use arbmis::graph::gen::{GraphFamily, GraphSpec};
use rand::SeedableRng;

fn graph(fam: GraphFamily, n: usize, seed: u64) -> arbmis::graph::Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    GraphSpec::new(fam, n).generate(&mut rng)
}

/// DESIGN.md §8 rule 1, the traced-vs-untraced differential: attaching an
/// observability recorder (timing, deterministic, or none) must leave
/// transcript digests, metrics, and states bit-identical.
#[test]
fn recorder_never_perturbs_transcripts_or_metrics() {
    use arbmis::obs::Recorder;

    let g = graph(GraphFamily::GnpAvgDegree { d: 5.0 }, 150, 38);
    let (baseline, t_baseline) = Simulator::new(&g, 9)
        .run_traced(&MetivierProtocol, 50_000)
        .unwrap();
    let recorders = [
        Recorder::disabled(),
        Recorder::new(),
        Recorder::deterministic(),
    ];
    for (i, rec) in recorders.iter().enumerate() {
        let (run, t) = Simulator::new(&g, 9)
            .with_recorder(rec.clone())
            .run_traced(&MetivierProtocol, 50_000)
            .unwrap();
        let label = format!("recorder #{i}");
        assert_eq!(t.digest(), t_baseline.digest(), "{label}: digest");
        assert_eq!(t.entries(), t_baseline.entries(), "{label}: entries");
        assert_eq!(run.metrics, baseline.metrics, "{label}: metrics");
        assert_eq!(
            run.states.iter().map(|s| s.in_mis).collect::<Vec<_>>(),
            baseline.states.iter().map(|s| s.in_mis).collect::<Vec<_>>(),
            "{label}: states"
        );
    }
}

/// DESIGN.md §8 rule 2 at the engine level: the deterministic-class
/// recorder contents (counters, round histograms) are identical from run
/// to run, and the run totals agree between the sparse frontier and the
/// full scan. (The `congest_round_frontier` histogram differs between the
/// two by design, so only the counters are compared across them.)
#[test]
fn recorder_contents_identical_across_runs_and_engines() {
    use arbmis::obs::Recorder;

    let g = graph(GraphFamily::BarabasiAlbert { m: 2 }, 150, 39);
    let snapshot = |full_scan: bool| {
        let rec = Recorder::deterministic();
        Simulator::new(&g, 4)
            .with_full_scan(full_scan)
            .with_recorder(rec.clone())
            .run(&MetivierProtocol, 50_000)
            .unwrap();
        rec.snapshot()
    };
    let (a, b) = (snapshot(false), snapshot(false));
    assert!(a.counter("congest_runs").is_some());
    assert_eq!(a.to_prometheus(), b.to_prometheus());
    assert_eq!(a.to_jsonl(), b.to_jsonl());

    let full = snapshot(true);
    for name in [
        "congest_runs",
        "congest_rounds",
        "congest_messages",
        "congest_bits",
    ] {
        assert_eq!(a.counter(name), full.counter(name), "{name}");
    }
}

/// Runs `proto` with the diagnostic full scan (every non-halted node
/// steps every round), then compares the default sparse frontier against
/// it. Frontier bookkeeping is a pure scheduling optimization; any
/// divergence here means a protocol's `is_quiescent` or the engine's
/// wake rules are unsound (DESIGN.md §10).
fn assert_frontier_differential<P, K>(
    g: &arbmis::graph::Graph,
    seed: u64,
    proto: &P,
    max_rounds: u64,
    label: &str,
    project: impl Fn(&P::State) -> K,
) where
    P: Protocol,
    K: PartialEq + std::fmt::Debug,
{
    let (full, t_full) = Simulator::new(g, seed)
        .with_full_scan(true)
        .run_traced(proto, max_rounds)
        .unwrap_or_else(|e| panic!("{label}: full-scan run failed: {e}"));
    let (run, t) = Simulator::new(g, seed)
        .run_traced(proto, max_rounds)
        .unwrap_or_else(|e| panic!("{label}: frontier run failed: {e}"));
    assert_eq!(t.digest(), t_full.digest(), "{label}: digest");
    assert_eq!(t.entries(), t_full.entries(), "{label}: entries");
    assert_eq!(run.metrics, full.metrics, "{label}: metrics");
    let out: Vec<K> = run.states.iter().map(&project).collect();
    let full_out: Vec<K> = full.states.iter().map(&project).collect();
    assert_eq!(out, full_out, "{label}: states");
}

#[test]
fn frontier_matches_full_scan_mis_protocols() {
    let g = graph(GraphFamily::GnpAvgDegree { d: 5.0 }, 150, 41);
    for seed in 0..2 {
        assert_frontier_differential(&g, seed, &MetivierProtocol, 50_000, "metivier", |s| {
            (s.in_mis, s.active)
        });
        assert_frontier_differential(&g, seed, &LubyProtocol, 50_000, "luby", |s| {
            (s.in_mis, s.active)
        });
    }
}

#[test]
fn frontier_matches_full_scan_bounded_arb() {
    let g = graph(GraphFamily::Apollonian, 150, 42);
    for seed in 0..2 {
        let cfg = BoundedArbConfig::new(3, seed);
        let fast = bounded_arb_independent_set(&g, &cfg);
        let proto = BoundedArbProtocol {
            params: fast.params,
            rho_cutoff: true,
        };
        assert_frontier_differential(
            &g,
            seed,
            &proto,
            proto.total_rounds() + 2,
            "bounded_arb",
            |s| (s.in_mis, s.bad, s.active),
        );
    }
}

#[test]
fn frontier_matches_full_scan_h_partition() {
    // HPartition overrides `is_quiescent` (above-threshold nodes sleep),
    // so this exercises a protocol-specific quiescence predicate.
    let g = graph(GraphFamily::Apollonian, 200, 43);
    let proto = HPartitionProtocol { threshold: 9 };
    for seed in 0..2 {
        assert_frontier_differential(&g, seed, &proto, 10_000, "h_partition", |s| s.level);
    }
}

#[test]
fn frontier_matches_full_scan_converge_cast() {
    // The sharpest frontier case: a converge-cast wave on a path steps
    // exactly one node per round under the sparse frontier, ~n under the
    // full scan — yet every observable must agree.
    use arbmis::congest::algorithms::ConvergeCast;
    let n = 300;
    let g = arbmis::graph::gen::path(n);
    let parent: Vec<Option<usize>> = (0..n).map(|v| (v + 1 < n).then_some(v + 1)).collect();
    let proto = ConvergeCast::new(parent, vec![1; n]);
    for seed in 0..2 {
        assert_frontier_differential(&g, seed, &proto, n as u64 + 5, "converge_cast", |s| {
            (s.sum, s.done)
        });
    }
}

/// Degenerate graphs n ∈ {0, 1}: the simulator and both `MisBackend`
/// implementations must all agree — the empty graph terminates in 0
/// rounds, and a single isolated node joins at the first exit round and
/// halts at the next announce round (4 CONGEST rounds for Luby and
/// Métivier).
#[test]
fn degenerate_graphs_agree_across_engines_and_backends() {
    use arbmis::flat::{CongestBackend, FlatAlgo, FlatBackend, MisBackend};

    for n in [0usize, 1] {
        let g = arbmis::graph::Graph::from_edges(n, &[]);
        let expect_rounds = if n == 0 { 0 } else { 4 };
        let expect_mis = vec![true; n];
        for (label, algo) in [("luby", FlatAlgo::Luby), ("metivier", FlatAlgo::Metivier)] {
            for seed in [0, 9] {
                let mut flat = FlatBackend::new(&g, seed, algo);
                let mut congest = CongestBackend::new(&g, seed, algo);
                for (tag, b) in [
                    ("flat", &mut flat as &mut dyn MisBackend),
                    ("congest", &mut congest),
                ] {
                    let run = b.run(100).unwrap();
                    assert_eq!(run.rounds, expect_rounds, "{label}/{tag} rounds at n={n}");
                    assert_eq!(b.mis(), &expect_mis[..], "{label}/{tag} MIS at n={n}");
                    assert!(b.joiners().is_empty() || n == 1, "{label}/{tag} joiners");
                }
                let sim = Simulator::new(&g, seed);
                let run = match algo {
                    FlatAlgo::Luby => sim.run(&LubyProtocol, 100),
                    _ => sim.run(&MetivierProtocol, 100),
                }
                .unwrap();
                assert_eq!(
                    run.metrics.rounds, expect_rounds,
                    "{label}: simulator rounds at n={n}"
                );
                assert_eq!(
                    run.states.iter().map(|s| s.in_mis).collect::<Vec<_>>(),
                    expect_mis,
                    "{label}: simulator MIS at n={n}"
                );
            }
        }
    }
}
