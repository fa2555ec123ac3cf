//! End-to-end tests for the flight recorder and divergence tooling:
//!
//! * an injected coin flip in a `FlatBackend` fork is localized to the
//!   exact first divergent round and node, and the emitted replay
//!   artifact reproduces the report byte-for-byte through the `arbmis
//!   replay` subcommand, which rejects malformed artifacts cleanly;
//! * flight capture obeys the §8 observation rule — transcripts,
//!   metrics, and states are bit-identical with the recorder on or off,
//!   and the recorded flight bytes are identical run to run;
//! * the `(round, joiners, joiner_digest, coin_digest)` columns of flat
//!   and congest-backend flight records agree for every algorithm.

use arbmis::congest::Simulator;
use arbmis::core::protocols::MetivierProtocol;
use arbmis::core::{ArbParams, ParamMode};
use arbmis::flat::divergence::{localize, BackendSpec, DivergenceKind, ReplayArtifact};
use arbmis::flat::{CoinFlip, CongestBackend, FlatAlgo, FlatBackend, MisBackend};
use arbmis::graph::gen::{GraphFamily, GraphSpec};
use arbmis::obs::FlightRecorder;
use rand::SeedableRng;

const MAX_ROUNDS: u64 = 100_000;

fn graph(fam: GraphFamily, n: usize, seed: u64) -> arbmis::graph::Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    GraphSpec::new(fam, n).generate(&mut rng)
}

/// Searches for a coin flip whose entire first-round effect is one
/// node: flipping `v`'s iteration-0 coin changes `v`'s fate and nobody
/// else's at the first divergent round.
fn find_single_node_flip(
    g: &arbmis::graph::Graph,
    seed: u64,
) -> Option<(CoinFlip, arbmis::flat::Divergence)> {
    for node in 0..g.n() {
        for xor in [u64::MAX >> 1, 0xdead_beef_0000_0001, 2] {
            let flip = CoinFlip {
                node,
                iteration: 0,
                xor,
            };
            let mut a = FlatBackend::new(g, seed, FlatAlgo::Metivier).with_coin_flip(flip);
            let mut b = CongestBackend::new(g, seed, FlatAlgo::Metivier);
            let Ok(Some(d)) = localize(&mut a, &mut b, MAX_ROUNDS) else {
                continue;
            };
            if d.nodes == [node] {
                return Some((flip, d));
            }
        }
    }
    None
}

#[test]
fn injected_flip_localizes_to_exact_round_and_node() {
    let g = graph(GraphFamily::GnpAvgDegree { d: 4.0 }, 120, 19);
    let (flip, d) = find_single_node_flip(&g, 7).expect("some flip isolates a single node");
    // The flip perturbs iteration 0, whose joiners land at round 2 — the
    // first possible divergence point.
    assert_eq!(d.round, 2, "first divergent round");
    assert_eq!(d.kind, DivergenceKind::Joiners);
    assert_eq!(d.nodes, vec![flip.node], "minimal divergent node set");
}

#[test]
fn replay_artifact_reproduces_byte_for_byte_through_the_cli() {
    let g = graph(GraphFamily::GnpAvgDegree { d: 4.0 }, 120, 19);
    let (flip, d) = find_single_node_flip(&g, 7).expect("some flip isolates a single node");
    let artifact = ReplayArtifact::from_case(
        &g,
        7,
        FlatAlgo::Metivier,
        BackendSpec::flat().with_coin_flip(flip),
        BackendSpec::congest(),
        MAX_ROUNDS,
        Some(&d),
    );

    // JSON round-trip is lossless and byte-stable.
    let json = artifact.to_json();
    let parsed = ReplayArtifact::from_json(&json).unwrap();
    assert_eq!(parsed, artifact);
    assert_eq!(parsed.to_json(), json);

    // Library replay reproduces the recorded divergence.
    let report = parsed.replay().unwrap();
    assert_eq!(report.matches_expected, Some(true));
    assert_eq!(report.divergence.as_ref(), Some(&d));
    let expected_stdout = parsed.render(&report);

    // The CLI consumes the artifact file and prints the identical bytes.
    let dir = std::env::temp_dir().join(format!("arbmis-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("artifact.json");
    std::fs::write(&path, &json).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_arbmis"))
        .args(["replay", "--input", path.to_str().unwrap()])
        .output()
        .expect("spawn arbmis replay");
    assert!(
        out.status.success(),
        "replay exit status: {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected_stdout,
        "CLI replay output must be byte-identical to the library render"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn backends_without_perturbation_do_not_diverge() {
    let g = graph(GraphFamily::KTree { k: 3 }, 90, 5);
    for algo in [FlatAlgo::Luby, FlatAlgo::Metivier] {
        let mut a = FlatBackend::new(&g, 11, algo);
        let mut b = CongestBackend::new(&g, 11, algo);
        assert_eq!(localize(&mut a, &mut b, MAX_ROUNDS).unwrap(), None);
    }
}

/// A malformed artifact (a self loop, which `Graph::from_edges` would
/// panic on) makes `arbmis replay` exit non-zero with a message naming
/// the edge, never a panic.
#[test]
fn replay_cli_rejects_a_self_loop_artifact() {
    let mut artifact = ReplayArtifact::from_case(
        &arbmis::graph::gen::path(4),
        1,
        FlatAlgo::Luby,
        BackendSpec::flat(),
        BackendSpec::congest(),
        MAX_ROUNDS,
        None,
    );
    artifact.edges.push((2, 2));
    let dir = std::env::temp_dir().join(format!("arbmis-replay-loop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("artifact.json");
    std::fs::write(&path, artifact.to_json()).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_arbmis"))
        .args(["replay", "--input", path.to_str().unwrap()])
        .output()
        .expect("spawn arbmis replay");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: replay artifact: edge (2, 2) is a self loop"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// §8 differential: the flight recorder never perturbs the simulator.
/// Transcripts, metrics, and states agree with capture on and off, and
/// the captured bytes are a pure function of the run.
#[test]
fn flight_capture_is_observation_only() {
    let g = graph(GraphFamily::GnpAvgDegree { d: 5.0 }, 150, 23);
    let seed = 3;
    let proto = MetivierProtocol;

    let (base, t_base) = Simulator::new(&g, seed)
        .run_traced(&proto, MAX_ROUNDS)
        .unwrap();

    let capture = || {
        let flight = FlightRecorder::bounded(1 << 16);
        let (out, t) = Simulator::new(&g, seed)
            .with_flight(flight.clone())
            .run_traced(&proto, MAX_ROUNDS)
            .unwrap();
        (out, t, flight.to_jsonl())
    };
    let (out, t, bytes) = capture();
    assert_eq!(t.digest(), t_base.digest(), "digest with flight on");
    assert_eq!(out.metrics, base.metrics, "metrics with flight on");
    let project = |states: &[arbmis::core::protocols::MisNodeState]| -> Vec<(bool, bool)> {
        states.iter().map(|s| (s.in_mis, s.active)).collect()
    };
    assert_eq!(project(&out.states), project(&base.states));
    assert!(bytes.lines().count() > 1, "captured at least a round");
    assert_eq!(capture().2, bytes, "flight bytes must be reproducible");
}

/// The cross-backend-stable flight columns: for the same graph, seed,
/// and algorithm, flat and congest-backend records agree on
/// `(round, joiners, joiner_digest, coin_digest)` at every round.
#[test]
fn flight_digest_columns_agree_across_backends() {
    let g = graph(GraphFamily::KTree { k: 3 }, 80, 13);
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
        let fa = FlightRecorder::bounded(1 << 16);
        let mut a = FlatBackend::new(&g, 9, algo).with_flight(fa.clone());
        a.run(MAX_ROUNDS).unwrap();
        let fb = FlightRecorder::bounded(1 << 16);
        let mut b = CongestBackend::new(&g, 9, algo).with_flight(fb.clone());
        b.run(MAX_ROUNDS).unwrap();

        let cols = |f: &FlightRecorder, engine: &str| -> Vec<(u64, u64, u64, u64)> {
            f.records()
                .iter()
                .filter(|r| r.engine == engine)
                .map(|r| (r.round, r.joiners, r.joiner_digest, r.coin_digest))
                .collect()
        };
        let flat_cols = cols(&fa, "flat");
        let congest_cols = cols(&fb, "congest-backend");
        assert!(
            !flat_cols.is_empty(),
            "{}: flat recorded rounds",
            algo.label()
        );
        assert_eq!(
            flat_cols,
            congest_cols,
            "{}: cross-backend flight columns",
            algo.label()
        );
    }
}

/// A perturbed flat run's flight log pinpoints *where* the coins
/// diverged: the coin digest differs from the pristine reference at
/// exactly the flipped decide round.
#[test]
fn flight_coin_digests_pinpoint_the_perturbed_round() {
    let g = graph(GraphFamily::GnpAvgDegree { d: 4.0 }, 100, 29);
    let flip = CoinFlip {
        node: 17,
        iteration: 1,
        xor: u64::MAX >> 1,
    };
    let fa = FlightRecorder::bounded(1 << 16);
    let mut a = FlatBackend::new(&g, 5, FlatAlgo::Metivier)
        .with_flight(fa.clone())
        .with_coin_flip(flip);
    // Run the perturbed backend only up to the perturbed iteration's
    // decide round so the two executions are still aligned.
    a.init();
    for _ in 0..5 {
        a.step_round().unwrap();
    }
    let fb = FlightRecorder::bounded(1 << 16);
    let mut b = CongestBackend::new(&g, 5, FlatAlgo::Metivier).with_flight(fb.clone());
    b.init();
    for _ in 0..5 {
        b.step_round().unwrap();
    }
    let coins = |f: &FlightRecorder, engine: &str| -> Vec<(u64, u64)> {
        f.records()
            .iter()
            .filter(|r| r.engine == engine)
            .map(|r| (r.round, r.coin_digest))
            .collect()
    };
    let flat = coins(&fa, "flat");
    let pristine = coins(&fb, "congest-backend");
    assert_eq!(flat.len(), pristine.len());
    for (&(ra, ca), &(rb, cb)) in flat.iter().zip(&pristine) {
        assert_eq!(ra, rb);
        if ra == 4 {
            // Iteration 1 decides at round 4: the flip must show here.
            assert_ne!(ca, cb, "round 4 coin digest must differ");
        } else {
            assert_eq!(ca, cb, "round {ra} coin digest must agree");
        }
    }
}
