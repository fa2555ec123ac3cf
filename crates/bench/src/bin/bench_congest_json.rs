//! Machine-readable companion to the `bench_congest` Criterion group:
//! measures median ns/round of the serial CONGEST round engine on the
//! standard acceptance workloads — broadcast-heavy G(50k, p = 4/n), a
//! random k-tree and two sparse-tail cases — and writes
//! `BENCH_congest.json` so the perf trajectory accumulates across
//! commits.
//!
//! Usage:
//!
//! ```text
//! bench_congest_json [--out PATH] [--samples N]
//! ```
//!
//! The observability-overhead guardrail times plain and recorded runs
//! interleaved pair by pair (alternating which goes first) and reports
//! the median per-pair ratio with its interquartile range, so host noise
//! shows as spread instead of as a shifted ratio.

use arbmis_congest::algorithms::ConvergeCast;
use arbmis_congest::{Protocol, Simulator};
use arbmis_core::params::{ArbParams, ParamMode};
use arbmis_core::protocols::{BoundedArbProtocol, MetivierProtocol};
use arbmis_graph::{gen, Graph};
use arbmis_obs::{FlightRecorder, Recorder};
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 3;
const MAX_ROUNDS: u64 = 100_000;

#[derive(Serialize)]
struct BenchDoc {
    schema: String,
    samples: u64,
    /// Core count of the machine that produced the numbers — without it
    /// the timings are uninterpretable across hosts.
    host_threads: u64,
    workloads: Vec<BenchEntry>,
    /// Observability-overhead guardrail: ns/round on `gnp50k_d4` with the
    /// deterministic metric recorder *and* a bounded flight recorder
    /// attached, vs the plain run. Capture must stay cheap enough to
    /// leave on everywhere (DESIGN.md §8).
    obs_overhead: ObsOverhead,
}

#[derive(Serialize)]
struct ObsOverhead {
    workload: String,
    /// Number of interleaved (plain, recorded) pairs.
    pairs: u64,
    plain_ns_per_round: f64,
    recorded_ns_per_round: f64,
    /// Median over pairs of recorded / plain.
    overhead_ratio: f64,
    /// First quartile of the per-pair ratios.
    overhead_ratio_q1: f64,
    /// Third quartile of the per-pair ratios.
    overhead_ratio_q3: f64,
}

#[derive(Serialize)]
struct BenchEntry {
    name: String,
    protocol: String,
    n: u64,
    m: u64,
    rounds: u64,
    ns_per_round: f64,
}

/// The protocol a workload drives — broadcast-heavy MIS twins plus the
/// shattering-tail cases where activity collapses long before the run
/// ends (most rounds touch a handful of nodes; the frontier engine must
/// not bill O(n) for them).
enum WorkloadProto {
    Metivier,
    BoundedArb(BoundedArbProtocol),
    ConvergeCast(ConvergeCast),
}

struct Workload {
    name: &'static str,
    protocol: &'static str,
    graph: Graph,
    proto: WorkloadProto,
    max_rounds: u64,
}

fn workloads() -> Vec<Workload> {
    // Same generator seeds as benches/bench_congest.rs, so the Criterion
    // group and this emitter measure the same graphs.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let n = 50_000;
    let gnp = gen::gnp(n, 4.0 / n as f64, &mut rng);
    let ktree = gen::random_ktree(20_000, 3, &mut rng);

    // BoundedArb twin on the k-tree: nodes halt as soon as they resolve,
    // so the later rounds step a shrinking survivor set — the frontier
    // engine must bill those rounds by survivors, not by n.
    let params = ArbParams::new(
        3,
        ktree.max_degree(),
        ParamMode::Practical { lambda_scale: 1.0 },
    );
    let arb = BoundedArbProtocol {
        params,
        rho_cutoff: true,
    };
    let arb_rounds = arb.total_rounds() + 2;

    // Sparse-activity tail in the extreme: a converge-cast wave up a
    // path steps exactly one node per round for ~n rounds. Engine cost
    // must track the wave front, not n.
    let wave_n = 20_000;
    let path = gen::path(wave_n);
    let parent: Vec<Option<usize>> = (0..wave_n)
        .map(|v| (v + 1 < wave_n).then_some(v + 1))
        .collect();
    let cast = ConvergeCast::new(parent, vec![1u64; wave_n]);

    vec![
        Workload {
            name: "gnp50k_d4",
            protocol: "metivier",
            graph: gnp,
            proto: WorkloadProto::Metivier,
            max_rounds: MAX_ROUNDS,
        },
        Workload {
            name: "ktree20k_k3",
            protocol: "metivier",
            graph: ktree.clone(),
            proto: WorkloadProto::Metivier,
            max_rounds: MAX_ROUNDS,
        },
        Workload {
            name: "ktree20k_arb",
            protocol: "bounded_arb",
            graph: ktree,
            proto: WorkloadProto::BoundedArb(arb),
            max_rounds: arb_rounds,
        },
        Workload {
            name: "wavepath20k",
            protocol: "converge_cast",
            graph: path,
            proto: WorkloadProto::ConvergeCast(cast),
            max_rounds: wave_n as u64 + 5,
        },
    ]
}

/// The `q`-quantile of `xs` (linear interpolation between order
/// statistics); sorts `xs` in place.
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Wall time and round count of one run of `proto` on `sim`.
fn time_run<P: Protocol>(sim: Simulator<'_>, proto: &P, max_rounds: u64) -> (f64, u64) {
    let t0 = Instant::now();
    let run = sim.run(proto, max_rounds).unwrap();
    (t0.elapsed().as_nanos() as f64, run.metrics.rounds)
}

/// Median ns/round over `samples` runs, and the round count (identical
/// across samples — the engine is deterministic).
fn median_ns_per_round<P: Protocol>(
    g: &Graph,
    proto: &P,
    max_rounds: u64,
    samples: usize,
) -> (f64, u64) {
    let mut rounds = 0;
    let mut per_round: Vec<f64> = (0..samples)
        .map(|_| {
            let (ns, r) = time_run(Simulator::new(g, SEED), proto, max_rounds);
            rounds = r;
            ns / r.max(1) as f64
        })
        .collect();
    (quantile(&mut per_round, 0.5), rounds)
}

/// Plain vs recorded (deterministic recorder + bounded flight ring)
/// Métivier on `g`, interleaved pair by pair.
fn obs_overhead(name: &str, g: &Graph, pairs: usize) -> ObsOverhead {
    let plain = || time_run(Simulator::new(g, SEED), &MetivierProtocol, MAX_ROUNDS);
    let recorded = || {
        let sim = Simulator::new(g, SEED)
            .with_recorder(Recorder::deterministic())
            .with_flight(FlightRecorder::bounded(4096));
        time_run(sim, &MetivierProtocol, MAX_ROUNDS)
    };
    let (mut plain_ns, mut rec_ns, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..pairs {
        let ((p, rounds), (r, rec_rounds)) = if i % 2 == 0 {
            let p = plain();
            (p, recorded())
        } else {
            let r = recorded();
            (plain(), r)
        };
        assert_eq!(rounds, rec_rounds, "recording changed the round count");
        let per_round = rounds.max(1) as f64;
        plain_ns.push(p / per_round);
        rec_ns.push(r / per_round);
        ratios.push(r / p);
    }
    ObsOverhead {
        workload: name.to_string(),
        pairs: pairs as u64,
        plain_ns_per_round: quantile(&mut plain_ns, 0.5),
        recorded_ns_per_round: quantile(&mut rec_ns, 0.5),
        overhead_ratio: quantile(&mut ratios, 0.5),
        overhead_ratio_q1: quantile(&mut ratios, 0.25),
        overhead_ratio_q3: quantile(&mut ratios, 0.75),
    }
}

fn main() {
    let mut out_path = "BENCH_congest.json".to_string();
    let mut samples = 11usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--samples" => {
                samples = args
                    .next()
                    .expect("--samples needs a count")
                    .parse()
                    .expect("--samples must be an integer")
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    assert!(samples > 0, "--samples must be positive");

    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut entries = Vec::new();
    let mut overhead = None;
    for w in workloads() {
        let g = &w.graph;
        let (ns, rounds) = match &w.proto {
            WorkloadProto::Metivier => {
                median_ns_per_round(g, &MetivierProtocol, w.max_rounds, samples)
            }
            WorkloadProto::BoundedArb(p) => median_ns_per_round(g, p, w.max_rounds, samples),
            WorkloadProto::ConvergeCast(p) => median_ns_per_round(g, p, w.max_rounds, samples),
        };
        eprintln!("{}: {ns:.0} ns/round", w.name);
        if w.name == "gnp50k_d4" {
            let o = obs_overhead(w.name, g, samples);
            eprintln!(
                "{}: obs-recorded {:.2}x plain (IQR {:.2}–{:.2}, {} pairs)",
                w.name, o.overhead_ratio, o.overhead_ratio_q1, o.overhead_ratio_q3, o.pairs
            );
            overhead = Some(o);
        }
        entries.push(BenchEntry {
            name: w.name.to_string(),
            protocol: w.protocol.to_string(),
            n: g.n() as u64,
            m: g.m() as u64,
            rounds,
            ns_per_round: ns,
        });
    }

    let doc = BenchDoc {
        schema: "bench_congest/v2".to_string(),
        samples: samples as u64,
        host_threads: host_threads as u64,
        workloads: entries,
        obs_overhead: overhead.expect("the gnp50k_d4 workload is always measured"),
    };
    let text = serde_json::to_string_pretty(&doc).expect("serializing the JSON artifact");
    std::fs::write(&out_path, text + "\n").expect("writing the JSON artifact");
    eprintln!("wrote {out_path}");
}
