//! The flat layer at scale: Luby then Métivier through `FlatBackend` on
//! one G(n, d̄=4) graph with 4M nodes, single thread, identity order,
//! driven round by round with `step_round` — E9's "rounds to a complete
//! MIS" race. Its CSR (≈160 MB) is larger than a typical last-level
//! cache, so a layout change can show.
//!
//! This is a traced-run section only: `churn_100k`'s traced run calls it
//! for the `flat.*` per-layer metrics (see the benchmark README for why
//! the race is not an end-to-end workload of its own).

use crate::report::{mean, median, spread, Record};
use crate::trace::Tracer;
use crate::{csr_bytes, mis_ok, op_seed, Args};
use arbmis_flat::{FlatAlgo, FlatBackend, MisBackend, NodeOrder};
use arbmis_graph::{gen, Graph};
use rand::SeedableRng;
use std::time::Instant;

/// Same cap the CLI uses; the flat engine finishes far below it.
const MAX_ROUNDS: u64 = 100_000;

/// Execution knobs of one solve (the A/B pairs of the traced run).
#[derive(Clone, Copy)]
struct Knobs {
    order: NodeOrder,
    threads: usize,
}

const PLAIN: Knobs = Knobs {
    order: NodeOrder::Identity,
    threads: 1,
};

/// One timed solve. `new_ns` covers `FlatBackend::new` plus any knob
/// set-up (layout build), `solve_ns` the `step_round` loop.
struct Solve {
    in_mis: Vec<bool>,
    rounds: u64,
    new_ns: u64,
    layout_ns: u64,
    solve_ns: u64,
}

impl Solve {
    fn total_ns(&self) -> u64 {
        self.new_ns + self.layout_ns + self.solve_ns
    }
}

/// Per-round samples collected on traced solves.
#[derive(Default)]
struct RoundLog {
    round_ns: Vec<f64>,
    active_node_rounds: u64,
}

fn solve(
    g: &Graph,
    seed: u64,
    algo: FlatAlgo,
    knobs: Knobs,
    mut log: Option<(&mut Tracer, &mut RoundLog)>,
) -> Result<Solve, String> {
    let t = Instant::now();
    let mut b = FlatBackend::new(g, seed, algo).with_threads(knobs.threads);
    let new_ns = t.elapsed().as_nanos() as u64;
    let mut layout_ns = 0;
    if !matches!(knobs.order, NodeOrder::Identity) {
        let t = Instant::now();
        b = b.with_order(knobs.order);
        layout_ns = t.elapsed().as_nanos() as u64;
    }
    let t = Instant::now();
    while !b.is_done() {
        if b.round() >= MAX_ROUNDS {
            return Err(format!("{} exceeded {MAX_ROUNDS} rounds", algo.label()));
        }
        match log.as_mut() {
            None => b.step_round().map_err(|e| e.to_string())?,
            Some((tracer, rounds)) => {
                rounds.active_node_rounds += b.active_count() as u64;
                let r0 = Instant::now();
                b.step_round().map_err(|e| e.to_string())?;
                let r1 = Instant::now();
                tracer.record("flat.round", r0, r1);
                rounds.round_ns.push((r1 - r0).as_nanos() as f64);
            }
        }
    }
    let solve_ns = t.elapsed().as_nanos() as u64;
    Ok(Solve {
        in_mis: b.mis().to_bools(),
        rounds: b.round(),
        new_ns,
        layout_ns,
        solve_ns,
    })
}

/// `flat-trace --n N --seed S --seconds T [--trace-out FILE]`: traced ops
/// (per-round spans) interleaved with the two knob A/B pairs.
pub fn trace(args: &Args) -> Result<Record, String> {
    let n: usize = args.num("n", 4_000_000)?;
    let seed: u64 = args.num("seed", 1)?;
    let seconds: f64 = args.num("seconds", 10.0)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let g = &gen::gnp_with_expected_degree(n, 4.0, &mut rng);
    let mut rec = Record::default();
    rec.fact("flat_n", g.n());
    rec.fact("flat_m", g.m());
    rec.fact("flat_csr_bytes", csr_bytes(g));

    let mut tracer = Tracer::default();
    let mut log = RoundLog::default();
    let (mut new_ms, mut luby_ms, mut met_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut luby_rounds, mut met_rounds, mut anr) = (Vec::new(), Vec::new(), Vec::new());
    let (mut order_ratio, mut layout_ms, mut threads_ratio) = (Vec::new(), Vec::new(), Vec::new());
    let mut solve_ns_total = 0u64;

    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        let s = op_seed(seed, i);
        tracer.set_op(i);
        let op = tracer.begin("flat.op");
        let before = log.active_node_rounds;
        let mut sides = Vec::new();
        for (algo, name) in [
            (FlatAlgo::Luby, "flat.luby_solve"),
            (FlatAlgo::Metivier, "flat.metivier_solve"),
        ] {
            let span = tracer.begin(name);
            let out = solve(g, s, algo, PLAIN, Some((&mut tracer, &mut log)))?;
            tracer.end(span);
            new_ms.push(out.new_ns as f64 / 1e6);
            solve_ns_total += out.solve_ns;
            if matches!(algo, FlatAlgo::Luby) {
                luby_ms.push(out.solve_ns as f64 / 1e6);
                luby_rounds.push(out.rounds as f64);
            } else {
                met_ms.push(out.solve_ns as f64 / 1e6);
                met_rounds.push(out.rounds as f64);
            }
            sides.push(out);
        }
        tracer.end(op);
        anr.push((log.active_node_rounds - before) as f64);
        rec.op(sides.iter().all(|o| mis_ok(g, &o.in_mis)));

        // Knob pairs on Métivier, alternating which side runs first.
        let met = FlatAlgo::Metivier;
        let degree = Knobs {
            order: NodeOrder::Degree,
            threads: 1,
        };
        let two = Knobs {
            order: NodeOrder::Identity,
            threads: 2,
        };
        for (knob, ratios) in [(degree, &mut order_ratio), (two, &mut threads_ratio)] {
            let (a, b) = if i.is_multiple_of(2) {
                let a = solve(g, s, met, PLAIN, None)?;
                (a, solve(g, s, met, knob, None)?)
            } else {
                let b = solve(g, s, met, knob, None)?;
                (solve(g, s, met, PLAIN, None)?, b)
            };
            // Knobs are execution details: the MIS must not move.
            rec.op(a.in_mis == b.in_mis && a.rounds == b.rounds);
            ratios.push(b.total_ns() as f64 / a.total_ns() as f64);
            if b.layout_ns > 0 {
                layout_ms.push(b.layout_ns as f64 / 1e6);
            }
        }
        i += 1;
    }
    if let Some(path) = args.opt("trace-out") {
        std::fs::write(path, tracer.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
    }

    let anr_total: f64 = anr.iter().sum();
    rec.fact("flat_ops", i);
    rec.metric("flat.new_ms", median(&new_ms), "ms");
    rec.metric("flat.luby_solve_ms", median(&luby_ms), "ms");
    rec.metric("flat.metivier_solve_ms", median(&met_ms), "ms");
    rec.metric("flat.round_ns_p50", median(&log.round_ns), "ns");
    rec.metric("flat.active_node_rounds", mean(&anr), "count");
    rec.metric(
        "flat.ns_per_active_node",
        solve_ns_total as f64 / anr_total.max(1.0),
        "ns",
    );
    rec.metric("flat.rounds.luby", mean(&luby_rounds), "count");
    rec.metric("flat.rounds.metivier", mean(&met_rounds), "count");
    rec.metric("flat.order_degree_ratio", median(&order_ratio), "ratio");
    rec.metric(
        "flat.order_degree_ratio_spread",
        spread(&order_ratio),
        "ratio",
    );
    rec.metric("flat.layout_degree_ms", median(&layout_ms), "ms");
    rec.metric("flat.threads2_ratio", median(&threads_ratio), "ratio");
    rec.metric(
        "flat.threads2_ratio_spread",
        spread(&threads_ratio),
        "ratio",
    );
    Ok(rec)
}
