//! `arbmis_planar_1m`: the paper's algorithm on its target planar
//! family through the user's entry point, `arbmis run`.
//!
//! `arbmis gen` writes the input in set-up. `planar-trace` is the traced
//! run: it times the generator on the same family, size and seed, then
//! interleaves the untraced op (an `arbmis run` process) with an
//! in-process replica that makes the same calls the CLI makes —
//! `io::read_file`, `degeneracy`, `arb_mis_with`, `check_mis` — each
//! under a benchmark span, with an `arbmis_obs::Recorder` attached to
//! `arb_mis_with` so its existing phase spans split the engine time.

use crate::report::{mean, median, Record};
use crate::trace::{obs_self_ns, Tracer};
use crate::{mis_ok, Args};
use arbmis_core::arb_mis::arb_mis_with;
use arbmis_core::ArbMisConfig;
use arbmis_graph::gen::{GraphFamily, GraphSpec};
use arbmis_graph::{arboricity, io, GraphBuilder};
use arbmis_obs::Recorder;
use rand::SeedableRng;
use std::process::Command;
use std::time::Instant;

/// ArbMIS phases, in pipeline order, as `arb_mis_with` names its spans.
const PHASES: [&str; 5] = [
    "degree_reduction",
    "shattering",
    "vlo",
    "vhi",
    "bad_components",
];

/// `(MIS size, rounds)` from `arbmis run`'s verdict line, which it
/// prints only after `check_mis` passed.
pub fn parse_cli_verdict(stdout: &str) -> Option<(usize, u64)> {
    let line = stdout.lines().find(|l| l.ends_with("verified ✓"))?;
    let rest = line.split("MIS size ").nth(1)?;
    let mut words = rest.split([',', ' ']).filter(|w| !w.is_empty());
    let size = words.next()?.parse().ok()?;
    let rounds = words.next()?.parse().ok()?;
    Some((size, rounds))
}

/// `planar-trace --input FILE --seed S --seconds T --cli PATH`.
pub fn trace(args: &Args) -> Result<Record, String> {
    let input = args.str("input")?;
    let seed: u64 = args.num("seed", 1)?;
    let seconds: f64 = args.num("seconds", 10.0)?;
    let cli = args.str("cli")?;
    let file_mb = std::fs::metadata(input)
        .map_err(|e| format!("{input}: {e}"))?
        .len() as f64
        / 1e6;

    // `graph.gen_ms`: the generator `arbmis gen --family apollonian`
    // calls; its graph must be the one in the input file.
    let mut rec = Record::default();
    let read = io::read_file(input).map_err(|e| format!("{input}: {e}"))?;
    let t = Instant::now();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let generated = GraphSpec::new(GraphFamily::Apollonian, read.n()).generate(&mut rng);
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    rec.op(generated == read);
    drop((read, generated));

    let mut tracer = Tracer::default();
    let mut cli_ms = Vec::new();
    let mut replica_ms = Vec::new();
    let mut layer_sum_ms = Vec::new();
    let (mut read_ms, mut degen_ms, mut check_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut phase_ms: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    let mut phase_rounds: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    let (mut arb_obs_ms, mut arb_self_ms, mut shatter_iters) = (Vec::new(), Vec::new(), Vec::new());
    let mut recorder_ratio = Vec::new();
    let mut csr_build_ms = Vec::new();

    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        // Untraced op: the CLI process.
        let t = Instant::now();
        let out = Command::new(cli)
            .args(["run", "--input", input, "--algo", "arbmis", "--seed"])
            .arg(seed.to_string())
            .output()
            .map_err(|e| format!("spawning {cli}: {e}"))?;
        cli_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let verdict = out
            .status
            .success()
            .then(|| parse_cli_verdict(&String::from_utf8_lossy(&out.stdout)))
            .flatten();

        // Traced op: the in-process replica of the same calls.
        tracer.set_op(i);
        let op = tracer.begin("cli.replica");
        let (g, ns) = tracer.time("graph.io_read", || io::read_file(input));
        let g = g.map_err(|e| format!("{input}: {e}"))?;
        read_ms.push(ns as f64 / 1e6);
        let (alpha, ns) = tracer.time("graph.degeneracy", || arboricity::degeneracy(&g).max(1));
        degen_ms.push(ns as f64 / 1e6);
        let cfg = ArbMisConfig::new(alpha, seed);
        let obs = Recorder::new();
        let (outcome, _) = tracer.time("core.arb_mis_with", || arb_mis_with(&g, &cfg, &obs));
        let (ok, ns) = tracer.time("core.check_mis", || mis_ok(&g, &outcome.in_mis));
        check_ms.push(ns as f64 / 1e6);
        let replica_ns = tracer.end(op);
        replica_ms.push(replica_ns as f64 / 1e6);
        // The replica must reproduce the CLI's verified MIS exactly.
        rec.op(ok && verdict == Some((outcome.mis_size(), outcome.rounds)));

        let snap = obs.snapshot();
        let spans = snap.span_durations();
        let span_ms = |path: &str| {
            spans
                .iter()
                .filter(|(p, _)| p == path)
                .map(|(_, ns)| *ns as f64 / 1e6)
                .sum::<f64>()
        };
        arb_obs_ms.push(span_ms("arbmis"));
        arb_self_ms.push(obs_self_ns(&spans, "arbmis") as f64 / 1e6);
        let rounds = [
            outcome.phases.degree_reduction,
            outcome.phases.shattering,
            outcome.phases.vlo,
            outcome.phases.vhi,
            outcome.phases.bad_components,
        ];
        for (k, phase) in PHASES.iter().enumerate() {
            phase_ms[k].push(span_ms(&format!("arbmis/{phase}")));
            phase_rounds[k].push(rounds[k] as f64);
        }
        shatter_iters.push(snap.counter("arbmis_shatter_iterations").unwrap_or(0) as f64);

        // A/B: the recorder attached vs detached, alternating sides.
        let timed = |r: Recorder| {
            let t = Instant::now();
            let out = arb_mis_with(&g, &cfg, &r);
            (t.elapsed().as_secs_f64(), out.rounds)
        };
        let (on, off) = if i.is_multiple_of(2) {
            let on = timed(Recorder::new());
            (on, timed(Recorder::disabled()))
        } else {
            let off = timed(Recorder::disabled());
            (timed(Recorder::new()), off)
        };
        rec.op(on.1 == off.1 && on.1 == outcome.rounds);
        recorder_ratio.push(on.0 / off.0);
        // What the CLI spends outside the layers, which it runs with no
        // recorder attached: compare against the detached engine time.
        layer_sum_ms.push(
            read_ms[read_ms.len() - 1]
                + degen_ms[degen_ms.len() - 1]
                + off.0 * 1e3
                + check_ms[check_ms.len() - 1],
        );

        // GraphBuilder::build on the same edges.
        let edges: Vec<_> = g.edges().collect();
        let t = Instant::now();
        let built = GraphBuilder::with_capacity(g.n(), edges.len())
            .extend_edges(edges.iter().copied())
            .build();
        csr_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rec.op(built.m() == g.m());
        i += 1;
    }
    if let Some(path) = args.opt("trace-out") {
        std::fs::write(path, tracer.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
    }

    let io_ms = median(&read_ms);
    rec.fact("ops", i);
    rec.fact("threads", 1);
    rec.metric("graph.gen_ms", gen_ms, "ms");
    rec.metric("graph.io_read_ms", io_ms, "ms");
    rec.metric("graph.io_mb_per_s", file_mb / (io_ms / 1e3), "MB/s");
    rec.metric("graph.csr_build_ms", median(&csr_build_ms), "ms");
    rec.metric("graph.degeneracy_ms", median(&degen_ms), "ms");
    rec.metric("core.arbmis_ms", median(&arb_obs_ms), "ms");
    for (k, phase) in PHASES.iter().enumerate() {
        rec.metric(&format!("core.{phase}_ms"), median(&phase_ms[k]), "ms");
    }
    rec.metric("core.arbmis_self_ms", median(&arb_self_ms), "ms");
    for (k, phase) in PHASES.iter().enumerate() {
        rec.metric(
            &format!("core.rounds.{phase}"),
            mean(&phase_rounds[k]),
            "count",
        );
    }
    rec.metric("core.shatter_iterations", mean(&shatter_iters), "count");
    rec.metric("core.check_mis_ms", median(&check_ms), "ms");
    rec.metric(
        "cli.uncovered_ms",
        median(&cli_ms) - median(&layer_sum_ms),
        "ms",
    );
    rec.metric(
        "obs.recorder_overhead_ratio",
        median(&recorder_ratio),
        "ratio",
    );
    rec.metric(
        "obs.recorder_overhead_ratio_spread",
        crate::report::spread(&recorder_ratio),
        "ratio",
    );
    rec.metric(
        "trace.overhead_ratio",
        median(&replica_ms) / median(&cli_ms),
        "ratio",
    );
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_verdict_parses_size_and_rounds() {
        let out = "phases: PhaseRounds { .. }\n\
                   arbmis on Graph(n=10, m=9): MIS size 4, 37 CONGEST rounds, verified ✓\n";
        assert_eq!(parse_cli_verdict(out), Some((4, 37)));
        assert_eq!(parse_cli_verdict("MIS size 4, 37 CONGEST rounds\n"), None);
    }
}
