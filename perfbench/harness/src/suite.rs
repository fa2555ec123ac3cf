//! `experiments_quick`'s traced run: the reproduction suite split by
//! experiment plan, which is where `readk` (E1–E5's Monte-Carlo) and the
//! `bench` cell scheduler do their work.
//!
//! Each iteration runs every plan alone through `sched::run_scheduled`
//! on one worker with the cache off, each under a benchmark span (the
//! traced op); then all plans together on one worker (the untraced op)
//! and on two workers (the scheduler speed-up pair), alternating which
//! of the last two runs first. Reports must be byte-identical to the
//! `experiments` process output passed as `--expect`.

use crate::report::{median, spread, Record};
use crate::trace::Tracer;
use crate::Args;
use arbmis_bench::cache::set_global_cache;
use arbmis_bench::cell::ExperimentPlan;
use arbmis_bench::exps;
use arbmis_bench::sched::{cell_count, run_scheduled};
use arbmis_bench::ExperimentReport;
use arbmis_congest::Parallelism;
use std::time::Instant;

/// The selected plans in index order (`quick` sizes).
fn plans(ids: &[String]) -> Vec<ExperimentPlan> {
    exps::all()
        .into_iter()
        .filter(|(id, _, _)| ids.is_empty() || ids.iter().any(|s| s == id))
        .map(|(_, _, plan)| plan(true))
        .collect()
}

/// Reports rendered exactly as `experiments` prints them.
fn render(reports: &[ExperimentReport]) -> String {
    reports
        .iter()
        .map(|r| format!("{}\n", r.to_text()))
        .collect()
}

fn timed_run(ids: &[String], parallelism: Parallelism) -> (f64, String) {
    let plans = plans(ids);
    let t = Instant::now();
    let out = run_scheduled(plans, parallelism);
    (t.elapsed().as_secs_f64(), render(&out.reports))
}

/// `suite-trace --seconds T --threads W --expect FILE [--exp E1,E9]`.
pub fn trace(args: &Args) -> Result<Record, String> {
    let seconds: f64 = args.num("seconds", 10.0)?;
    let threads: usize = args.num("threads", 2)?.max(1);
    let expect_path = args.str("expect")?;
    let expect = std::fs::read_to_string(expect_path).map_err(|e| format!("{expect_path}: {e}"))?;
    let ids: Vec<String> = args
        .opt("exp")
        .map(|s| s.split(',').map(str::to_string).collect())
        .unwrap_or_default();
    let registry: Vec<&str> = exps::all()
        .into_iter()
        .map(|(id, _, _)| id)
        .filter(|id| ids.is_empty() || ids.iter().any(|s| s == id))
        .collect();
    set_global_cache(None);

    let mut rec = Record::default();
    let mut tracer = Tracer::default();
    let mut plan_ms: Vec<Vec<f64>> = vec![Vec::new(); registry.len()];
    let (mut overhead, mut speedup) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        tracer.set_op(i);
        let op = tracer.begin("bench.suite");
        let mut text = String::new();
        for (k, id) in registry.iter().enumerate() {
            let one = [id.to_string()];
            let span = tracer.begin(&format!("bench.{id}"));
            let out = run_scheduled(plans(&one), Parallelism::Serial);
            plan_ms[k].push(tracer.end(span) as f64 / 1e6);
            text.push_str(&render(&out.reports));
        }
        let traced_s = tracer.end(op) as f64 / 1e9;
        rec.op(text == expect);

        let (serial, two) = if i.is_multiple_of(2) {
            let serial = timed_run(&ids, Parallelism::Serial);
            (serial, timed_run(&ids, Parallelism::Threads(threads)))
        } else {
            let two = timed_run(&ids, Parallelism::Threads(threads));
            (timed_run(&ids, Parallelism::Serial), two)
        };
        rec.op(serial.1 == expect);
        rec.op(two.1 == expect);
        overhead.push(traced_s / serial.0);
        speedup.push(serial.0 / two.0);
        i += 1;
    }
    if let Some(path) = args.opt("trace-out") {
        std::fs::write(path, tracer.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
    }

    rec.fact("ops", i);
    rec.fact("threads", threads);
    for (k, id) in registry.iter().enumerate() {
        rec.metric(&format!("bench.{id}_ms"), median(&plan_ms[k]), "ms");
    }
    rec.metric(
        "bench.sched_cells",
        cell_count(&plans(&ids)) as f64,
        "count",
    );
    rec.metric("bench.sched_speedup_2w", median(&speedup), "ratio");
    rec.metric("bench.sched_speedup_2w_spread", spread(&speedup), "ratio");
    rec.metric("trace.overhead_ratio", median(&overhead), "ratio");
    Ok(rec)
}
