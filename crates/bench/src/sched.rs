//! The work-stealing cell scheduler.
//!
//! [`run_scheduled`] fans the cells of *all* requested experiments into
//! one shared worker pool ([`arbmis_congest::execute_indexed`] — the
//! same atomic-claim executor the Monte-Carlo pool and the flat sweep
//! use), then reduces each experiment's outputs in deterministic cell
//! order. The determinism contract (DESIGN.md §9):
//!
//! 1. cells are pure, so *what* a cell computes never depends on which
//!    worker ran it or when;
//! 2. outputs are assembled by cell index and reduced in plan order, so
//!    scheduling cannot leak into report bytes;
//! 3. while the scheduler owns the pool, inner Monte-Carlo estimators
//!    are forced to [`Parallelism::Serial`] — their results are
//!    thread-count-invariant, so this changes wall-clock only, and it
//!    keeps `--threads N` meaning "N cells in flight", never N² threads.
//!
//! Hence `--threads 1` vs `--threads N`, and cold vs warm cache, produce
//! byte-identical reports.

use crate::cache::{global_cache, Cache, NS_CELL};
use crate::cell::{Cell, CellOut, ExperimentPlan, ReduceFn};
use crate::ExperimentReport;
use arbmis_congest::{default_parallelism, execute_indexed, set_default_parallelism, Parallelism};
use arbmis_obs::Recorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What one scheduled run did. Everything here is **timing-class**
/// information (wall-clock, pool size, cache temperature) — print it to
/// stderr or feed it to benches, never into report output.
#[derive(Clone, Copy, Debug)]
pub struct SchedStats {
    /// Total cells scheduled.
    pub cells: usize,
    /// Cells served from the result cache.
    pub cell_hits: u64,
    /// Cells actually executed.
    pub cell_misses: u64,
    /// Worker threads used.
    pub workers: usize,
    /// End-to-end wall time of the scheduled run.
    pub wall: Duration,
}

impl SchedStats {
    /// Cell-cache hits as a fraction of all cells (0.0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.cell_hits as f64 / self.cells as f64
        }
    }
}

/// The reports (in request order) plus run statistics.
#[derive(Debug)]
pub struct SchedOutcome {
    /// One report per requested experiment, in request order.
    pub reports: Vec<ExperimentReport>,
    /// Timing-class run statistics.
    pub stats: SchedStats,
}

/// Total cell count across a set of plans (what `--threads N` fans out).
pub fn cell_count(plans: &[ExperimentPlan]) -> usize {
    plans.iter().map(|p| p.cells.len()).sum()
}

/// Runs every cell of every plan on one shared work-stealing pool and
/// reduces to reports. See the module docs for the determinism contract.
///
/// # Panics
///
/// Panics if two cells share a cache key — that is a plan-construction
/// bug that would make "which output belongs to which cell" ambiguous.
pub fn run_scheduled(plans: Vec<ExperimentPlan>, parallelism: Parallelism) -> SchedOutcome {
    let start = Instant::now();
    // Split reduces (FnOnce, not Sync) from cells (Sync) so the cell
    // groups can be shared across the pool.
    let mut reduces: Vec<(usize, ReduceFn)> = Vec::with_capacity(plans.len());
    let mut groups: Vec<Vec<Cell>> = Vec::with_capacity(plans.len());
    for plan in plans {
        reduces.push((plan.cells.len(), plan.reduce));
        groups.push(plan.cells);
    }
    let index: Vec<&Cell> = groups.iter().flatten().collect();
    {
        let mut keys: Vec<&str> = index.iter().map(|c| c.key.as_str()).collect();
        keys.sort_unstable();
        keys.windows(2).for_each(|w| {
            assert_ne!(w[0], w[1], "duplicate cell cache key {:?}", w[0]);
        });
    }

    let workers = parallelism.effective_threads(index.len());
    let rec = arbmis_obs::global();
    rec.add("sched_cells", index.len() as u64);
    let cache = global_cache();
    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);

    // Inner engines go serial while the scheduler owns the pool
    // (restored below); see module docs, rule 3.
    let saved = default_parallelism();
    set_default_parallelism(Parallelism::Serial);
    let outs: Vec<CellOut> = execute_indexed(index.len(), parallelism, |_w, i| {
        run_one(index[i], cache.as_deref(), &rec, &hits, &misses)
    });
    set_default_parallelism(saved);

    drop(index);
    let mut outs = outs.into_iter();
    let mut reports = Vec::with_capacity(reduces.len());
    for (n, reduce) in reduces {
        let plan_outs: Vec<CellOut> = outs.by_ref().take(n).collect();
        reports.push(reduce(plan_outs));
    }

    let stats = SchedStats {
        cells: cell_count_from(&groups),
        cell_hits: hits.load(Ordering::Relaxed),
        cell_misses: misses.load(Ordering::Relaxed),
        workers,
        wall: start.elapsed(),
    };
    SchedOutcome { reports, stats }
}

fn cell_count_from(groups: &[Vec<Cell>]) -> usize {
    groups.iter().map(|g| g.len()).sum()
}

/// Serves one cell from the cache or runs it, with timing-class
/// bookkeeping (`worker_cell_cache_*` counters, `cell_run_ns`
/// histogram — quarantined names per DESIGN.md §8).
fn run_one(
    cell: &Cell,
    cache: Option<&Cache>,
    rec: &Recorder,
    hits: &AtomicU64,
    misses: &AtomicU64,
) -> CellOut {
    if let Some(cache) = cache {
        if let Some(out) = cache
            .get(NS_CELL, &cell.key)
            .and_then(|b| CellOut::from_bytes(&b))
        {
            hits.fetch_add(1, Ordering::Relaxed);
            rec.add_timing("worker_cell_cache_hits", 1);
            return out;
        }
    }
    misses.fetch_add(1, Ordering::Relaxed);
    rec.add_timing("worker_cell_cache_misses", 1);
    let t = rec.timing().then(Instant::now);
    let out = (cell.run)();
    if let Some(t) = t {
        rec.observe_timing("cell_run_ns", t.elapsed().as_nanos() as u64);
    }
    if let Some(cache) = cache {
        let _ = cache.put(NS_CELL, &cell.key, &out.to_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Table;

    fn toy_plan(id: &'static str, cells: usize, base: usize) -> ExperimentPlan {
        let cells = (0..cells)
            .map(|i| {
                Cell::new(
                    format!("{id}/c{i}"),
                    format!("test;{id};cell={i}"),
                    move || CellOut::from_rows(vec![vec![format!("{}", base + i)]]),
                )
            })
            .collect();
        ExperimentPlan::new(id, cells, move |outs| {
            let mut table = Table::new(["v"]);
            for o in outs {
                for r in o.rows {
                    table.push_row(r);
                }
            }
            ExperimentReport {
                id: id.into(),
                title: "toy".into(),
                table,
                notes: vec![],
            }
        })
    }

    fn column(r: &ExperimentReport) -> Vec<String> {
        r.table.rows.iter().map(|row| row[0].clone()).collect()
    }

    #[test]
    fn scheduled_reports_identical_at_every_thread_count() {
        let render = |threads| {
            let plans = vec![toy_plan("A", 7, 0), toy_plan("B", 3, 100)];
            let outcome = run_scheduled(plans, Parallelism::Threads(threads));
            assert_eq!(outcome.stats.cells, 10);
            outcome
                .reports
                .iter()
                .map(|r| serde_json::to_string(r).unwrap())
                .collect::<Vec<_>>()
        };
        let baseline = render(1);
        assert!(
            baseline[0].contains("\"id\":\"A\""),
            "request order preserved"
        );
        for threads in [2, 4, 8] {
            assert_eq!(render(threads), baseline, "threads={threads}");
        }
    }

    #[test]
    fn reduction_order_is_cell_order_not_completion_order() {
        let outcome = run_scheduled(vec![toy_plan("A", 16, 0)], Parallelism::Threads(8));
        let want: Vec<String> = (0..16).map(|i| i.to_string()).collect();
        assert_eq!(column(&outcome.reports[0]), want);
        assert_eq!(outcome.stats.cell_misses, 16, "no cache installed");
        assert_eq!(outcome.stats.cell_hits, 0);
    }

    #[test]
    #[should_panic(expected = "duplicate cell cache key")]
    fn duplicate_keys_rejected() {
        let cells = vec![
            Cell::new("a", "same-key", CellOut::default),
            Cell::new("b", "same-key", CellOut::default),
        ];
        let plan = ExperimentPlan::new("X", cells, |_| ExperimentReport {
            id: "X".into(),
            title: String::new(),
            table: Table::new(["c"]),
            notes: vec![],
        });
        run_scheduled(vec![plan], Parallelism::Serial);
    }

    #[test]
    fn empty_plan_set_is_fine() {
        let outcome = run_scheduled(vec![], Parallelism::Auto);
        assert!(outcome.reports.is_empty());
        assert_eq!(outcome.stats.cells, 0);
        assert_eq!(outcome.stats.hit_rate(), 0.0);
    }
}
