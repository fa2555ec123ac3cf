//! `churn_100k`: `DynamicMis::apply` batches on a G(n, d̄=4) base —
//! thousands of tiny region solves where per-call fixed cost dominates,
//! with overlay writes next to repair reads.
//!
//! Batches come from `bench::churn`: `uniform_mix` (typical) and
//! `hub_churn` (adversarial), in the proportions of
//! `bench::churn::standard_suite` (48 uniform batches to 12 hub flaps,
//! so two uniform batches per hub batch), interleaved into a fixed unit
//! of [`UNIT_OPS`] batches, long enough for overlay compaction to fire
//! several times. The unit is replayed from a fresh `DynamicMis` until
//! the run's time is up, so every replay sees the same graph states
//! whatever the speed of the code under test, and every replay must
//! produce the same `Repair` transcripts.
//!
//! `churn-unit` writes the unit to a file in its own process; `churn`
//! streams the batches back one at a time. The measuring process so
//! never holds the whole update script, and its peak RSS is mostly the
//! dynamic layer's own memory.

use crate::report::{mean, median, peak_rss_mb, Digest, Record};
use crate::trace::Tracer;
use crate::{csr_bytes, Args};
use arbmis_bench::churn::{hub_churn, uniform_mix};
use arbmis_congest::rng;
use arbmis_dynamic::{DynamicMis, Repair, Update};
use arbmis_graph::{Graph, GraphBuilder, NodeId};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::process::Command;
use std::time::Instant;

/// Updates per uniform batch (as in `standard_suite`).
const BATCH: usize = 16;
/// Spokes per hub flap (as in `standard_suite`).
const FAN: usize = 64;
/// Batches per mix period: two uniform batches, then one hub batch.
const PERIOD: usize = 3;
/// Batches in one unit.
const UNIT_OPS: usize = 1 << 17;
/// Batches applied in set-up as the warm-up run.
const WARM_UP: usize = 4096;
/// Batches between untimed `is_valid_mis` audits.
const AUDIT_EVERY: u64 = 4096;
/// Random-stream tag of the per-flap hub choice.
const TAG_HUB: u64 = 0x4855_4253;
/// Marks a removal in the first id of a packed update.
const REMOVE: u32 = 1 << 31;
/// Marks a hub batch in a packed batch length.
const HUB: u32 = 1 << 31;

/// The unit of a seed, in memory: the base graph and its batches, each
/// tagged with whether it is a hub batch.
fn unit(n: usize, ops: usize, seed: u64) -> (Graph, Vec<(Vec<Update>, bool)>) {
    let hub_ops = ops / PERIOD;
    let uniform = uniform_mix(n, ops - hub_ops, BATCH, seed);
    // `hub_churn` flaps node 0. Each flap is moved to its own hub by
    // swapping ids 0 and h, so that a unit averages over many hubs
    // instead of resting on whether node 0 happens to be in the MIS.
    let mut hub = hub_churn(n, hub_ops.div_ceil(2), FAN.min(n / 4), seed)
        .batches
        .into_iter()
        .enumerate()
        .map(|(i, batch)| {
            let h = rng::draw(seed, i / 2, 0, TAG_HUB) as usize % n;
            let swap = |v: NodeId| match v {
                0 => h,
                v if v == h => 0,
                v => v,
            };
            batch
                .into_iter()
                .map(|up| match up {
                    Update::InsertEdge(u, v) => Update::InsertEdge(swap(u), swap(v)),
                    Update::RemoveEdge(u, v) => Update::RemoveEdge(swap(u), swap(v)),
                    other => other,
                })
                .collect()
        });
    let mut rest = uniform.batches.into_iter();
    let batches = (1..=ops)
        .map(|i| match i % PERIOD {
            0 => (hub.next().expect("enough hub batches"), true),
            _ => (rest.next().expect("enough uniform batches"), false),
        })
        .collect();
    (uniform.base, batches)
}

fn put(w: &mut impl Write, x: usize) -> Result<(), String> {
    let x = u32::try_from(x).map_err(|_| format!("{x} does not fit the unit file"))?;
    w.write_all(&x.to_le_bytes()).map_err(|e| e.to_string())
}

fn get(r: &mut impl Read) -> Result<usize, String> {
    let mut b = [0; 4];
    r.read_exact(&mut b)
        .map_err(|e| format!("reading the unit: {e}"))?;
    Ok(u32::from_le_bytes(b) as usize)
}

/// Writes a unit: `n`, edge count, batch count, the base edges as id
/// pairs, then each batch as its length (top bit: hub) followed by its
/// updates as id pairs (top bit of the first: removal). All `u32` LE.
fn write_unit(
    w: &mut impl Write,
    base: &Graph,
    batches: &[(Vec<Update>, bool)],
) -> Result<(), String> {
    let n = base.n();
    if n >= REMOVE as usize {
        return Err(format!("n = {n} does not fit the unit file"));
    }
    put(w, n)?;
    put(w, base.m())?;
    put(w, batches.len())?;
    for (u, v) in base.edges() {
        put(w, u)?;
        put(w, v)?;
    }
    for (batch, hub) in batches {
        put(w, batch.len() | if *hub { HUB as usize } else { 0 })?;
        for up in batch {
            let (u, v, flag) = match *up {
                Update::InsertEdge(u, v) => (u, v, 0),
                Update::RemoveEdge(u, v) => (u, v, REMOVE as usize),
                ref other => return Err(format!("unexpected update {other:?}")),
            };
            put(w, u | flag)?;
            put(w, v)?;
        }
    }
    Ok(())
}

/// A unit file, opened: the base graph is in memory, the batches are
/// read back one at a time by [`UnitFile::batches`].
struct UnitFile {
    path: String,
    base: Graph,
    ops: usize,
    /// Byte offset of the first batch.
    batches_at: u64,
    /// `GraphBuilder::build` on the base edges.
    csr_build_ms: f64,
}

impl UnitFile {
    fn open(path: &str) -> Result<UnitFile, String> {
        let mut r = BufReader::new(File::open(path).map_err(|e| format!("{path}: {e}"))?);
        let (n, m, ops) = (get(&mut r)?, get(&mut r)?, get(&mut r)?);
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            edges.push((get(&mut r)?, get(&mut r)?));
        }
        let t = Instant::now();
        let base = GraphBuilder::with_capacity(n, m)
            .extend_edges(edges)
            .build();
        let csr_build_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(UnitFile {
            path: path.to_string(),
            base,
            ops,
            batches_at: 4 * (3 + 2 * m as u64),
            csr_build_ms,
        })
    }

    /// A fresh instance at the unit's starting state.
    fn start(&self, seed: u64) -> DynamicMis {
        DynamicMis::new(self.base.clone(), seed)
    }

    /// A reader over the unit's batches, from the first.
    fn batches(&self) -> Result<Batches<BufReader<File>>, String> {
        let mut file = File::open(&self.path).map_err(|e| format!("{}: {e}", self.path))?;
        file.seek(SeekFrom::Start(self.batches_at))
            .map_err(|e| format!("{}: {e}", self.path))?;
        Ok(Batches {
            r: BufReader::new(file),
            left: self.ops,
            batch: Vec::new(),
        })
    }
}

/// Batches of a unit, decoded one at a time into a reused buffer.
struct Batches<R> {
    r: R,
    left: usize,
    batch: Vec<Update>,
}

impl<R: Read> Batches<R> {
    /// Decodes the next batch into `self.batch`; returns whether it is a
    /// hub batch, or `None` after the last.
    fn next(&mut self) -> Result<Option<bool>, String> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        let head = get(&mut self.r)?;
        self.batch.clear();
        for _ in 0..head & !(HUB as usize) {
            let (u, v) = (get(&mut self.r)?, get(&mut self.r)?);
            self.batch.push(if u & REMOVE as usize == 0 {
                Update::InsertEdge(u, v)
            } else {
                Update::RemoveEdge(u & !(REMOVE as usize), v)
            });
        }
        Ok(Some(head & HUB as usize != 0))
    }
}

/// `churn-unit --n N --seed S --ops U --out FILE`: writes the unit and
/// prints the generation time (ms, `bench::churn` calls only).
pub fn write(args: &Args) -> Result<(), String> {
    let n: usize = args.num("n", 100_000)?;
    let seed: u64 = args.num("seed", 1)?;
    let ops: usize = args.num("ops", UNIT_OPS)?.max(PERIOD);
    let out = args.str("out")?;
    let t = Instant::now();
    let (base, batches) = unit(n, ops, seed);
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut w = BufWriter::new(File::create(out).map_err(|e| format!("{out}: {e}"))?);
    write_unit(&mut w, &base, &batches)?;
    w.flush().map_err(|e| format!("{out}: {e}"))?;
    println!("{gen_ms:?}");
    Ok(())
}

/// `churn --n N --seed S --seconds T --reps K --trace 0|1 --unit FILE
/// [--unit-ops U] [--trace-out FILE]`.
pub fn run(args: &Args) -> Result<Record, String> {
    let n: usize = args.num("n", 100_000)?;
    let seed: u64 = args.num("seed", 1)?;
    let seconds: f64 = args.num("seconds", 10.0)?;
    let reps: usize = args.num("reps", 3)?.max(1);
    let traced = args.num("trace", 0u8)? == 1;
    let unit_ops: usize = args.num("unit-ops", UNIT_OPS)?;
    let path = args.str("unit")?;
    let me = std::env::current_exe().map_err(|e| e.to_string())?;

    // Set-up, `reps` times: the unit (base graph and batches, written by
    // a child process), `DynamicMis::new`, and a warm-up run over the
    // unit's first batches.
    let mut setup_s = Vec::new();
    let (mut gen_ms, mut new_ms) = (Vec::new(), Vec::new());
    let mut unit = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = Command::new(&me)
            .args([
                "churn-unit",
                "--n",
                &n.to_string(),
                "--seed",
                &seed.to_string(),
            ])
            .args(["--ops", &unit_ops.to_string(), "--out", path])
            .output()
            .map_err(|e| format!("spawning churn-unit: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "churn-unit: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let ms = String::from_utf8_lossy(&out.stdout).trim().parse::<f64>();
        gen_ms.push(ms.map_err(|e| format!("churn-unit output: {e}"))?);
        let u = UnitFile::open(path)?;
        let t_new = Instant::now();
        let mut d = u.start(seed);
        new_ms.push(t_new.elapsed().as_secs_f64() * 1e3);
        let mut batches = u.batches()?;
        for _ in 0..WARM_UP.min(u.ops) {
            batches.next()?;
            d.apply(&batches.batch);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        unit = Some(u);
    }
    let unit = unit.expect("reps >= 1");

    let mut rec = Record::default();
    rec.fact("n", unit.base.n());
    rec.fact("m", unit.base.m());
    rec.fact("csr_bytes", csr_bytes(&unit.base));
    rec.fact("unit_ops", unit.ops);
    rec.fact("threads", 1);
    if traced {
        trace(&unit, seed, seconds, args.opt("trace-out"), &mut rec)?;
        rec.metric("graph.gen_ms", median(&gen_ms), "ms");
        rec.metric("dynamic.new_ms", median(&new_ms), "ms");
        return Ok(rec);
    }
    let (tally, peak_mb) = timed(&unit, seed, seconds, &mut rec)?;
    rec.metric("setup_s", median(&setup_s), "s");
    rec.metric("op_p50_ms", median(&tally.op_p50_ms), "ms");
    rec.metric(
        "updates_per_s",
        tally.updates as f64 / (tally.apply_ns as f64 / 1e9),
        "1/s",
    );
    rec.metric("peak_rss_mb", peak_mb, "MB");
    rec.metric(
        "congest_rounds",
        tally.repair_rounds as f64 / tally.ops as f64,
        "count",
    );
    Ok(rec)
}

/// Per-batch tallies over a run, with per-replay medians so that what
/// is kept does not grow with the number of replays.
#[derive(Default)]
struct Tally {
    /// This replay's `apply` times, µs.
    uniform_us: Vec<f64>,
    hub_us: Vec<f64>,
    /// Per-replay medians: all batches (ms), uniform and hub (µs).
    op_p50_ms: Vec<f64>,
    uniform_p50_us: Vec<f64>,
    hub_p50_us: Vec<f64>,
    compaction_ms: Vec<f64>,
    updates: u64,
    region_nodes: u64,
    repair_rounds: u64,
    apply_ns: u64,
    ops: u64,
    replays: u64,
}

impl Tally {
    fn add(&mut self, r: &Repair, hub: bool, ns: u64) {
        let us = ns as f64 / 1e3;
        if hub {
            self.hub_us.push(us);
        } else {
            self.uniform_us.push(us);
        }
        if r.compacted {
            self.compaction_ms.push(us / 1e3);
        }
        self.updates += r.updates as u64;
        self.region_nodes += r.region_nodes as u64;
        self.repair_rounds += r.repair_rounds;
        self.apply_ns += ns;
        self.ops += 1;
    }

    fn end_replay(&mut self) {
        let all: Vec<f64> = self
            .uniform_us
            .iter()
            .chain(&self.hub_us)
            .map(|us| us / 1e3)
            .collect();
        self.op_p50_ms.push(median(&all));
        self.uniform_p50_us.push(median(&self.uniform_us));
        self.hub_p50_us.push(median(&self.hub_us));
        self.uniform_us.clear();
        self.hub_us.clear();
        self.replays += 1;
    }
}

/// Replays the unit from a fresh instance, calling `step` on each batch
/// (it applies the batch and returns the `Repair`). `is_valid_mis` runs
/// untimed every [`AUDIT_EVERY`] batches and at the end. Returns the
/// replay's transcript digest and whether every audit passed.
fn replay(
    unit: &UnitFile,
    seed: u64,
    mut step: impl FnMut(&mut DynamicMis, &[Update], bool) -> Repair,
) -> Result<(Digest, bool), String> {
    let mut d = unit.start(seed);
    let mut batches = unit.batches()?;
    let (mut digest, mut valid, mut i) = (Digest::default(), true, 0u64);
    while let Some(hub) = batches.next()? {
        let r = step(&mut d, &batches.batch, hub);
        digest.line(r.transcript().as_bytes());
        i += 1;
        if i.is_multiple_of(AUDIT_EVERY) {
            valid &= d.is_valid_mis();
        }
    }
    Ok((digest, valid && d.is_valid_mis()))
}

/// Counts a replay's batches: all pass only if every audit passed and
/// its transcript digest equals the first replay's.
fn tally_replay(
    rec: &mut Record,
    unit: &UnitFile,
    first: &mut Option<Digest>,
    digest: Digest,
    ok: bool,
) {
    let same = *first.get_or_insert(digest) == digest;
    for _ in 0..unit.ops {
        rec.op(ok && same);
    }
}

/// The timed run. Returns its tallies and the peak RSS through the end
/// of the first replay: replays repeat the same work, and later ones
/// only add allocator fragmentation, so a faster build, which fits more
/// replays in the run, would otherwise read as using more memory.
fn timed(
    unit: &UnitFile,
    seed: u64,
    seconds: f64,
    rec: &mut Record,
) -> Result<(Tally, f64), String> {
    let mut tally = Tally::default();
    let mut first = None;
    let mut peak_mb = 0.0;
    let start = Instant::now();
    while tally.replays == 0 || start.elapsed().as_secs_f64() < seconds {
        let (digest, valid) = replay(unit, seed, |d, batch, hub| {
            let t = Instant::now();
            let r = d.apply(batch);
            tally.add(&r, hub, t.elapsed().as_nanos() as u64);
            r
        })?;
        if tally.replays == 0 {
            peak_mb = peak_rss_mb();
        }
        tally.end_replay();
        tally_replay(rec, unit, &mut first, digest, valid);
    }
    rec.fact("ops", tally.ops);
    rec.fact("replays", tally.replays);
    let per_replay: Vec<String> = tally
        .op_p50_ms
        .iter()
        .map(|ms| format!("{:.3}", ms * 1e3))
        .collect();
    rec.fact("replay_op_p50_us", per_replay.join(" "));
    rec.fact(
        "compactions_per_unit",
        tally.compaction_ms.len() as u64 / tally.replays,
    );
    rec.fact("transcript_digest", first.expect("one replay").hex());
    Ok((tally, peak_mb))
}

/// The traced run: a second instance on the same stream applies every
/// batch under a benchmark span, interleaved with the untraced one; the
/// two must agree `Repair` for `Repair`.
fn trace(
    unit: &UnitFile,
    seed: u64,
    seconds: f64,
    trace_out: Option<&str>,
    rec: &mut Record,
) -> Result<(), String> {
    let mut tracer = Tracer::default();
    let (mut traced, mut untraced) = (Tally::default(), Tally::default());
    let mut first = None;
    let start = Instant::now();
    while traced.replays == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut plain = unit.start(seed);
        let mut agree = true;
        let (digest, valid) = replay(unit, seed, |d, batch, hub| {
            let name = if hub {
                "dynamic.hub_apply"
            } else {
                "dynamic.uniform_apply"
            };
            tracer.set_op(traced.ops);
            let mut run_traced = |d: &mut DynamicMis| tracer.time(name, || d.apply(batch));
            let mut run_plain = || {
                let t = Instant::now();
                let r = plain.apply(batch);
                (r, t.elapsed().as_nanos() as u64)
            };
            let ((a, a_ns), (b, b_ns)) = if traced.ops.is_multiple_of(2) {
                let b = run_plain();
                (run_traced(d), b)
            } else {
                let a = run_traced(d);
                (a, run_plain())
            };
            agree &= a == b;
            traced.add(&a, hub, a_ns);
            untraced.add(&b, hub, b_ns);
            a
        })?;
        traced.end_replay();
        untraced.end_replay();
        tally_replay(rec, unit, &mut first, digest, valid && agree);
    }
    if let Some(path) = trace_out {
        std::fs::write(path, tracer.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
    }

    let ops = traced.ops as f64;
    rec.fact("ops", traced.ops);
    rec.fact("replays", traced.replays);
    rec.fact("transcript_digest", first.expect("one replay").hex());
    rec.metric("graph.csr_build_ms", unit.csr_build_ms, "ms");
    rec.metric(
        "dynamic.uniform_apply_us_p50",
        median(&traced.uniform_p50_us),
        "us",
    );
    rec.metric("dynamic.hub_apply_us_p50", median(&traced.hub_p50_us), "us");
    rec.metric(
        "dynamic.compactions",
        traced.compaction_ms.len() as f64 / traced.replays as f64,
        "count",
    );
    rec.metric("dynamic.compaction_ms", mean(&traced.compaction_ms), "ms");
    rec.metric(
        "dynamic.region_nodes_per_batch",
        traced.region_nodes as f64 / ops,
        "count",
    );
    rec.metric(
        "dynamic.region_nodes_per_update",
        traced.region_nodes as f64 / traced.updates as f64,
        "count",
    );
    rec.metric(
        "dynamic.repair_rounds_per_batch",
        traced.repair_rounds as f64 / ops,
        "count",
    );
    rec.metric(
        "trace.overhead_ratio",
        traced.apply_ns as f64 / untraced.apply_ns as f64,
        "ratio",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_unit_reads_back_as_written() {
        let (base, batches) = unit(300, 30, 7);
        assert_eq!(batches.iter().filter(|(_, hub)| *hub).count(), 10);
        let mut file = Vec::new();
        write_unit(&mut file, &base, &batches).unwrap();

        let mut r = file.as_slice();
        let (n, m, ops) = (
            get(&mut r).unwrap(),
            get(&mut r).unwrap(),
            get(&mut r).unwrap(),
        );
        assert_eq!((n, m, ops), (base.n(), base.m(), batches.len()));
        let edges: Vec<_> = (0..m)
            .map(|_| (get(&mut r).unwrap(), get(&mut r).unwrap()))
            .collect();
        assert_eq!(edges, base.edges().collect::<Vec<_>>());
        let rebuilt = GraphBuilder::with_capacity(n, m)
            .extend_edges(edges)
            .build();
        assert_eq!(rebuilt, base, "the base is rebuilt exactly");
        let mut read = Batches {
            r,
            left: ops,
            batch: Vec::new(),
        };
        for (batch, hub) in &batches {
            assert_eq!(read.next().unwrap(), Some(*hub));
            assert_eq!(&read.batch, batch);
        }
        assert_eq!(read.next().unwrap(), None);
    }
}
