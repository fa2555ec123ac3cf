//! `BoundedArbIndependentSet` — Algorithm 1 of the paper.
//!
//! A parameter-rescaled `TreeIndependentSet` (Barenboim–Elkin–Pettie–
//! Schneider, FOCS 2012) run on arboricity-α graphs. The algorithm
//! proceeds in `Θ` *scales*; in scale `k` it runs `Λ` iterations of the
//! Métivier priority step, but nodes whose active degree exceeds the
//! cutoff `ρ_k` deterministically set their priority to 0 (they *opt out*
//! of the competition — the device that makes the node-vs-parent event a
//! read-ρ_k family, Theorem 3.2). After the `Λ` iterations, any node with
//! more than `Δ/2^{k+2}` high-degree active neighbors is exiled to the
//! "bad" set `B` (step 2(b)), enforcing the Invariant by construction:
//!
//! > **Invariant.** At the end of scale `k`, for all `v ∈ VIB`:
//! > `|{w ∈ Γ_IB(v) : deg_IB(w) > Δ/2^k + α}| ≤ Δ/2^{k+2}`.
//!
//! The analysis shows violators are rare (`Pr ≤ 1/Δ^{2p}`, Theorem 3.6);
//! the run records the Invariant's per-scale headroom.
//!
//! The algorithm returns the independent-but-not-maximal set `I`, the bad
//! set `B`, and the residual active set `VIB`; Algorithm 2
//! ([`mod@crate::arb_mis`]) finishes those up. Notably, the algorithm never
//! needs an edge orientation or forest decomposition — those exist only in
//! the analysis.

use crate::flat::{self, FlatAlgo, FlatBackend, MisBackend};
use crate::params::{ArbParams, ParamMode};
use crate::trace::ScaleTrace;
use arbmis_congest::rng;
use arbmis_graph::{Graph, NodeId};
use arbmis_obs::{Histogram, Recorder};
use serde::{Deserialize, Serialize};

/// Randomness tag for priority draws (shared with the CONGEST protocol).
pub const TAG_PRIORITY: u64 = 0x4241_5249; // "BARI"

/// CONGEST rounds per inner iteration (priorities, join bits, exit bits).
pub const ROUNDS_PER_ITERATION: u64 = 3;

/// CONGEST rounds per scale for step 2(b) (degree exchange, bad exits).
pub const ROUNDS_PER_SCALE_END: u64 = 2;

/// Configuration of one `BoundedArbIndependentSet` run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BoundedArbConfig {
    /// Arboricity bound `α` of the input (the only promise the algorithm
    /// needs).
    pub alpha: usize,
    /// Parameter regime (see [`ParamMode`]).
    pub mode: ParamMode,
    /// Master randomness seed.
    pub seed: u64,
    /// Whether the `ρ_k` opt-out is active. Disabling it is the E12
    /// ablation: the algorithm still runs, but the read-ρ_k structure of
    /// Event (2) is destroyed.
    pub rho_cutoff: bool,
    /// Record per-iteration joiner counts in the trace (costs memory).
    pub record_iterations: bool,
}

impl BoundedArbConfig {
    /// Practical-mode defaults for arboricity `alpha`.
    pub fn new(alpha: usize, seed: u64) -> Self {
        BoundedArbConfig {
            alpha,
            mode: ParamMode::default(),
            seed,
            rho_cutoff: true,
            record_iterations: false,
        }
    }
}

/// Output of `BoundedArbIndependentSet`: the paper's `(I, B)` plus the
/// residual `VIB` and observability data.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShatterOutcome {
    /// Independent set `I` (independent, *not* necessarily maximal).
    pub in_mis: Vec<bool>,
    /// Bad set `B`.
    pub bad: Vec<bool>,
    /// Residual active set `VIB` at termination.
    pub active: Vec<bool>,
    /// Total inner iterations executed.
    pub iterations: u64,
    /// CONGEST rounds (iterations·3 + scales·2).
    pub rounds: u64,
    /// The instantiated parameter schedule.
    pub params: ArbParams,
    /// Per-scale statistics.
    pub trace: Vec<ScaleTrace>,
}

impl ShatterOutcome {
    /// Number of nodes in `I`.
    pub fn mis_size(&self) -> usize {
        self.in_mis.iter().filter(|&&b| b).count()
    }

    /// Number of nodes in `B`.
    pub fn bad_size(&self) -> usize {
        self.bad.iter().filter(|&&b| b).count()
    }

    /// Number of residual active nodes.
    pub fn active_size(&self) -> usize {
        self.active.iter().filter(|&&b| b).count()
    }
}

/// The priority of node `v` in global iteration `iter`: 0 when opted out,
/// otherwise a nonzero `O(log n)`-bit value; ties broken by id at
/// comparison sites.
#[inline]
pub(crate) fn draw_priority(seed: u64, v: NodeId, iter: u64, n: usize) -> u64 {
    rng::draw_priority(seed, v, iter, TAG_PRIORITY, n)
}

/// Runs Algorithm 1.
///
/// # Panics
///
/// Panics if `cfg.alpha == 0`.
///
/// ```
/// use arbmis_core::bounded_arb::{bounded_arb_independent_set, BoundedArbConfig};
/// use arbmis_graph::gen;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let g = gen::random_ktree(500, 2, &mut rng);
/// let out = bounded_arb_independent_set(&g, &BoundedArbConfig::new(2, 7));
/// // I is independent; I, B, VIB partition the decided/undecided world.
/// assert!(arbmis_core::is_independent(&g, &out.in_mis));
/// ```
pub fn bounded_arb_independent_set(g: &Graph, cfg: &BoundedArbConfig) -> ShatterOutcome {
    bounded_arb_independent_set_with(g, cfg, &arbmis_obs::global())
}

/// [`bounded_arb_independent_set`] with an explicit observability
/// [`Recorder`]. Opens a `shattering` phase span and records the
/// joiners-per-iteration histogram and, per scale, the Invariant
/// headroom gauge (`Δ/2^{k+2}` bad threshold minus the worst surviving
/// high-degree neighbor count). Recording never changes the outcome.
pub fn bounded_arb_independent_set_with(
    g: &Graph,
    cfg: &BoundedArbConfig,
    rec: &Recorder,
) -> ShatterOutcome {
    let params = ArbParams::new(cfg.alpha, g.max_degree(), cfg.mode);
    shatter(g, None, params, cfg, rec)
}

/// Algorithm 1 under `params` on `g`, or — given a `region` — on the
/// subgraph it induces, run in place: the outcome (in `g`'s ids, `false`
/// outside the region) then equals the run on the region's compacted
/// copy, lifted back, without building the copy. For that, `params` must
/// come from the copy's Δ (the region's induced maximum degree), and the
/// engine keys BoundedArb region coins by region rank so every draw
/// matches the copy's ([`FlatBackend::on_region`], DESIGN.md §11).
pub(crate) fn shatter(
    g: &Graph,
    region: Option<&[bool]>,
    params: ArbParams,
    cfg: &BoundedArbConfig,
    rec: &Recorder,
) -> ShatterOutcome {
    let _span = rec.span("shattering");
    let obs = rec.enabled();
    let mut joiners_hist = Histogram::new();
    let algo = FlatAlgo::BoundedArb {
        params,
        rho_cutoff: cfg.rho_cutoff,
    };
    let mut b = flat::driver_engine(g, cfg.seed, algo, region);
    let mut trace = Vec::with_capacity(params.theta as usize);

    // The engine runs the oblivious schedule one scale (3Λ + 2 rounds)
    // at a time: exactly Λ iterations per scale, then step 2(b)'s degree
    // exchange and bad exits. Once every node has halted the rest of the
    // schedule is empty, so its iterations observe 0 joiners.
    for k in 1..=params.theta {
        let active_start = b.active_count();
        let mut joined = 0usize;
        let mut joined_per_iteration = Vec::new();
        for _ in 0..params.lambda {
            let joiners: usize = (0..ROUNDS_PER_ITERATION)
                .map(|_| step_unless_done(&mut b))
                .sum();
            joined += joiners;
            if cfg.record_iterations {
                joined_per_iteration.push(joiners);
            }
            if obs {
                joiners_hist.observe(joiners as u64);
            }
        }

        // Step 2(b): Invariant violators exit to B.
        let before_exile = b.active_count();
        for _ in 0..ROUNDS_PER_SCALE_END {
            step_unless_done(&mut b);
        }
        let active_end = b.active_count();
        let bad_marked = before_exile - active_end;

        if obs {
            rec.point("scale_bad_marked", bad_marked as u64);
            // Headroom of the Invariant after exile: the bad threshold
            // Δ/2^{k+2} minus the worst surviving node's count of active
            // neighbors above Δ/2^k + α (≥ 0 by construction of 2(b)).
            let high = params.high_degree_threshold(k);
            let worst = b
                .active_nodes()
                .map(|v| {
                    g.neighbors(v)
                        .iter()
                        .filter(|&&w| b.is_active(w) && b.active_degree(w) as f64 > high)
                        .count()
                })
                .max()
                .unwrap_or(0);
            rec.gauge(
                &format!("arbmis_invariant_headroom{{scale=\"{k}\"}}"),
                params.bad_threshold(k) - worst as f64,
            );
        }

        trace.push(ScaleTrace {
            k,
            rho: params.rho(k),
            iterations: params.lambda,
            active_start,
            active_end,
            joined,
            eliminated: active_start - active_end - joined - bad_marked,
            bad_marked,
            max_active_degree_end: b
                .active_nodes()
                .map(|v| b.active_degree(v))
                .max()
                .unwrap_or(0),
            joined_per_iteration,
        });
    }

    let iterations = params.total_iterations();
    let rounds = iterations * ROUNDS_PER_ITERATION + u64::from(params.theta) * ROUNDS_PER_SCALE_END;
    if obs {
        rec.add("arbmis_shatter_iterations", iterations);
        rec.add("arbmis_shatter_scales", u64::from(params.theta));
        rec.merge_histogram("arbmis_scale_joiners", &joiners_hist);
        rec.point("rounds", rounds);
    }
    let mut active = vec![false; g.n()];
    for v in b.active_nodes() {
        active[v] = true;
    }
    ShatterOutcome {
        in_mis: b.mis().to_bools(),
        bad: b.bad().to_bools(),
        active,
        iterations,
        rounds,
        params,
        trace,
    }
}

/// Steps one engine round unless every node has already halted; returns
/// the round's joiner count.
fn step_unless_done(b: &mut FlatBackend<'_>) -> usize {
    if b.is_done() {
        return 0;
    }
    b.step_round().expect("the flat engine never fails");
    b.joiners().len()
}

/// The induced-copy path region runs of [`shatter`] replaced, kept as
/// its test oracle: Algorithm 1 under `params` on the region's compacted
/// copy, lifted back to `g`'s ids (`false` outside the region).
#[cfg(test)]
pub(crate) fn shatter_on_induced_copy(
    g: &Graph,
    region: &[bool],
    params: ArbParams,
    cfg: &BoundedArbConfig,
    rec: &Recorder,
) -> ShatterOutcome {
    let nodes: Vec<NodeId> = g.nodes().filter(|&v| region[v]).collect();
    let sub = arbmis_graph::InducedSubgraph::from_nodes(g, &nodes);
    let local = shatter(sub.graph(), None, params, cfg, rec);
    let lift = |flags: &[bool]| {
        let mut out = vec![false; g.n()];
        for (i, &f) in flags.iter().enumerate() {
            out[sub.to_parent(i)] = f;
        }
        out
    };
    ShatterOutcome {
        in_mis: lift(&local.in_mis),
        bad: lift(&local.bad),
        active: lift(&local.active),
        ..local
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_independent;
    use arbmis_graph::gen;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn sets_partition_consistently(g: &Graph, out: &ShatterOutcome) {
        for v in g.nodes() {
            let states = [out.in_mis[v], out.bad[v], out.active[v]];
            let count = states.iter().filter(|&&b| b).count();
            assert!(count <= 1, "node {v} in multiple sets");
            // A node in none of the sets must be a neighbor of I.
            if count == 0 {
                assert!(
                    g.neighbors(v).iter().any(|&u| out.in_mis[u]),
                    "node {v} vanished without an MIS neighbor"
                );
            }
        }
    }

    #[test]
    fn output_sets_are_consistent() {
        let mut r = rng(1);
        let g = gen::random_ktree(400, 2, &mut r);
        let out = bounded_arb_independent_set(&g, &BoundedArbConfig::new(2, 3));
        assert!(is_independent(&g, &out.in_mis));
        sets_partition_consistently(&g, &out);
        assert_eq!(out.trace.len(), out.params.theta as usize);
    }

    #[test]
    fn active_nodes_have_no_mis_neighbor() {
        let mut r = rng(2);
        let g = gen::apollonian(300, &mut r);
        let out = bounded_arb_independent_set(&g, &BoundedArbConfig::new(3, 5));
        for v in g.nodes() {
            if out.active[v] {
                assert!(!out.in_mis[v]);
                assert!(g.neighbors(v).iter().all(|&u| !out.in_mis[u]));
            }
        }
    }

    #[test]
    fn shattering_reduces_active_set_substantially() {
        let mut r = rng(3);
        let g = gen::forest_union(2000, 2, &mut r);
        let out = bounded_arb_independent_set(&g, &BoundedArbConfig::new(2, 9));
        assert!(
            out.active_size() + out.bad_size() < g.n() / 2,
            "residual {} + bad {} too large",
            out.active_size(),
            out.bad_size()
        );
    }

    #[test]
    fn trace_counts_add_up() {
        let mut r = rng(4);
        let g = gen::random_ktree(300, 3, &mut r);
        let mut cfg = BoundedArbConfig::new(3, 11);
        cfg.record_iterations = true;
        let out = bounded_arb_independent_set(&g, &cfg);
        for t in &out.trace {
            assert_eq!(
                t.active_start - t.active_end,
                t.joined + t.eliminated + t.bad_marked,
                "scale {} bookkeeping",
                t.k
            );
            assert_eq!(t.joined_per_iteration.iter().sum::<usize>(), t.joined);
        }
        let total_joined: usize = out.trace.iter().map(|t| t.joined).sum();
        assert_eq!(total_joined, out.mis_size());
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r = rng(5);
        let g = gen::barabasi_albert(300, 2, &mut r);
        let a = bounded_arb_independent_set(&g, &BoundedArbConfig::new(2, 21));
        let b = bounded_arb_independent_set(&g, &BoundedArbConfig::new(2, 21));
        assert_eq!(a, b);
    }

    #[test]
    fn faithful_mode_with_zero_theta_is_a_noop() {
        let mut r = rng(6);
        let g = gen::random_tree_prufer(100, &mut r);
        let cfg = BoundedArbConfig {
            alpha: 1,
            mode: ParamMode::Faithful { p: 1 },
            seed: 1,
            rho_cutoff: true,
            record_iterations: false,
        };
        let out = bounded_arb_independent_set(&g, &cfg);
        // Δ too small for any faithful scale: nothing happens.
        assert_eq!(out.params.theta, 0);
        assert_eq!(out.mis_size(), 0);
        assert_eq!(out.active_size(), g.n());
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn ablation_without_cutoff_still_independent() {
        let mut r = rng(7);
        let g = gen::barabasi_albert(400, 3, &mut r);
        let cfg = BoundedArbConfig {
            rho_cutoff: false,
            ..BoundedArbConfig::new(3, 2)
        };
        let out = bounded_arb_independent_set(&g, &cfg);
        assert!(is_independent(&g, &out.in_mis));
        sets_partition_consistently(&g, &out);
    }

    #[test]
    fn recorder_observes_scales_without_changing_results() {
        let mut r = rng(9);
        let g = gen::random_ktree(400, 2, &mut r);
        let cfg = BoundedArbConfig::new(2, 5);
        let rec = arbmis_obs::Recorder::deterministic();
        let observed = bounded_arb_independent_set_with(&g, &cfg, &rec);
        let plain = bounded_arb_independent_set(&g, &cfg);
        assert_eq!(observed, plain);

        let snap = rec.snapshot();
        assert!(snap.has_span("shattering"));
        assert_eq!(
            snap.counter("arbmis_shatter_iterations"),
            Some(plain.iterations)
        );
        assert_eq!(
            snap.counter("arbmis_shatter_scales"),
            Some(u64::from(plain.params.theta))
        );
        // One joiner observation per scheduled iteration, summing to |I|.
        let joiners = snap.histogram("arbmis_scale_joiners").unwrap();
        assert_eq!(joiners.count(), plain.iterations);
        assert_eq!(joiners.sum(), plain.mis_size() as u64);
        // Step 2(b) enforces the Invariant, so every scale's headroom
        // gauge (bad threshold minus worst surviving count) is ≥ 0.
        for k in 1..=plain.params.theta {
            let name = format!("arbmis_invariant_headroom{{scale=\"{k}\"}}");
            let v = snap
                .gauge_value(&name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert!(v >= 0.0, "{name} = {v}");
        }
    }

    #[test]
    fn rounds_formula() {
        let mut r = rng(8);
        let g = gen::random_ktree(200, 2, &mut r);
        let out = bounded_arb_independent_set(&g, &BoundedArbConfig::new(2, 1));
        assert_eq!(
            out.rounds,
            out.iterations * ROUNDS_PER_ITERATION
                + u64::from(out.params.theta) * ROUNDS_PER_SCALE_END
        );
    }

    /// Pins the full outcome (`in_mis`, `bad`, `active`, `rounds` and the
    /// per-iteration trace) on fixed seeds, with the `ρ_k` cutoff on and
    /// off (off is the E12 ablation), so a rewrite of the joiner
    /// selection must keep every draw and comparison. On these families
    /// the practical-mode cutoff never binds, so both settings pin the
    /// same digest.
    #[test]
    fn shattering_golden_digests() {
        use arbmis_graph::digest::Fnv128;
        let graphs = [
            ("apollonian", gen::apollonian(3000, &mut rng(31)), 3),
            ("ktree", gen::random_ktree(3000, 3, &mut rng(32)), 3),
            ("forest_union", gen::forest_union(3000, 4, &mut rng(33)), 4),
        ];
        let golden = [
            ("apollonian", true, "123f855ee4d548144ad6ed8f77ea040e"),
            ("apollonian", false, "123f855ee4d548144ad6ed8f77ea040e"),
            ("ktree", true, "f1a23a44afc8e081aeb332a1979adbc7"),
            ("ktree", false, "f1a23a44afc8e081aeb332a1979adbc7"),
            ("forest_union", true, "f3eac91f88d4c101185fc60cb8179036"),
            ("forest_union", false, "f3eac91f88d4c101185fc60cb8179036"),
        ];
        for (name, rho_cutoff, want) in golden {
            let (_, g, alpha) = graphs.iter().find(|(n, ..)| *n == name).unwrap();
            let cfg = BoundedArbConfig {
                rho_cutoff,
                record_iterations: true,
                ..BoundedArbConfig::new(*alpha, 17)
            };
            let out = bounded_arb_independent_set(g, &cfg);
            assert!(out.params.theta > 0, "{name}: no scales ran");
            let mut h = Fnv128::new();
            h.write_str(&format!(
                "{:?}",
                (&out.in_mis, &out.bad, &out.active, out.rounds, &out.trace)
            ));
            assert_eq!(h.hex(), want, "{name} rho_cutoff={rho_cutoff}");
        }
    }

    /// Maximum degree of the subgraph `region` induces.
    fn induced_max_degree(g: &Graph, region: &[bool]) -> usize {
        g.nodes()
            .filter(|&v| region[v])
            .map(|v| g.neighbors(v).iter().filter(|&&u| region[u]).count())
            .max()
            .unwrap_or(0)
    }

    /// The in-place region run draws the induced copy's coins: outcome,
    /// per-iteration trace and every recorded observation are equal, on
    /// regions from empty to the whole graph, with the cutoff on and off.
    #[test]
    fn region_run_matches_the_induced_copy() {
        use rand::Rng;
        let graphs = [
            (gen::apollonian(600, &mut rng(51)), 3),
            (gen::random_ktree(600, 3, &mut rng(52)), 3),
            (gen::barabasi_albert(600, 2, &mut rng(53)), 2),
            (gen::forest_union(600, 2, &mut rng(54)), 2),
        ];
        for (gi, (g, alpha)) in graphs.iter().enumerate() {
            for (ki, keep) in [0.0, 0.3, 0.8, 1.0].into_iter().enumerate() {
                let mut r = rng((gi * 10 + ki) as u64);
                let region: Vec<bool> = g.nodes().map(|_| r.gen_bool(keep)).collect();
                let delta = induced_max_degree(g, &region);
                for (seed, rho_cutoff) in [(0, true), (1, false), (2, true)] {
                    let cfg = BoundedArbConfig {
                        rho_cutoff,
                        record_iterations: true,
                        ..BoundedArbConfig::new(*alpha, seed)
                    };
                    let params = ArbParams::new(*alpha, delta, cfg.mode);
                    let (rec_a, rec_b) = (Recorder::deterministic(), Recorder::deterministic());
                    let got = shatter(g, Some(&region), params, &cfg, &rec_a);
                    let want = shatter_on_induced_copy(g, &region, params, &cfg, &rec_b);
                    assert_eq!(got, want, "graph {gi} keep {keep} seed {seed}");
                    assert_eq!(rec_a.snapshot().to_jsonl(), rec_b.snapshot().to_jsonl());
                }
            }
        }
        // A triangle region under one hand-set scale: `priority_bits(3)`
        // leaves 7 random bits, so priority ties (broken by id) are
        // common, and only priorities sized by |region| break them as the
        // copy does.
        let (g, _) = &graphs[0];
        let (a, b) = g.edges().next().unwrap();
        let c = *g
            .neighbors(a)
            .iter()
            .find(|&&c| c != b && g.has_edge(b, c))
            .unwrap();
        let region: Vec<bool> = g.nodes().map(|v| [a, b, c].contains(&v)).collect();
        let params = ArbParams {
            alpha: 1,
            delta: 2,
            theta: 1,
            lambda: 1,
            mode: ParamMode::default(),
        };
        for seed in 0..64 {
            let cfg = BoundedArbConfig::new(1, seed);
            let rec = Recorder::disabled();
            let got = shatter(g, Some(&region), params, &cfg, &rec);
            let want = shatter_on_induced_copy(g, &region, params, &cfg, &rec);
            assert_eq!(got, want, "triangle region, seed {seed}");
            assert_eq!(got.mis_size(), 1, "seed {seed}");
        }
    }

    /// Hand-set parameters with Δ far below the graph's degrees, so the
    /// ρ_k opt-out and the bad exits both fire: the region run still
    /// equals the induced copy, which shows the degree-gated paths read
    /// induced degrees.
    #[test]
    fn region_run_matches_the_induced_copy_with_binding_cutoffs() {
        use rand::Rng;
        let g = gen::gnp(300, 0.02, &mut rng(13));
        // Δ = 2: ρ_1 ≈ 2.8 opts out every node of degree ≥ 3, and an
        // active neighbour of degree > Δ/2 + α = 2 exceeds Δ/8.
        let params = ArbParams {
            alpha: 1,
            delta: 2,
            theta: 4,
            lambda: 1,
            mode: ParamMode::default(),
        };
        let mut r = rng(14);
        for keep in [0.7, 0.9, 1.0] {
            let region: Vec<bool> = g.nodes().map(|_| r.gen_bool(keep)).collect();
            let mut outcomes = Vec::new();
            for rho_cutoff in [true, false] {
                let cfg = BoundedArbConfig {
                    rho_cutoff,
                    record_iterations: true,
                    ..BoundedArbConfig::new(1, 3)
                };
                let rec = Recorder::disabled();
                let got = shatter(&g, Some(&region), params, &cfg, &rec);
                let want = shatter_on_induced_copy(&g, &region, params, &cfg, &rec);
                assert_eq!(got, want, "keep {keep} rho_cutoff {rho_cutoff}");
                assert!(got.bad_size() > 0, "keep {keep}: no bad exits");
                outcomes.push(got);
            }
            assert_ne!(
                outcomes[0], outcomes[1],
                "keep {keep}: the opt-out never bound"
            );
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = Graph::empty(0);
        let out = bounded_arb_independent_set(&g, &BoundedArbConfig::new(1, 0));
        assert_eq!(out.mis_size(), 0);
        let g1 = Graph::empty(5);
        let out1 = bounded_arb_independent_set(&g1, &BoundedArbConfig::new(1, 0));
        // Δ = 0: no scales; everything stays active for the finisher.
        assert_eq!(out1.active_size(), 5);
    }
}
