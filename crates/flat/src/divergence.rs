//! Backend divergence localization and self-contained replay artifacts.
//!
//! When two [`MisBackend`]s disagree, the raw symptom is usually distant
//! from the cause: a different MIS mask at the end of a million-round
//! run. This module walks the failure back to its origin:
//!
//! 1. [`localize`] lockstep-replays two backends round by round and
//!    stops at the **first** divergent round, bisecting the divergence
//!    down to the minimal node set (the symmetric difference of the two
//!    joiner lists — every node in it is a genuine first-round
//!    disagreement, every node outside it agreed).
//! 2. [`ReplayArtifact`] packages everything needed to reproduce that
//!    divergence — graph edges, seed, algorithm, backend specs, and an
//!    optional injected [`CoinFlip`] — as a single JSON document that
//!    `arbmis replay` consumes, so a failure found in CI can be replayed
//!    byte-for-byte on a laptop.
//!
//! The module also hosts the shared digest helpers ([`joiner_digest`],
//! [`coin_digest`]) both backends use to fill their flight-recorder
//! records (`arbmis_obs::RoundRecord`): for a fixed graph/seed/algorithm
//! the `(round, joiners, joiner_digest, coin_digest)` columns are
//! **cross-backend stable**, so diffing two flight logs localizes a
//! divergence even post-mortem.

use crate::{BackendError, CongestBackend, FlatAlgo, FlatBackend, MisBackend, ScanMode};
use arbmis_congest::rng;
use arbmis_core::{bounded_arb, luby, metivier, ArbParams};
use arbmis_graph::digest::Fnv128;
use arbmis_graph::{Graph, NodeId, NodeOrder, MAX_NODES};
use serde::{Deserialize, Serialize};

/// Schema tag written into every replay artifact.
pub const REPLAY_SCHEMA: &str = "arbmis-replay/v1";

/// An injected single-coin perturbation, for divergence-tooling tests
/// and fault drills: "what if node `node`'s coin in iteration
/// `iteration` had come out differently?"
///
/// Only [`FlatBackend`] honors coin flips (the CONGEST backend is the
/// pristine reference). The flip applies at the decide step of the
/// matching iteration, to the matching node, only while it is active:
///
/// * Métivier / BoundedArb: the drawn priority `p` becomes
///   `(p ^ xor) | 1` (the low bit keeps the value a valid nonzero
///   priority).
/// * Luby: the mark bit is toggled when `xor != 0`.
///
/// A flip with `xor == 0` is a no-op for the priority protocols; use an
/// odd `xor` to guarantee a change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoinFlip {
    /// The perturbed node.
    pub node: NodeId,
    /// The protocol iteration (not round) whose coin is perturbed.
    pub iteration: u64,
    /// XOR mask applied to the drawn value.
    pub xor: u64,
}

/// Folds an FNV-1a 128 digest to the 64-bit fingerprint stored in
/// flight records.
fn fold(d: u128) -> u64 {
    (d as u64) ^ ((d >> 64) as u64)
}

/// FNV-1a fingerprint of an ascending joiner list (0 when empty).
pub fn joiner_digest(joiners: &[NodeId]) -> u64 {
    if joiners.is_empty() {
        return 0;
    }
    let mut h = Fnv128::new();
    for &v in joiners {
        h.write_u64(v as u64);
    }
    fold(h.finish())
}

/// The protocol iteration whose coins are consumed at `round`, or `None`
/// when `round` is not a decide round for `algo`.
///
/// Luby and Métivier decide at rounds `r ≡ 1 (mod 3)` with
/// `iter = r / 3`; BoundedArb follows its oblivious
/// `Θ × (3Λ + 2)` schedule (decides only inside the first `3Λ` rounds of
/// each scale).
pub fn decide_iteration(algo: &FlatAlgo, round: u64) -> Option<u64> {
    match algo {
        FlatAlgo::Luby | FlatAlgo::Metivier => (round % 3 == 1).then_some(round / 3),
        FlatAlgo::BoundedArb { params, .. } => {
            let rps = 3 * params.lambda + bounded_arb::ROUNDS_PER_SCALE_END;
            let total = u64::from(params.theta) * rps;
            if round >= total {
                return None;
            }
            let within = round % rps;
            if within < 3 * params.lambda && within % 3 == 1 {
                Some((round / rps) * params.lambda + within / 3)
            } else {
                None
            }
        }
    }
}

/// FNV-1a fingerprint of the coin stream consumed at `round`: the
/// `(node, coin)` pairs of every active node in ascending order. Returns
/// 0 on non-decide rounds or when no node is active.
///
/// The digested coin is the **pure** per-node draw — `draw(TAG_MARK)`
/// for Luby, `draw_priority` for Métivier/BoundedArb (ignoring the ρ_k
/// cutoff) — so the digest is a function of `(seed, algo, round,
/// active set)` only, identical across backends at every decide round.
/// An injected [`CoinFlip`] XORs the matching node's coin, which is
/// exactly how a perturbed flat run's flight log reveals *where* its
/// coins diverged from the pristine reference.
pub fn coin_digest(
    algo: &FlatAlgo,
    seed: u64,
    n: usize,
    round: u64,
    active: impl Fn(NodeId) -> bool,
    flip: Option<CoinFlip>,
) -> u64 {
    let Some(iter) = decide_iteration(algo, round) else {
        return 0;
    };
    let mut h = Fnv128::new();
    let mut any = false;
    for v in 0..n {
        if !active(v) {
            continue;
        }
        any = true;
        let mut coin = match algo {
            FlatAlgo::Luby => rng::draw(seed, v, iter, luby::TAG_MARK),
            FlatAlgo::Metivier => rng::draw_priority(seed, v, iter, metivier::TAG_PRIORITY, n),
            FlatAlgo::BoundedArb { .. } => {
                rng::draw_priority(seed, v, iter, bounded_arb::TAG_PRIORITY, n)
            }
        };
        if let Some(f) = flip {
            if f.node == v && f.iteration == iter {
                coin ^= f.xor;
            }
        }
        h.write_u64(v as u64);
        h.write_u64(coin);
    }
    if !any {
        return 0;
    }
    fold(h.finish())
}

/// What kind of disagreement [`localize`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The joiner lists differ at [`Divergence::round`].
    Joiners,
    /// One backend terminated while the other still has pending nodes.
    Done,
}

impl DivergenceKind {
    /// Stable lowercase label for artifacts and reports.
    pub fn label(&self) -> &'static str {
        match self {
            DivergenceKind::Joiners => "joiners",
            DivergenceKind::Done => "done",
        }
    }
}

/// The first round where two lockstep backends disagree, with the
/// minimal divergent node set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// The first divergent round (0-based, the round that was executed).
    pub round: u64,
    /// What diverged.
    pub kind: DivergenceKind,
    /// Symmetric difference of the two joiner lists, ascending — the
    /// minimal set of nodes whose fate differs at `round`. Empty for
    /// [`DivergenceKind::Done`].
    pub nodes: Vec<NodeId>,
}

/// Ascending symmetric difference of two ascending node lists.
fn sym_diff(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Lockstep-replays `a` and `b` from a fresh `init` and returns the
/// first divergence, or `Ok(None)` when they agree to completion.
///
/// Each round both backends step once and their joiner lists are
/// compared; because joiners are ascending, the symmetric difference is
/// the exact (minimal) set of first-round disagreements — no node that
/// both backends treated identically appears in it.
///
/// # Errors
///
/// [`BackendError::RoundLimitExceeded`] if no divergence (and no
/// termination) occurs within `max_rounds`; any backend step error.
pub fn localize(
    a: &mut dyn MisBackend,
    b: &mut dyn MisBackend,
    max_rounds: u64,
) -> Result<Option<Divergence>, BackendError> {
    a.init();
    b.init();
    loop {
        if a.is_done() != b.is_done() {
            return Ok(Some(Divergence {
                round: a.round().min(b.round()),
                kind: DivergenceKind::Done,
                nodes: Vec::new(),
            }));
        }
        if a.is_done() {
            return Ok(None);
        }
        if a.round() >= max_rounds {
            return Err(BackendError::RoundLimitExceeded { limit: max_rounds });
        }
        a.step_round()?;
        b.step_round()?;
        if a.joiners() != b.joiners() {
            return Ok(Some(Divergence {
                round: a.round() - 1,
                kind: DivergenceKind::Joiners,
                nodes: sym_diff(a.joiners(), b.joiners()),
            }));
        }
    }
}

/// BoundedArb schedule parameters carried inside an artifact.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArbSpec {
    /// The instantiated schedule.
    pub params: ArbParams,
    /// Whether the ρ_k cutoff is active.
    pub rho_cutoff: bool,
}

/// One backend's construction recipe inside an artifact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BackendSpec {
    /// `"flat"` or `"congest"`.
    pub kind: String,
    /// Flat: `"auto"` / `"sparse"` / `"dense"`. Congest: `"frontier"` /
    /// `"full"` (the simulator's scheduling mode).
    pub scan: String,
    /// Injected perturbation (flat only).
    pub coin_flip: Option<CoinFlip>,
    /// Flat execution layout (`"identity"` / `"degree"` / `"bfs"`),
    /// layout-invisible by the DESIGN.md §13 contract but carried so a
    /// replay exercises the exact engine configuration that diverged.
    /// Absent in pre-layout artifacts (defaults to identity).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub order: Option<String>,
}

impl BackendSpec {
    /// An unperturbed flat backend with auto scan.
    pub fn flat() -> Self {
        BackendSpec {
            kind: "flat".into(),
            scan: "auto".into(),
            coin_flip: None,
            order: None,
        }
    }

    /// The pristine CONGEST reference backend.
    pub fn congest() -> Self {
        BackendSpec {
            kind: "congest".into(),
            scan: "frontier".into(),
            coin_flip: None,
            order: None,
        }
    }

    /// Sets the coin flip (builder style).
    #[must_use]
    pub fn with_coin_flip(mut self, flip: CoinFlip) -> Self {
        self.coin_flip = Some(flip);
        self
    }

    /// Sets the flat execution layout (builder style).
    #[must_use]
    pub fn with_order(mut self, order: NodeOrder) -> Self {
        self.order = Some(order.label().into());
        self
    }

    fn describe(&self) -> String {
        let mut s = format!("{} scan={}", self.kind, self.scan);
        if let Some(o) = &self.order {
            s.push_str(&format!(" order={o}"));
        }
        if let Some(f) = self.coin_flip {
            s.push_str(&format!(
                " coin_flip=node {} iter {} xor {:#x}",
                f.node, f.iteration, f.xor
            ));
        }
        s
    }
}

/// The divergence an artifact's author observed, for replay verdicts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExpectedDivergence {
    /// Expected first divergent round.
    pub round: u64,
    /// Expected kind label (`"joiners"` / `"done"` / `"none"`).
    pub kind: String,
    /// Expected minimal divergent node set.
    pub nodes: Vec<NodeId>,
}

/// A self-contained reproduction of a backend divergence: the graph,
/// the seed, the algorithm, both backend recipes, and (optionally) the
/// divergence the author saw. `arbmis replay` rebuilds everything from
/// this document alone.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplayArtifact {
    /// Always [`REPLAY_SCHEMA`].
    pub schema: String,
    /// Node count.
    pub n: usize,
    /// Undirected edges, each as `(min, max)`, ascending.
    pub edges: Vec<(NodeId, NodeId)>,
    /// RNG seed.
    pub seed: u64,
    /// `"luby"` / `"metivier"` / `"bounded_arb"`.
    pub algo: String,
    /// Required when `algo == "bounded_arb"`.
    pub arb: Option<ArbSpec>,
    /// Backend A's recipe.
    pub a: BackendSpec,
    /// Backend B's recipe.
    pub b: BackendSpec,
    /// Round budget for the replay.
    pub max_rounds: u64,
    /// The divergence observed when the artifact was written.
    pub expected: Option<ExpectedDivergence>,
}

/// Outcome of [`ReplayArtifact::replay`].
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayReport {
    /// The divergence the replay found (None: backends agree).
    pub divergence: Option<Divergence>,
    /// Whether it matches the artifact's `expected` record (None when
    /// the artifact carries no expectation).
    pub matches_expected: Option<bool>,
}

impl ReplayArtifact {
    /// Builds an artifact from a live case. Edges are extracted from `g`
    /// in canonical `(min, max)` ascending order, so two artifacts over
    /// the same graph serialize identically.
    pub fn from_case(
        g: &Graph,
        seed: u64,
        algo: FlatAlgo,
        a: BackendSpec,
        b: BackendSpec,
        max_rounds: u64,
        expected: Option<&Divergence>,
    ) -> Self {
        let mut edges = Vec::new();
        for v in 0..g.n() {
            for &u in g.neighbors(v) {
                if v < u {
                    edges.push((v, u));
                }
            }
        }
        let arb = match algo {
            FlatAlgo::BoundedArb { params, rho_cutoff } => Some(ArbSpec { params, rho_cutoff }),
            _ => None,
        };
        ReplayArtifact {
            schema: REPLAY_SCHEMA.into(),
            n: g.n(),
            edges,
            seed,
            algo: algo.label().into(),
            arb,
            a,
            b,
            max_rounds,
            expected: expected.map(|d| ExpectedDivergence {
                round: d.round,
                kind: d.kind.label().into(),
                nodes: d.nodes.clone(),
            }),
        }
    }

    /// Serializes to pretty JSON (stable field order, trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("artifact serialization");
        s.push('\n');
        s
    }

    /// Parses and validates an artifact.
    ///
    /// # Errors
    ///
    /// A message naming the malformed part (bad JSON, wrong schema tag,
    /// unknown algorithm, missing `arb` block, `n` beyond the `u32` id
    /// space, out-of-range edge, self loop).
    pub fn from_json(s: &str) -> Result<Self, String> {
        let art: ReplayArtifact =
            serde_json::from_str(s).map_err(|e| format!("replay artifact: {e}"))?;
        if art.schema != REPLAY_SCHEMA {
            return Err(format!(
                "replay artifact: unsupported schema {:?} (want {REPLAY_SCHEMA:?})",
                art.schema
            ));
        }
        art.algo()?;
        if art.n > MAX_NODES {
            return Err(format!(
                "replay artifact: node count {} out of range (at most {MAX_NODES})",
                art.n
            ));
        }
        for &(u, v) in &art.edges {
            if u >= art.n || v >= art.n {
                return Err(format!(
                    "replay artifact: edge ({u}, {v}) out of range for n={}",
                    art.n
                ));
            }
            if u == v {
                return Err(format!("replay artifact: edge ({u}, {v}) is a self loop"));
            }
        }
        Ok(art)
    }

    /// The algorithm this artifact replays.
    ///
    /// # Errors
    ///
    /// Unknown `algo` label, or `bounded_arb` without an `arb` block.
    pub fn algo(&self) -> Result<FlatAlgo, String> {
        match self.algo.as_str() {
            "luby" => Ok(FlatAlgo::Luby),
            "metivier" => Ok(FlatAlgo::Metivier),
            "bounded_arb" => {
                let spec = self
                    .arb
                    .as_ref()
                    .ok_or("replay artifact: bounded_arb without arb params")?;
                Ok(FlatAlgo::BoundedArb {
                    params: spec.params,
                    rho_cutoff: spec.rho_cutoff,
                })
            }
            other => Err(format!("replay artifact: unknown algo {other:?}")),
        }
    }

    /// Rebuilds the graph from the edge list.
    pub fn graph(&self) -> Graph {
        Graph::from_edges(self.n, &self.edges)
    }

    fn build_backend<'g>(
        &self,
        g: &'g Graph,
        spec: &BackendSpec,
    ) -> Result<Box<dyn MisBackend + 'g>, String> {
        let algo = self.algo()?;
        match spec.kind.as_str() {
            "flat" => {
                let scan = match spec.scan.as_str() {
                    "auto" => ScanMode::Auto,
                    "sparse" => ScanMode::Sparse,
                    "dense" => ScanMode::Dense,
                    other => return Err(format!("replay artifact: unknown flat scan {other:?}")),
                };
                let mut b = FlatBackend::new(g, self.seed, algo).with_scan(scan);
                if let Some(o) = &spec.order {
                    let order = NodeOrder::parse(o).map_err(|e| format!("replay artifact: {e}"))?;
                    b = b.with_order(order);
                }
                if let Some(f) = spec.coin_flip {
                    b = b.with_coin_flip(f);
                }
                Ok(Box::new(b))
            }
            "congest" => {
                if spec.coin_flip.is_some() {
                    return Err("replay artifact: congest backend cannot inject coin flips".into());
                }
                let full_scan = match spec.scan.as_str() {
                    "frontier" => false,
                    "full" => true,
                    other => {
                        return Err(format!("replay artifact: unknown congest scan {other:?}"))
                    }
                };
                Ok(Box::new(
                    CongestBackend::new(g, self.seed, algo).with_full_scan(full_scan),
                ))
            }
            other => Err(format!("replay artifact: unknown backend kind {other:?}")),
        }
    }

    /// Rebuilds both backends and reruns [`localize`].
    ///
    /// # Errors
    ///
    /// Artifact validation errors, or a backend failure during replay
    /// (rendered as a string so the CLI can print it verbatim).
    pub fn replay(&self) -> Result<ReplayReport, String> {
        let g = self.graph();
        let mut a = self.build_backend(&g, &self.a)?;
        let mut b = self.build_backend(&g, &self.b)?;
        let divergence =
            localize(a.as_mut(), b.as_mut(), self.max_rounds).map_err(|e| e.to_string())?;
        let matches_expected = self.expected.as_ref().map(|e| match &divergence {
            None => e.kind == "none",
            Some(d) => e.round == d.round && e.kind == d.kind.label() && e.nodes == d.nodes,
        });
        Ok(ReplayReport {
            divergence,
            matches_expected,
        })
    }

    /// Deterministic human-readable replay report (what `arbmis replay`
    /// prints; byte-stable for a fixed artifact).
    pub fn render(&self, report: &ReplayReport) -> String {
        let mut out = String::new();
        out.push_str(&format!("replay artifact: {}\n", self.schema));
        out.push_str(&format!(
            "graph: n={} m={} seed={} algo={}\n",
            self.n,
            self.edges.len(),
            self.seed,
            self.algo
        ));
        out.push_str(&format!("a: {}\n", self.a.describe()));
        out.push_str(&format!("b: {}\n", self.b.describe()));
        match &report.divergence {
            None => out.push_str("divergence: none (backends agree to completion)\n"),
            Some(d) => out.push_str(&format!(
                "divergence: round {} kind={} nodes={:?}\n",
                d.round,
                d.kind.label(),
                d.nodes
            )),
        }
        match report.matches_expected {
            None => out.push_str("verdict: no expectation recorded\n"),
            Some(true) => out.push_str("verdict: divergence matches expected\n"),
            Some(false) => {
                if let Some(e) = &self.expected {
                    out.push_str(&format!(
                        "expected: round {} kind={} nodes={:?}\n",
                        e.round, e.kind, e.nodes
                    ));
                }
                out.push_str("verdict: MISMATCH with expected\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbmis_graph::gen;

    #[test]
    fn identical_backends_do_not_diverge() {
        let g = gen::path(20);
        let mut a = FlatBackend::new(&g, 7, FlatAlgo::Metivier);
        let mut b = CongestBackend::new(&g, 7, FlatAlgo::Metivier);
        assert_eq!(localize(&mut a, &mut b, 10_000).unwrap(), None);
    }

    #[test]
    fn coin_flip_divergence_is_localized() {
        let g = gen::cycle(16);
        let flip = CoinFlip {
            node: 5,
            iteration: 0,
            xor: u64::MAX >> 1,
        };
        let mut a = FlatBackend::new(&g, 3, FlatAlgo::Metivier).with_coin_flip(flip);
        let mut b = CongestBackend::new(&g, 3, FlatAlgo::Metivier);
        let d = localize(&mut a, &mut b, 10_000).unwrap().expect("diverges");
        // The flip hits iteration 0, whose joiners land at round 2.
        assert_eq!(d.round, 2);
        assert_eq!(d.kind, DivergenceKind::Joiners);
        assert!(!d.nodes.is_empty());
        assert!(d.nodes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sym_diff_is_minimal_and_sorted() {
        assert_eq!(sym_diff(&[1, 3, 5], &[1, 4, 5]), vec![3, 4]);
        assert_eq!(sym_diff(&[], &[2]), vec![2]);
        assert_eq!(sym_diff(&[2], &[2]), Vec::<NodeId>::new());
        assert_eq!(sym_diff(&[0, 9], &[]), vec![0, 9]);
    }

    #[test]
    fn decide_iteration_schedules() {
        assert_eq!(decide_iteration(&FlatAlgo::Luby, 0), None);
        assert_eq!(decide_iteration(&FlatAlgo::Luby, 1), Some(0));
        assert_eq!(decide_iteration(&FlatAlgo::Metivier, 7), Some(2));
        let params = ArbParams::new(3, 100_000, Default::default());
        assert!(params.theta >= 2, "need a multi-scale schedule");
        let algo = FlatAlgo::BoundedArb {
            params,
            rho_cutoff: true,
        };
        let rps = 3 * params.lambda + bounded_arb::ROUNDS_PER_SCALE_END;
        // First decide of scale 2 is one round past the scale boundary.
        assert_eq!(decide_iteration(&algo, rps + 1), Some(params.lambda));
        // Scale-end rounds never decide.
        assert_eq!(decide_iteration(&algo, 3 * params.lambda), None);
        let total = u64::from(params.theta) * rps;
        assert_eq!(decide_iteration(&algo, total + 1), None);
    }

    #[test]
    fn coin_digest_zero_off_decide_rounds_and_flip_changes_it() {
        let algo = FlatAlgo::Metivier;
        let active = |_v: NodeId| true;
        assert_eq!(coin_digest(&algo, 1, 8, 0, active, None), 0);
        let base = coin_digest(&algo, 1, 8, 1, active, None);
        assert_ne!(base, 0);
        let flip = CoinFlip {
            node: 3,
            iteration: 0,
            xor: 0xff,
        };
        assert_ne!(coin_digest(&algo, 1, 8, 1, active, Some(flip)), base);
        // A flip for a later iteration leaves round 1 untouched.
        let later = CoinFlip {
            node: 3,
            iteration: 2,
            xor: 0xff,
        };
        assert_eq!(coin_digest(&algo, 1, 8, 1, active, Some(later)), base);
        // No active nodes → 0.
        assert_eq!(coin_digest(&algo, 1, 8, 1, |_| false, None), 0);
    }

    #[test]
    fn artifact_roundtrips_and_replays() {
        let g = gen::cycle(16);
        let flip = CoinFlip {
            node: 5,
            iteration: 0,
            xor: u64::MAX >> 1,
        };
        let mut a = FlatBackend::new(&g, 3, FlatAlgo::Metivier).with_coin_flip(flip);
        let mut b = CongestBackend::new(&g, 3, FlatAlgo::Metivier);
        let d = localize(&mut a, &mut b, 10_000).unwrap().unwrap();
        let art = ReplayArtifact::from_case(
            &g,
            3,
            FlatAlgo::Metivier,
            BackendSpec::flat().with_coin_flip(flip),
            BackendSpec::congest(),
            10_000,
            Some(&d),
        );
        let json = art.to_json();
        let back = ReplayArtifact::from_json(&json).unwrap();
        assert_eq!(back, art);
        assert_eq!(back.to_json(), json, "serialization is byte-stable");
        let report = back.replay().unwrap();
        assert_eq!(report.matches_expected, Some(true));
        assert_eq!(report.divergence.as_ref(), Some(&d));
        let render = back.render(&report);
        assert!(
            render.contains("verdict: divergence matches expected"),
            "{render}"
        );
    }

    #[test]
    fn artifact_rejects_malformed_inputs() {
        assert!(ReplayArtifact::from_json("not json").is_err());
        let g = gen::path(4);
        let mut art = ReplayArtifact::from_case(
            &g,
            1,
            FlatAlgo::Luby,
            BackendSpec::flat(),
            BackendSpec::congest(),
            100,
            None,
        );
        art.schema = "bogus".into();
        assert!(ReplayArtifact::from_json(&art.to_json()).is_err());
        art.schema = REPLAY_SCHEMA.into();
        art.algo = "quantum".into();
        assert!(ReplayArtifact::from_json(&art.to_json()).is_err());
        art.algo = "bounded_arb".into(); // no arb block
        assert!(ReplayArtifact::from_json(&art.to_json()).is_err());
        art.algo = "luby".into();
        art.edges.push((0, 99));
        assert!(ReplayArtifact::from_json(&art.to_json()).is_err());
    }

    fn path_artifact() -> ReplayArtifact {
        ReplayArtifact::from_case(
            &gen::path(4),
            1,
            FlatAlgo::Luby,
            BackendSpec::flat(),
            BackendSpec::congest(),
            100,
            None,
        )
    }

    #[test]
    fn artifact_rejects_self_loops() {
        let mut art = path_artifact();
        art.edges.push((2, 2));
        let err = ReplayArtifact::from_json(&art.to_json()).unwrap_err();
        assert!(err.contains("edge (2, 2) is a self loop"), "{err}");
    }

    #[test]
    fn artifact_rejects_n_beyond_u32_id_space() {
        let mut art = path_artifact();
        art.n = MAX_NODES + 1;
        let err = ReplayArtifact::from_json(&art.to_json()).unwrap_err();
        assert!(err.contains("node count 4294967296 out of range"), "{err}");
        art.n = MAX_NODES;
        assert!(ReplayArtifact::from_json(&art.to_json()).is_ok());
    }

    #[test]
    fn bounded_arb_artifact_replays() {
        let g = gen::complete(9);
        let params = ArbParams::new(3, 8, Default::default());
        let algo = FlatAlgo::BoundedArb {
            params,
            rho_cutoff: true,
        };
        let art = ReplayArtifact::from_case(
            &g,
            5,
            algo,
            BackendSpec::flat(),
            BackendSpec::congest(),
            1_000_000,
            None,
        );
        let back = ReplayArtifact::from_json(&art.to_json()).unwrap();
        let report = back.replay().unwrap();
        assert_eq!(report.divergence, None);
        assert_eq!(report.matches_expected, None);
    }
}
