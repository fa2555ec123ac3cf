//! A mutable adjacency overlay over an immutable CSR [`Graph`].
//!
//! The static pipeline consumes CSR graphs, but a live service sees the
//! graph as a *stream* of edge/node inserts and deletes. [`OverlayGraph`]
//! keeps an immutable CSR base plus per-node sorted delta lists (`added`
//! neighbors not in the base, `removed` base neighbors) and an `alive`
//! mask for node churn, so every update is `O(log deg)` and adjacency
//! queries see the mutated graph without ever rebuilding the CSR.
//!
//! Node ids are **stable**: inserting a node appends id `n`, removing a
//! node marks it dead (its slot is never reused), and
//! [`compact`](OverlayGraph::compact) folds the deltas back into a fresh
//! CSR base *without renumbering* — dead nodes simply become isolated in
//! the new base. That stability is what lets an incremental MIS layer
//! keep per-node state (membership masks, scratch tables) across
//! arbitrarily long update streams.
//!
//! Compaction is deterministic: it is a pure function of the update
//! sequence (no clocks, no allocator addresses), so two replicas applying
//! the same updates hold byte-identical structures at every step.

use crate::builder::CsrWriter;
use crate::graph::{Graph, NodeId};

/// A CSR base graph plus sorted delta lists and an alive mask.
///
/// # Example
///
/// ```
/// use arbmis_graph::{gen, OverlayGraph};
///
/// let mut g = OverlayGraph::new(gen::path(4)); // 0-1-2-3
/// assert!(g.insert_edge(0, 3));
/// assert!(g.remove_edge(1, 2));
/// let v = g.insert_node(&[2]);
/// assert_eq!(v, 4);
/// assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 3]);
/// assert_eq!(g.degree(2), 2); // 3 and the new node
/// g.remove_node(1);
/// assert_eq!(g.degree(0), 1);
/// ```
#[derive(Clone, Debug)]
pub struct OverlayGraph {
    /// Immutable CSR snapshot; adjacency truth is `base − removed + added`.
    base: Graph,
    /// Per-node sorted neighbor ids present in the overlay but not the
    /// base. For nodes `>= base.n()` this is the entire adjacency.
    added: Vec<Vec<NodeId>>,
    /// Per-node sorted base-neighbor ids deleted by the overlay. Only
    /// ever references edges present in `base`.
    removed: Vec<Vec<NodeId>>,
    /// `alive[v]` — dead nodes have no incident edges and reject updates.
    alive: Vec<bool>,
    /// Incrementally-maintained degree (live edges only).
    deg: Vec<usize>,
    /// Live undirected edge count.
    m: usize,
    /// Live node count (`alive.iter().filter(|a| **a).count()`).
    alive_count: usize,
    /// Directed delta-entry count (`Σ added[v].len() + removed[v].len()`)
    /// — the compaction trigger's input.
    delta_entries: usize,
}

impl OverlayGraph {
    /// Wraps `base` with an empty overlay (every node alive).
    pub fn new(base: Graph) -> Self {
        let n = base.n();
        OverlayGraph {
            deg: (0..n).map(|v| base.degree(v)).collect(),
            m: base.m(),
            alive_count: n,
            added: vec![Vec::new(); n],
            removed: vec![Vec::new(); n],
            alive: vec![true; n],
            delta_entries: 0,
            base,
        }
    }

    /// Total node slots, dead ones included (ids are `0..n`).
    #[inline]
    pub fn n(&self) -> usize {
        self.alive.len()
    }

    /// Number of alive nodes.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Number of live undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Whether node `v` is alive.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    #[inline]
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.alive[v]
    }

    /// Live degree of `v` (0 for dead nodes).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.deg[v]
    }

    /// Directed delta entries currently held (0 right after
    /// [`compact`](Self::compact)); the compaction-policy input.
    #[inline]
    pub fn delta_entries(&self) -> usize {
        self.delta_entries
    }

    /// Undirected edge count of the CSR base snapshot.
    #[inline]
    pub fn base_m(&self) -> usize {
        self.base.m()
    }

    /// Whether the live edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if self.added[u].binary_search(&v).is_ok() {
            return true;
        }
        u < self.base.n()
            && v < self.base.n()
            && self.base.has_edge(u, v)
            && self.removed[u].binary_search(&v).is_err()
    }

    /// Iterates the live neighbors of `v` in ascending order
    /// (base minus removed, merged with added).
    pub fn neighbors(&self, v: NodeId) -> OverlayNeighbors<'_> {
        let base = if v < self.base.n() {
            self.base.neighbors(v)
        } else {
            &[]
        };
        OverlayNeighbors {
            base,
            removed: &self.removed[v],
            added: &self.added[v],
            bi: 0,
            ai: 0,
        }
    }

    /// Inserts the undirected edge `{u, v}`; returns whether the graph
    /// changed (`false` if the edge already existed).
    ///
    /// # Panics
    ///
    /// Panics on self loops, out-of-range ids, or dead endpoints.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(u != v, "self loop on node {u} rejected");
        assert!(
            self.alive[u] && self.alive[v],
            "edge ({u},{v}) touches a dead node"
        );
        if self.has_edge(u, v) {
            return false;
        }
        self.half_insert(u, v);
        self.half_insert(v, u);
        self.deg[u] += 1;
        self.deg[v] += 1;
        self.m += 1;
        true
    }

    /// Removes the undirected edge `{u, v}`; returns whether the graph
    /// changed (`false` if the edge was absent).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids or dead endpoints.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            self.alive[u] && self.alive[v],
            "edge ({u},{v}) touches a dead node"
        );
        if u == v || !self.has_edge(u, v) {
            return false;
        }
        self.half_remove(u, v);
        self.half_remove(v, u);
        self.deg[u] -= 1;
        self.deg[v] -= 1;
        self.m -= 1;
        true
    }

    /// Appends a new alive node wired to `neighbors` (duplicates merged)
    /// and returns its id, which is always the previous [`n`](Self::n).
    ///
    /// # Panics
    ///
    /// Panics if a listed neighbor is out of range or dead.
    pub fn insert_node(&mut self, neighbors: &[NodeId]) -> NodeId {
        let v = self.n();
        self.added.push(Vec::new());
        self.removed.push(Vec::new());
        self.alive.push(true);
        self.deg.push(0);
        self.alive_count += 1;
        for &u in neighbors {
            assert!(u < v, "neighbor {u} out of range for new node {v}");
            self.insert_edge(v, u);
        }
        v
    }

    /// Removes node `v`: deletes all its incident edges, then marks it
    /// dead. Its id is never reused; updates touching it panic.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or already dead.
    pub fn remove_node(&mut self, v: NodeId) {
        assert!(self.alive[v], "node {v} is already dead");
        let nbrs: Vec<NodeId> = self.neighbors(v).collect();
        for u in nbrs {
            self.remove_edge(v, u);
        }
        self.alive[v] = false;
        self.alive_count -= 1;
    }

    /// Folds the deltas into a fresh CSR base (node ids unchanged, dead
    /// nodes isolated) and clears the overlay. Deterministic: the new
    /// base depends only on the live edge set.
    pub fn compact(&mut self) {
        let n = self.n();
        self.base = self.to_graph();
        for v in 0..n {
            self.added[v].clear();
            self.removed[v].clear();
        }
        self.delta_entries = 0;
        debug_assert_eq!(self.base.m(), self.m);
    }

    /// Materializes the live structure as a standalone CSR [`Graph`] on
    /// the same ids (dead nodes isolated), leaving the overlay untouched.
    pub fn to_graph(&self) -> Graph {
        let n = self.n();
        let mut w = CsrWriter::with_capacity(n, 2 * self.m);
        for v in 0..n {
            w.push_row(self.neighbors(v));
        }
        w.finish()
    }

    /// Snapshot of the alive mask.
    pub fn alive_mask(&self) -> &[bool] {
        &self.alive
    }

    /// One directed insertion half: undelete from `removed` if the base
    /// has the edge, else record in `added`.
    fn half_insert(&mut self, u: NodeId, v: NodeId) {
        if u < self.base.n() && v < self.base.n() && self.base.has_edge(u, v) {
            let i = self.removed[u]
                .binary_search(&v)
                .expect("absent base edge must be in removed");
            self.removed[u].remove(i);
            self.delta_entries -= 1;
        } else {
            let i = self.added[u]
                .binary_search(&v)
                .expect_err("edge absence checked by caller");
            self.added[u].insert(i, v);
            self.delta_entries += 1;
        }
    }

    /// One directed removal half: drop from `added` if overlay-only, else
    /// record the base edge in `removed`.
    fn half_remove(&mut self, u: NodeId, v: NodeId) {
        if let Ok(i) = self.added[u].binary_search(&v) {
            self.added[u].remove(i);
            self.delta_entries -= 1;
        } else {
            let i = self.removed[u]
                .binary_search(&v)
                .expect_err("present base edge cannot already be removed");
            self.removed[u].insert(i, v);
            self.delta_entries += 1;
        }
    }
}

/// Ascending merge of `(base − removed) ∪ added` for one node. Created
/// by [`OverlayGraph::neighbors`].
#[derive(Clone, Debug)]
pub struct OverlayNeighbors<'a> {
    base: &'a [NodeId],
    removed: &'a [NodeId],
    added: &'a [NodeId],
    bi: usize,
    ai: usize,
}

impl Iterator for OverlayNeighbors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            let b = self.base.get(self.bi).copied();
            let a = self.added.get(self.ai).copied();
            match (b, a) {
                (Some(bv), av) if av.is_none_or(|av| bv < av) => {
                    self.bi += 1;
                    // `removed` is sorted like `base`; membership test is
                    // a binary search over the (short) removal list.
                    if self.removed.binary_search(&bv).is_err() {
                        return Some(bv);
                    }
                }
                (_, Some(av)) => {
                    self.ai += 1;
                    return Some(av);
                }
                (Some(_) | None, None) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;

    #[test]
    fn insert_and_remove_edges() {
        let mut g = OverlayGraph::new(gen::path(4)); // 0-1, 1-2, 2-3
        assert!(g.insert_edge(0, 2));
        assert!(!g.insert_edge(2, 0), "duplicate insert is a no-op");
        assert!(g.has_edge(0, 2));
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(2), 3);
        assert!(g.remove_edge(1, 2));
        assert!(!g.remove_edge(1, 2), "double remove is a no-op");
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.m(), 3);
        assert_eq!(g.neighbors(2).collect::<Vec<_>>(), vec![0, 3]);
        // Re-inserting a removed base edge undeletes it.
        assert!(g.insert_edge(1, 2));
        assert_eq!(g.delta_entries(), 2); // only the overlay edge {0,2}
    }

    #[test]
    fn node_churn() {
        let mut g = OverlayGraph::new(gen::cycle(4));
        let v = g.insert_node(&[0, 2]);
        assert_eq!(v, 4);
        assert_eq!(g.degree(v), 2);
        assert_eq!(g.alive_count(), 5);
        g.remove_node(0);
        assert!(!g.is_alive(0));
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(v), 1);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![2]);
        assert_eq!(g.alive_count(), 4);
        // The dead slot stays: new nodes append after it.
        assert_eq!(g.insert_node(&[]), 5);
    }

    #[test]
    #[should_panic]
    fn dead_node_rejects_updates() {
        let mut g = OverlayGraph::new(gen::path(3));
        g.remove_node(1);
        g.insert_edge(0, 1);
    }

    #[test]
    fn compact_preserves_structure_and_ids() {
        let mut g = OverlayGraph::new(gen::path(5));
        g.insert_edge(0, 4);
        g.remove_edge(1, 2);
        g.remove_node(3);
        let before = g.to_graph();
        let (n, m) = (g.n(), g.m());
        g.compact();
        assert_eq!(g.delta_entries(), 0);
        assert_eq!((g.n(), g.m()), (n, m));
        assert_eq!(g.to_graph(), before, "compaction must not change edges");
        assert!(!g.is_alive(3), "alive mask survives compaction");
        // Post-compaction updates work against the new base.
        assert!(g.remove_edge(0, 4));
        assert!(g.insert_edge(1, 2));
    }

    /// Randomized differential: overlay adjacency must always equal a
    /// naively-maintained edge set.
    #[test]
    fn matches_naive_edge_set_under_random_churn() {
        let mut rng = StdRng::seed_from_u64(42);
        let base = gen::gnp(30, 0.1, &mut rng);
        let mut g = OverlayGraph::new(base.clone());
        let mut naive: BTreeSet<(usize, usize)> = base.edges().collect();
        let mut alive: Vec<bool> = vec![true; 30];
        for step in 0..600 {
            let op = rng.gen_range(0u32..100);
            let n = g.n();
            if op < 40 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v && alive[u] && alive[v] {
                    let key = (u.min(v), u.max(v));
                    assert_eq!(g.insert_edge(u, v), naive.insert(key), "step {step}");
                }
            } else if op < 80 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v && alive[u] && alive[v] {
                    let key = (u.min(v), u.max(v));
                    assert_eq!(g.remove_edge(u, v), naive.remove(&key), "step {step}");
                }
            } else if op < 90 {
                let nbrs: Vec<usize> = (0..n).filter(|&u| alive[u] && rng.gen_bool(0.1)).collect();
                let v = g.insert_node(&nbrs);
                alive.push(true);
                for &u in &nbrs {
                    naive.insert((u, v));
                }
            } else if op < 95 {
                let v = rng.gen_range(0..n);
                if alive[v] {
                    g.remove_node(v);
                    alive[v] = false;
                    naive.retain(|&(a, b)| a != v && b != v);
                }
            } else {
                g.compact();
            }
            assert_eq!(g.m(), naive.len(), "step {step}");
            for v in 0..g.n() {
                let got: Vec<usize> = g.neighbors(v).collect();
                let want: Vec<usize> = naive
                    .iter()
                    .filter_map(|&(a, b)| (a == v).then_some(b).or((b == v).then_some(a)))
                    .collect();
                assert_eq!(got, want, "step {step} node {v}");
                assert_eq!(g.degree(v), want.len(), "step {step} node {v} degree");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(200))]

        /// `to_graph`, `compact` and `induce_by` over a churned overlay
        /// against the sort-and-dedup reference of its live edge set;
        /// `induce_by` reads rows through a closure that reverses them.
        #[test]
        fn materializations_match_reference(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n0 = rng.gen_range(2..30usize);
            let mut g = OverlayGraph::new(gen::gnp(n0, 0.15, &mut rng));
            for _ in 0..rng.gen_range(0..80usize) {
                let n = g.n();
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                match rng.gen_range(0..10u32) {
                    _ if u == v || !g.is_alive(u) || !g.is_alive(v) => {}
                    0..=4 => {
                        g.insert_edge(u, v);
                    }
                    5..=7 => {
                        g.remove_edge(u, v);
                    }
                    8 => {
                        g.insert_node(&[u, v]);
                    }
                    _ => g.remove_node(u),
                }
            }
            let n = g.n();
            let live: Vec<(NodeId, NodeId)> = (0..n)
                .flat_map(|v| g.neighbors(v).map(move |u| (v, u)))
                .collect();
            let (offsets, adj) = crate::builder::reference_csr(n, &live);
            let full = g.to_graph();
            proptest::prop_assert_eq!(full.as_csr(), (&offsets[..], &adj[..]));

            let nodes: Vec<NodeId> = (0..n).filter(|_| rng.gen_bool(0.6)).collect();
            let mask: Vec<bool> = (0..n).map(|v| nodes.binary_search(&v).is_ok()).collect();
            let want = crate::InducedSubgraph::new(&full, &mask);
            let mut scratch = crate::SubgraphScratch::new();
            let reversed = |v: NodeId| {
                let mut row: Vec<NodeId> = g.neighbors(v).collect();
                row.reverse();
                row
            };
            let sub = scratch.induce_by(n, &nodes, reversed);
            proptest::prop_assert_eq!(sub.graph(), want.graph());

            g.compact();
            proptest::prop_assert_eq!(g.delta_entries(), 0);
            proptest::prop_assert_eq!(g.base.as_csr(), (&offsets[..], &adj[..]));
        }
    }

    #[test]
    fn neighbors_of_fresh_node_beyond_base() {
        let mut g = OverlayGraph::new(Graph::empty(2));
        let v = g.insert_node(&[0, 1]);
        assert_eq!(g.neighbors(v).collect::<Vec<_>>(), vec![0, 1]);
        assert!(g.has_edge(v, 0));
        assert!(!g.has_edge(0, 1));
    }
}
