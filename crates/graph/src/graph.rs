//! Immutable simple undirected graphs in CSR (compressed sparse row) form.
//!
//! [`Graph`] is the single graph type every algorithm in the workspace
//! consumes. It stores, for each node, a sorted slice of neighbor ids, so
//! adjacency queries are `O(log deg)` and neighbor iteration is a cache
//! friendly slice scan. Graphs are *simple*: no self loops, no parallel
//! edges. Construction goes through [`crate::GraphBuilder`] or the
//! convenience constructors here, all of which normalize (sort + dedup) the
//! adjacency lists.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node in a [`Graph`]. Nodes are always `0..n`.
pub type NodeId = usize;

/// Largest node count the workspace supports: [`crate::SubgraphScratch`]
/// keeps local ids as `u32`. The edge-list reader rejects larger inputs.
pub(crate) const MAX_NODES: usize = u32::MAX as usize;

/// A simple undirected graph in CSR form.
///
/// # Example
///
/// ```
/// use arbmis_graph::Graph;
///
/// // A triangle plus a pendant node: 0-1, 1-2, 2-0, 2-3.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(2), 3);
/// assert!(g.has_edge(0, 2));
/// assert!(!g.has_edge(0, 3));
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `adj` for node `v`'s neighbors.
    offsets: Vec<usize>,
    /// Concatenated, per-node-sorted neighbor lists.
    adj: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Edges may appear in any order and direction; duplicates and both
    /// orientations of the same edge are merged. Self loops are rejected.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n` or an edge is a self loop.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut builder = crate::GraphBuilder::new(n);
        for &(u, v) in edges {
            builder.add_edge(u, v);
        }
        builder.build()
    }

    /// Builds a graph directly from per-node adjacency lists.
    ///
    /// The lists are normalized (sorted, deduplicated) and symmetrized: if
    /// `u` lists `v`, then `v` will list `u` in the result.
    ///
    /// # Panics
    ///
    /// Panics if a listed neighbor id is out of range or equals its owner
    /// (self loop).
    pub fn from_adjacency(lists: Vec<Vec<NodeId>>) -> Self {
        let n = lists.len();
        let mut builder = crate::GraphBuilder::new(n);
        for (u, nbrs) in lists.into_iter().enumerate() {
            for v in nbrs {
                builder.add_edge(u, v);
            }
        }
        builder.build()
    }

    /// Constructs a graph from already-normalized CSR arrays.
    ///
    /// This is the fast path used by [`crate::GraphBuilder`] and by the
    /// row-wise CSR writer behind induced subgraphs and overlay
    /// compaction. The caller promises that `offsets` is monotone with
    /// `offsets[0] == 0` and `offsets[n] == adj.len()`, each per-node
    /// slice of `adj` is strictly sorted, contains no self reference, and
    /// adjacency is symmetric.
    /// Debug builds verify all of this.
    pub(crate) fn from_csr_unchecked(offsets: Vec<usize>, adj: Vec<NodeId>) -> Self {
        let g = Graph { offsets, adj };
        debug_assert!(crate::props::check_well_formed(&g).is_ok());
        g
    }

    /// The empty graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            adj: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n() == 0
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted slice of neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `{u, v}` is present. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Maximum degree Δ of the graph (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree of the graph (0 for an empty graph).
    pub fn min_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Average degree `2m / n` (0.0 for an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n() as f64
        }
    }

    /// Iterates over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            graph: self,
            u: 0,
            i: 0,
        }
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.n()
    }

    /// Histogram of degrees: `hist[d]` = number of nodes with degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_degree() + 1];
        for v in self.nodes() {
            hist[self.degree(v)] += 1;
        }
        hist
    }

    /// Number of nodes with degree strictly greater than `threshold`.
    pub fn count_degree_above(&self, threshold: usize) -> usize {
        self.nodes().filter(|&v| self.degree(v) > threshold).count()
    }

    /// Returns the complement adjacency check helper: total possible edges
    /// `n(n-1)/2`.
    pub fn max_possible_edges(&self) -> usize {
        let n = self.n();
        n * n.saturating_sub(1) / 2
    }

    /// Edge density `m / (n choose 2)`, 0.0 when fewer than two nodes.
    pub fn density(&self) -> f64 {
        let poss = self.max_possible_edges();
        if poss == 0 {
            0.0
        } else {
            self.m() as f64 / poss as f64
        }
    }

    /// Raw CSR parts `(offsets, adj)`, e.g. for serialization or FFI.
    pub fn as_csr(&self) -> (&[usize], &[NodeId]) {
        (&self.offsets, &self.adj)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n(), self.m())
    }
}

/// Iterator over the undirected edges of a [`Graph`], yielding each edge
/// once as `(u, v)` with `u < v`. Created by [`Graph::edges`].
#[derive(Clone, Debug)]
pub struct Edges<'a> {
    graph: &'a Graph,
    u: NodeId,
    i: usize,
}

impl Iterator for Edges<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        let g = self.graph;
        while self.u < g.n() {
            let nbrs = g.neighbors(self.u);
            while self.i < nbrs.len() {
                let v = nbrs[self.i];
                self.i += 1;
                if self.u < v {
                    return Some((self.u, v));
                }
            }
            self.u += 1;
            self.i = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn counts() {
        let g = triangle_plus_pendant();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle_plus_pendant();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                assert!(g.has_edge(v, u), "asymmetric edge ({u},{v})");
            }
        }
    }

    #[test]
    fn duplicate_and_reversed_edges_merge() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let _ = Graph::from_edges(2, &[(1, 1)]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_endpoint_rejected() {
        let _ = Graph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
        let g0 = Graph::empty(0);
        assert!(g0.is_empty());
        assert_eq!(g0.avg_degree(), 0.0);
    }

    #[test]
    fn edge_iterator_yields_each_edge_once() {
        let g = triangle_plus_pendant();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn degree_histogram_sums_to_n() {
        let g = triangle_plus_pendant();
        let hist = g.degree_histogram();
        assert_eq!(hist.iter().sum::<usize>(), g.n());
        assert_eq!(hist[3], 1); // node 2
        assert_eq!(hist[1], 1); // node 3
    }

    #[test]
    fn from_adjacency_symmetrizes() {
        // Only one direction listed; builder must symmetrize.
        let g = Graph::from_adjacency(vec![vec![1, 2], vec![], vec![]]);
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 0));
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn density_and_possible_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        assert_eq!(g.max_possible_edges(), 6);
        assert!((g.density() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn count_degree_above() {
        let g = triangle_plus_pendant();
        assert_eq!(g.count_degree_above(1), 3);
        assert_eq!(g.count_degree_above(2), 1);
        assert_eq!(g.count_degree_above(3), 0);
    }

    #[test]
    fn display_and_debug_nonempty() {
        let g = triangle_plus_pendant();
        assert!(!format!("{g}").is_empty());
        assert!(format!("{g:?}").contains("Graph"));
    }
}
