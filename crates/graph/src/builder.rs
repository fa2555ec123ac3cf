//! Incremental construction of [`Graph`] values.

use crate::graph::{Graph, NodeId};

/// Builder for [`Graph`].
///
/// Collects undirected edges (in any order/direction, duplicates allowed)
/// and produces a normalized CSR graph. Self loops are rejected eagerly so
/// the error points at the offending insertion.
///
/// # Example
///
/// ```
/// use arbmis_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(2, 1); // duplicate, merged
/// let g = b.build();
/// assert_eq!(g.m(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder pre-sized for roughly `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of nodes this builder was created with.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edge insertions so far (duplicates counted).
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Records the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self loop) or either endpoint is `>= n`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert!(u != v, "self loop on node {u} rejected");
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.edges.push(if u < v { (u, v) } else { (v, u) });
        self
    }

    /// Records the edge `{u, v}` only if both checks pass, returning whether
    /// it was accepted. Unlike [`add_edge`](Self::add_edge) this never
    /// panics; it is convenient inside randomized generators that may
    /// propose loops.
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || u >= self.n || v >= self.n {
            return false;
        }
        self.edges.push(if u < v { (u, v) } else { (v, u) });
        true
    }

    /// Adds all edges from an iterator. Panics under the same conditions as
    /// [`add_edge`](Self::add_edge).
    pub fn extend_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) -> &mut Self {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
        self
    }

    /// Wraps already-normalized pairs (`u < v < n`, any order,
    /// duplicates allowed) without re-checking them; the edge-list reader
    /// validates its ids once while parsing.
    pub(crate) fn from_normalized_pairs(n: usize, edges: Vec<(NodeId, NodeId)>) -> Self {
        debug_assert!(edges.iter().all(|&(u, v)| u < v && v < n));
        GraphBuilder { n, edges }
    }

    /// Finalizes into a normalized [`Graph`] by a counting sort on the
    /// endpoint: both directions of every pair are scattered into their
    /// rows, then each row is sorted and deduplicated in place.
    /// `O(n + m + Σ_v d_v log d_v)` time; the pairs are not copied.
    pub fn build(&self) -> Graph {
        let n = self.n;
        // `pos[v]` starts as the end of row `v`; scattering fills each row
        // back to front, which leaves `pos[v]` at the row's start. The
        // pairs are scanned backwards so that sorted input (edge lists
        // written by `write_edge_list`, `Graph::edges`) lands in ascending
        // rows, where the row sort below is a linear check.
        let mut pos = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            pos[u] += 1;
            pos[v] += 1;
        }
        for v in 0..n {
            pos[v + 1] += pos[v];
        }
        let mut adj = vec![0 as NodeId; 2 * self.edges.len()];
        for &(u, v) in self.edges.iter().rev() {
            pos[u] -= 1;
            adj[pos[u]] = v;
            pos[v] -= 1;
            adj[pos[v]] = u;
        }
        // Compact the deduplicated rows to the front, rewriting `pos` into
        // the final offsets as we go (`pos[v + 1]` is read before it is
        // overwritten).
        let (mut start, mut written) = (0, 0);
        for v in 0..n {
            let end = pos[v + 1];
            let len = sort_dedup(&mut adj[start..end]);
            adj.copy_within(start..start + len, written);
            written += len;
            pos[v + 1] = written;
            start = end;
        }
        adj.truncate(written);
        adj.shrink_to_fit();
        Graph::from_csr_unchecked(pos, adj)
    }
}

/// Sorts `row` and moves its distinct values to the front, returning how
/// many there are. `O(d)` on an already-sorted row.
fn sort_dedup(row: &mut [NodeId]) -> usize {
    if !row.is_sorted() {
        row.sort_unstable();
    }
    if row.is_empty() {
        return 0;
    }
    let mut len = 1;
    for i in 1..row.len() {
        if row[i] != row[len - 1] {
            row[len] = row[i];
            len += 1;
        }
    }
    len
}

/// Writes a [`Graph`] one node row at a time, for callers that already
/// hold each node's neighbor list (induced subgraphs, overlay
/// compaction) and so need no edge-pair sort.
pub(crate) struct CsrWriter {
    offsets: Vec<usize>,
    adj: Vec<NodeId>,
}

impl CsrWriter {
    /// A writer for `n` rows holding about `entries` directed entries.
    pub(crate) fn with_capacity(n: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        CsrWriter {
            offsets,
            adj: Vec::with_capacity(entries),
        }
    }

    /// Appends the next node's row, sorting and deduplicating it.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = NodeId>) {
        let start = self.adj.len();
        self.adj.extend(row);
        let len = sort_dedup(&mut self.adj[start..]);
        self.adj.truncate(start + len);
        self.offsets.push(self.adj.len());
    }

    /// The finished graph. Every row must have been pushed, and the rows
    /// must be symmetric (`u` lists `v` iff `v` lists `u`) and loop-free;
    /// debug builds check this.
    pub(crate) fn finish(self) -> Graph {
        Graph::from_csr_unchecked(self.offsets, self.adj)
    }
}

/// The reference CSR of the undirected pairs on `n` nodes: both
/// directions of every pair, globally sorted and deduplicated.
#[cfg(test)]
pub(crate) fn reference_csr(n: usize, pairs: &[(NodeId, NodeId)]) -> (Vec<usize>, Vec<NodeId>) {
    let mut directed: Vec<(NodeId, NodeId)> =
        pairs.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
    directed.sort_unstable();
    directed.dedup();
    let mut offsets = vec![0; n + 1];
    for &(u, _) in &directed {
        offsets[u + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    (offsets, directed.into_iter().map(|(_, v)| v).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn builds_sorted_csr() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(4, 0).add_edge(0, 2).add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 4]);
    }

    #[test]
    fn dedups_both_orientations() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        assert_eq!(b.pending_edges(), 2);
        assert_eq!(b.build().m(), 1);
    }

    #[test]
    fn try_add_edge_filters() {
        let mut b = GraphBuilder::new(3);
        assert!(!b.try_add_edge(1, 1));
        assert!(!b.try_add_edge(0, 3));
        assert!(b.try_add_edge(0, 2));
        assert_eq!(b.build().m(), 1);
    }

    #[test]
    fn extend_edges_works() {
        let mut b = GraphBuilder::new(4);
        b.extend_edges([(0, 1), (1, 2), (2, 3)]);
        assert_eq!(b.build().m(), 3);
    }

    #[test]
    fn build_is_repeatable() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g1 = b.build();
        b.add_edge(1, 2);
        let g2 = b.build();
        assert_eq!(g1.m(), 1);
        assert_eq!(g2.m(), 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(500))]

        /// Multisets with duplicates and both orientations, including
        /// isolated nodes and empty graphs.
        #[test]
        fn build_matches_sorted_pairs(seed in 0u64..u64::MAX) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..40usize);
            let mut b = GraphBuilder::new(n);
            let mut pairs = Vec::new();
            for _ in 0..rng.gen_range(0..4 * n + 1) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u == v {
                    continue;
                }
                for _ in 0..rng.gen_range(1..4usize) {
                    let (a, c) = if rng.gen_bool(0.5) { (u, v) } else { (v, u) };
                    b.add_edge(a, c);
                    pairs.push((a, c));
                }
            }
            let g = b.build();
            let (offsets, adj) = reference_csr(n, &pairs);
            proptest::prop_assert_eq!(g.as_csr(), (&offsets[..], &adj[..]));
        }
    }

    #[test]
    fn with_capacity_builder() {
        let mut b = GraphBuilder::with_capacity(10, 20);
        assert_eq!(b.n(), 10);
        b.add_edge(0, 9);
        assert_eq!(b.build().m(), 1);
    }
}
