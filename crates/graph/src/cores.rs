//! k-core decomposition.
//!
//! The *coreness* of a node is the largest `k` such that the node survives
//! in the `k`-core (the maximal subgraph of minimum degree ≥ `k`).
//! Coreness refines the degeneracy (`max coreness = degeneracy`) and the
//! suffixes of the smallest-last ordering are exactly the cores — the
//! experiment harness uses core profiles to characterize workloads, and
//! the arboricity lower bound maximizes Nash–Williams density over cores.

use crate::graph::{Graph, NodeId, MAX_NODES};

/// The core decomposition of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreDecomposition {
    /// `coreness[v]` = largest k with `v` in the k-core.
    pub coreness: Vec<usize>,
    /// The degeneracy (= max coreness, 0 for empty graphs).
    pub degeneracy: usize,
}

impl CoreDecomposition {
    /// Nodes of the `k`-core.
    pub fn core(&self, k: usize) -> Vec<NodeId> {
        (0..self.coreness.len())
            .filter(|&v| self.coreness[v] >= k)
            .collect()
    }

    /// Membership mask of the `k`-core.
    pub fn core_mask(&self, k: usize) -> Vec<bool> {
        self.coreness.iter().map(|&c| c >= k).collect()
    }

    /// `sizes[k]` = number of nodes with coreness ≥ k, for k in
    /// `0..=degeneracy`.
    pub fn core_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.degeneracy + 1];
        for &c in &self.coreness {
            for s in sizes.iter_mut().take(c + 1) {
                *s += 1;
            }
        }
        sizes
    }
}

/// Computes coreness for every node in `O(n + m)` with the
/// Batagelj–Zaveršnik bin-sort peel ([`peel`]): a node's coreness is its
/// degree when the peel removes it. Coreness is unique, so the values
/// equal those read off any smallest-last ordering.
///
/// ```
/// use arbmis_graph::{cores, gen};
/// let g = gen::complete(5);
/// let cd = cores::core_decomposition(&g);
/// assert!(cd.coreness.iter().all(|&c| c == 4));
/// ```
pub fn core_decomposition(g: &Graph) -> CoreDecomposition {
    let (coreness, degeneracy) = peel(g);
    CoreDecomposition {
        coreness: coreness.into_iter().map(|c| c as usize).collect(),
        degeneracy,
    }
}

/// The Batagelj–Zaveršnik peel: returns every node's coreness and the
/// degeneracy (their maximum) in `O(n + m)`.
///
/// Nodes sit in `vert` sorted by current degree, `bin[d]` is where the
/// degree-`d` block starts and `pos[v]` is `v`'s slot. Taking nodes in
/// `vert` order peels a minimum-degree node each step; a neighbour `u`
/// of higher degree moves down one block by swapping with the first
/// node of its block. Four flat `u32` arrays and in-place swaps — no
/// per-bucket vectors and no removal order kept.
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_NODES`] nodes (the `u32` id space).
pub(crate) fn peel(g: &Graph) -> (Vec<u32>, usize) {
    let n = g.n();
    assert!(n <= MAX_NODES, "graph too large for u32 ids");
    let mut deg: Vec<u32> = (0..n).map(|v| g.degree(v) as u32).collect();
    let max_deg = deg.iter().copied().max().unwrap_or(0) as usize;
    // `bin[d]` = start of the degree-`d` block in `vert`.
    let mut bin = vec![0u32; max_deg + 1];
    for &d in &deg {
        bin[d as usize] += 1;
    }
    let mut start = 0u32;
    for b in &mut bin {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut pos = vec![0u32; n];
    let mut vert = vec![0u32; n];
    for v in 0..n {
        let d = deg[v] as usize;
        pos[v] = bin[d];
        vert[bin[d] as usize] = v as u32;
        bin[d] += 1;
    }
    // Filling advanced every block start to the next block's; shift back.
    for d in (1..=max_deg).rev() {
        bin[d] = bin[d - 1];
    }
    bin[0] = 0;
    let mut degeneracy = 0u32;
    for i in 0..n {
        let v = vert[i] as usize;
        let dv = deg[v];
        degeneracy = degeneracy.max(dv);
        for &u in g.neighbors(v) {
            let du = deg[u];
            if du > dv {
                // Swap `u` with the first node of its block, then shrink
                // the block past it: `u` now leads the degree-(du−1) block.
                let pu = pos[u];
                let pw = bin[du as usize];
                let w = vert[pw as usize];
                if u as u32 != w {
                    pos[u] = pw;
                    vert[pu as usize] = w;
                    pos[w as usize] = pu;
                    vert[pw as usize] = u as u32;
                }
                bin[du as usize] += 1;
                deg[u] = du - 1;
            }
        }
    }
    (deg, degeneracy as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::SeedableRng;

    #[test]
    fn path_coreness_is_one() {
        let cd = core_decomposition(&gen::path(10));
        assert!(cd.coreness.iter().all(|&c| c == 1));
        assert_eq!(cd.degeneracy, 1);
    }

    #[test]
    fn cycle_coreness_is_two() {
        let cd = core_decomposition(&gen::cycle(8));
        assert!(cd.coreness.iter().all(|&c| c == 2));
    }

    #[test]
    fn pendant_on_clique() {
        // K4 with a pendant node: clique nodes coreness 3, pendant 1.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]);
        let cd = core_decomposition(&g);
        assert_eq!(cd.coreness[4], 1);
        assert!((0..4).all(|v| cd.coreness[v] == 3));
        assert_eq!(cd.core(3).len(), 4);
        assert_eq!(cd.core(1).len(), 5);
        assert_eq!(cd.core_mask(3), vec![true, true, true, true, false]);
    }

    #[test]
    fn coreness_max_equals_degeneracy() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = gen::gnp(300, 0.05, &mut rng);
        let cd = core_decomposition(&g);
        assert_eq!(
            cd.coreness.iter().copied().max().unwrap_or(0),
            cd.degeneracy
        );
    }

    #[test]
    fn core_property_minimum_degree() {
        // Every node of the k-core has ≥ k neighbors inside the k-core.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let g = gen::gnp(200, 0.06, &mut rng);
        let cd = core_decomposition(&g);
        for k in 1..=cd.degeneracy {
            let mask = cd.core_mask(k);
            for v in 0..g.n() {
                if mask[v] {
                    let inside = g.neighbors(v).iter().filter(|&&u| mask[u]).count();
                    assert!(inside >= k, "node {v} has only {inside} in {k}-core");
                }
            }
        }
    }

    #[test]
    fn core_sizes_monotone() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = gen::random_ktree(150, 3, &mut rng);
        let cd = core_decomposition(&g);
        let sizes = cd.core_sizes();
        assert_eq!(sizes[0], 150);
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn empty_graph() {
        let cd = core_decomposition(&Graph::empty(0));
        assert_eq!(cd.degeneracy, 0);
        assert!(cd.core_sizes() == vec![0]);
    }

    /// The ordering-based decomposition the bin-sort peel replaced: peel
    /// in smallest-last order; a node's coreness is the running maximum
    /// of the remaining degree at deletion time.
    fn ordering_core_decomposition(g: &Graph) -> CoreDecomposition {
        let ord = crate::orientation::degeneracy_ordering(g);
        let n = g.n();
        let mut removed = vec![false; n];
        let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
        let mut coreness = vec![0usize; n];
        let mut current = 0usize;
        for &v in &ord.order {
            current = current.max(degree[v]);
            coreness[v] = current;
            removed[v] = true;
            for &u in g.neighbors(v) {
                if !removed[u] {
                    degree[u] -= 1;
                }
            }
        }
        CoreDecomposition {
            coreness,
            degeneracy: ord.degeneracy,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(200))]

        /// Coreness, degeneracy and core sizes of the bin-sort peel equal
        /// the ordering-based oracle on random G(n, p), Barabási–Albert,
        /// star, complete, empty and isolated-node graphs.
        #[test]
        fn peel_matches_the_ordering_oracle(seed in 0u64..u64::MAX) {
            use rand::Rng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..80usize);
            let g = match rng.gen_range(0..6u32) {
                0 => gen::gnp(n, rng.gen_range(0.0..0.4), &mut rng),
                1 => gen::barabasi_albert(n.max(4), rng.gen_range(1..4usize), &mut rng),
                2 => gen::star(n.max(1)),
                3 => gen::complete(n % 24),
                4 => Graph::empty(n),
                // Isolated nodes beside a dense part.
                _ => {
                    let dense = gen::gnp(n / 2, 0.5, &mut rng);
                    let edges: Vec<(NodeId, NodeId)> = dense.edges().collect();
                    Graph::from_edges(n, &edges)
                }
            };
            let want = ordering_core_decomposition(&g);
            let got = core_decomposition(&g);
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(got.core_sizes(), want.core_sizes());
            proptest::prop_assert_eq!(crate::arboricity::degeneracy(&g), want.degeneracy);
            // `GraphStats` reads the degeneracy off the arboricity upper bound.
            proptest::prop_assert_eq!(
                crate::stats::GraphStats::compute(&g).degeneracy,
                want.degeneracy
            );
        }
    }

    use crate::graph::Graph;
}
