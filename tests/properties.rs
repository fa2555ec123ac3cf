//! Property-based integration tests (proptest): algorithm correctness and
//! substrate invariants over arbitrary random graphs.

use arbmis::congest::message::{self, DecodeError, Message};
use arbmis::congest::{Inbox, NodeInfo, Outgoing, Protocol, Simulator, SimulatorError};
use arbmis::core::protocols::MisMsg;
use arbmis::core::{arb_mis, check_mis, ghaffari, greedy, luby, metivier, ArbMisConfig};
use arbmis::graph::orientation::{degeneracy_ordering, Orientation};
use arbmis::graph::{arboricity, forest, gen, props, traversal, Graph};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Strategy: an arbitrary simple graph from a random edge list.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m).prop_map(move |pairs| {
            let mut b = arbmis::graph::GraphBuilder::new(n);
            for (u, v) in pairs {
                b.try_add_edge(u, v);
            }
            b.build()
        })
    })
}

/// Strategy: an arbitrary simple graph on 1–64 nodes (single-node
/// graphs included — the backend contract covers them) for the backend
/// equivalence properties.
fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (1usize..=64).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..3 * n).prop_map(move |pairs| {
            let mut b = arbmis::graph::GraphBuilder::new(n);
            for (u, v) in pairs {
                b.try_add_edge(u, v);
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_graphs_are_well_formed(g in arb_graph(60, 200)) {
        prop_assert!(props::check_well_formed(&g).is_ok());
    }

    #[test]
    fn greedy_produces_mis(g in arb_graph(60, 200)) {
        prop_assert!(check_mis(&g, &greedy::greedy_mis(&g)).is_ok());
    }

    #[test]
    fn metivier_produces_mis(g in arb_graph(60, 200), seed in 0u64..1000) {
        prop_assert!(check_mis(&g, &metivier::run(&g, seed).in_mis).is_ok());
    }

    #[test]
    fn luby_produces_mis(g in arb_graph(50, 150), seed in 0u64..1000) {
        prop_assert!(check_mis(&g, &luby::run(&g, seed).in_mis).is_ok());
    }

    #[test]
    fn ghaffari_produces_mis(g in arb_graph(40, 120), seed in 0u64..1000) {
        prop_assert!(check_mis(&g, &ghaffari::run(&g, seed).in_mis).is_ok());
    }

    #[test]
    fn arbmis_produces_mis(g in arb_graph(40, 100), seed in 0u64..1000) {
        // Use a certified arboricity upper bound (degeneracy).
        let alpha = arboricity::degeneracy(&g).max(1);
        let out = arb_mis(&g, &ArbMisConfig::new(alpha, seed));
        prop_assert!(check_mis(&g, &out.in_mis).is_ok());
    }

    #[test]
    fn degeneracy_ordering_invariants(g in arb_graph(60, 250)) {
        let ord = degeneracy_ordering(&g);
        // Every node has ≤ degeneracy later-ordered neighbors.
        for (i, &v) in ord.order.iter().enumerate() {
            let later = g.neighbors(v).iter().filter(|&&u| ord.position[u] > i).count();
            prop_assert!(later <= ord.degeneracy);
        }
        // Degeneracy is at least half the max density bound.
        prop_assert!(ord.degeneracy >= arboricity::density_lower_bound(&g).saturating_sub(1) / 2);
    }

    #[test]
    fn orientation_invariants(g in arb_graph(60, 250)) {
        let o = Orientation::by_degeneracy(&g);
        prop_assert!(o.covers(&g));
        prop_assert!(o.is_acyclic());
        prop_assert!(o.max_out_degree() <= degeneracy_ordering(&g).degeneracy);
        // Parent/child views are mutually consistent.
        for v in g.nodes() {
            for &p in o.parents(v) {
                prop_assert!(o.children(p).contains(&v));
            }
        }
    }

    #[test]
    fn forest_decomposition_invariants(g in arb_graph(50, 200)) {
        let forests = forest::forests_by_degeneracy(&g);
        let total: usize = forests.iter().map(|f| f.edge_count()).sum();
        prop_assert_eq!(total, g.m());
        for f in &forests {
            prop_assert!(f.is_acyclic());
            prop_assert!(traversal::is_forest(&f.to_graph()));
        }
    }

    #[test]
    fn components_partition_nodes(g in arb_graph(60, 200)) {
        let comps = traversal::connected_components(&g);
        let sizes = comps.sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), g.n());
        // Adjacent nodes always share a component.
        for (u, v) in g.edges() {
            prop_assert_eq!(comps.label(u), comps.label(v));
        }
    }

    #[test]
    fn two_mis_runs_may_differ_but_both_valid(g in arb_graph(40, 120)) {
        let a = metivier::run(&g, 1).in_mis;
        let b = metivier::run(&g, 2).in_mis;
        prop_assert!(check_mis(&g, &a).is_ok());
        prop_assert!(check_mis(&g, &b).is_ok());
    }

    #[test]
    fn induced_subgraph_roundtrip(g in arb_graph(50, 150), mask_seed in 0u64..100) {
        let mask: Vec<bool> = (0..g.n())
            .map(|v| arbmis::congest::rng::draw_bool(mask_seed, v, 0, 0, 0.6))
            .collect();
        let sub = arbmis::graph::InducedSubgraph::new(&g, &mask);
        // Every subgraph edge maps to a parent edge and vice versa.
        for (a, b) in sub.graph().edges() {
            prop_assert!(g.has_edge(sub.to_parent(a), sub.to_parent(b)));
        }
        let expected: usize = g
            .edges()
            .filter(|&(u, v)| mask[u] && mask[v])
            .count();
        prop_assert_eq!(sub.graph().m(), expected);
    }
}

// ------------------------------------------------------- backend contract

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// DESIGN.md §11 property 1: whatever the backend and scan mode, the
    /// output is a maximal independent set.
    #[test]
    fn every_backend_output_is_a_valid_mis(g in arbitrary_graph(), seed in 0u64..1000) {
        use arbmis::core::is_valid_mis;
        use arbmis::flat::{CongestBackend, FlatAlgo, FlatBackend, MisBackend, ScanMode};
        for algo in [FlatAlgo::Luby, FlatAlgo::Metivier] {
            for scan in [ScanMode::Auto, ScanMode::Sparse, ScanMode::Dense] {
                let mut b = FlatBackend::new(&g, seed, algo).with_scan(scan);
                b.run(100_000).unwrap();
                prop_assert!(is_valid_mis(&g, &b.mis().to_bools()), "flat {algo:?} {scan:?}");
            }
            let mut b = CongestBackend::new(&g, seed, algo);
            b.run(100_000).unwrap();
            prop_assert!(is_valid_mis(&g, &b.mis().to_bools()), "congest {algo:?}");
        }
    }

    /// DESIGN.md §11 property 2: flat and congest agree on the joiner
    /// set at every round index, not just the final mask.
    #[test]
    fn flat_and_congest_joiners_agree_round_by_round(
        g in arbitrary_graph(),
        seed in 0u64..1000,
    ) {
        use arbmis::flat::{CongestBackend, FlatAlgo, FlatBackend, MisBackend};
        for algo in [FlatAlgo::Luby, FlatAlgo::Metivier] {
            let mut flat = FlatBackend::new(&g, seed, algo);
            let mut congest = CongestBackend::new(&g, seed, algo);
            flat.init();
            congest.init();
            while !flat.is_done() || !congest.is_done() {
                prop_assert!(
                    flat.is_done() == congest.is_done(),
                    "done flags diverge at round {}",
                    flat.round()
                );
                prop_assert!(flat.round() < 100_000);
                flat.step_round().unwrap();
                congest.step_round().unwrap();
                prop_assert!(
                    flat.joiners() == congest.joiners(),
                    "{:?} joiners diverge at round {}",
                    algo,
                    flat.round() - 1
                );
            }
            prop_assert_eq!(flat.round(), congest.round());
            prop_assert_eq!(flat.mis(), congest.mis());
        }
    }
}

// ------------------------------------------------- bit-packed substrate

/// Strategy: a size plus an operation tape over `0..n` for the
/// [`BitMask`]-vs-`Vec<bool>` model check.
fn arb_mask_ops() -> impl Strategy<Value = (usize, Vec<(u8, usize)>)> {
    (1usize..=300).prop_flat_map(|n| (Just(n), proptest::collection::vec((0u8..2, 0..n), 0..4 * n)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The word-packed [`BitMask`] is observationally equivalent to a
    /// `Vec<bool>` model: after any tape of set/clear operations, the
    /// per-bit tests, the population count, the word-level iterator,
    /// and any word-range slice of it all agree with the model.
    #[test]
    fn bitmask_matches_bool_vec_model(case in arb_mask_ops(), range_seed in 0usize..97) {
        use arbmis::congest::BitMask;
        let (n, ops) = case;
        let mut mask = BitMask::new(n);
        let mut model = vec![false; n];
        for (op, v) in ops {
            if op == 0 {
                mask.set(v);
                model[v] = true;
            } else {
                mask.clear(v);
                model[v] = false;
            }
        }
        prop_assert!(mask == model[..], "bitwise equality");
        for (v, &b) in model.iter().enumerate() {
            prop_assert_eq!(mask.test(v), b);
        }
        prop_assert_eq!(mask.count_ones(), model.iter().filter(|&&b| b).count());
        let expect: Vec<usize> = (0..n).filter(|&v| model[v]).collect();
        prop_assert_eq!(mask.iter().collect::<Vec<_>>(), expect.clone());
        // An arbitrary word-range slice of the iterator agrees too.
        let nwords = n.div_ceil(64);
        let wlo = range_seed % (nwords + 1);
        let whi = nwords.min(wlo + 1 + range_seed % 3);
        let in_range: Vec<usize> = expect
            .iter()
            .copied()
            .filter(|&v| v / 64 >= wlo && v / 64 < whi)
            .collect();
        prop_assert_eq!(mask.iter_words(wlo, whi).collect::<Vec<_>>(), in_range);
        // Round-tripping through bools is the identity.
        prop_assert_eq!(BitMask::from_bools(&mask.to_bools()), mask);
    }

    /// Permutations invert exactly: `new∘old = old∘new = id`, for every
    /// ordering strategy on an arbitrary graph.
    #[test]
    fn permutation_roundtrip(g in arbitrary_graph()) {
        use arbmis::graph::NodeOrder;
        for order in [NodeOrder::Identity, NodeOrder::Degree, NodeOrder::Bfs] {
            let p = order.permutation(&g);
            prop_assert_eq!(p.n(), g.n());
            for v in 0..g.n() {
                prop_assert_eq!(p.new_of(p.old_of(v)), v);
                prop_assert_eq!(p.old_of(p.new_of(v)), v);
            }
        }
    }

    /// DESIGN.md §13: a permuted flat run's joiner sets (already mapped
    /// back to original ids by the engine) equal the unpermuted run's at
    /// every round, for every layout.
    #[test]
    fn permuted_runs_report_identical_joiners(g in arbitrary_graph(), seed in 0u64..500) {
        use arbmis::flat::{FlatAlgo, FlatBackend, MisBackend};
        use arbmis::graph::NodeOrder;
        for algo in [FlatAlgo::Luby, FlatAlgo::Metivier] {
            let mut base = FlatBackend::new(&g, seed, algo);
            let mut permuted: Vec<FlatBackend> = [NodeOrder::Degree, NodeOrder::Bfs]
                .iter()
                .map(|&o| FlatBackend::new(&g, seed, algo).with_order(o))
                .collect();
            base.init();
            for p in &mut permuted {
                p.init();
            }
            while !base.is_done() {
                prop_assert!(base.round() < 100_000);
                base.step_round().unwrap();
                for p in &mut permuted {
                    p.step_round().unwrap();
                    prop_assert!(
                        p.joiners() == base.joiners(),
                        "{} order {} joiners diverge at round {}",
                        algo.label(),
                        p.order().label(),
                        base.round() - 1
                    );
                }
            }
            for p in &permuted {
                prop_assert!(p.is_done());
                prop_assert_eq!(p.mis(), base.mis());
                prop_assert_eq!(p.round(), base.round());
            }
        }
    }
}

// ------------------------------------------------------------ wire format

/// Strategy: an arbitrary [`MisMsg`] across all six variants.
fn arb_mis_msg() -> impl Strategy<Value = MisMsg> {
    (0u8..6, 0u64..u64::MAX, 0u32..u32::MAX, 0u8..2).prop_map(|(tag, x, e, f)| {
        let flag = f == 1;
        match tag {
            0 => MisMsg::Priority(x),
            1 => MisMsg::LubyMark {
                degree: x,
                marked: flag,
            },
            2 => MisMsg::GhaffariMark {
                exponent: e,
                marked: flag,
            },
            3 => MisMsg::Join(flag),
            4 => MisMsg::Exit(flag),
            _ => MisMsg::Degree(x),
        }
    })
}

fn roundtrips<M: Message + PartialEq>(m: &M) -> Result<(), TestCaseError> {
    let mut buf = Vec::new();
    m.encode(&mut buf);
    let decoded = M::decode_all(&buf);
    prop_assert_eq!(decoded.as_ref(), Ok(m));
    prop_assert_eq!(m.bit_size(), buf.len() * 8);
    // `decode` consumes exactly the encoding even with bytes appended.
    buf.push(0xAB);
    let mut cursor: &[u8] = &buf;
    let back = M::decode(&mut cursor).expect("decode with trailing byte");
    prop_assert_eq!(&back, m);
    prop_assert_eq!(cursor, &[0xAB][..]);
    Ok(())
}

/// A message whose declared size is an arbitrary *bit* count — lets the
/// budget-boundary property probe `16·⌈log₂ n⌉` exactly, not just at
/// whole-byte granularity.
#[derive(Clone, Debug, PartialEq)]
struct RawBits {
    bits: usize,
}

impl Message for RawBits {
    fn encode(&self, buf: &mut Vec<u8>) {
        message::put_varint(buf, self.bits as u64);
        buf.resize(buf.len() + self.bits.div_ceil(8), 0);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let bits = usize::try_from(message::get_varint(buf)?)
            .map_err(|_| DecodeError::Invalid("bit count overflows usize"))?;
        let bytes = bits.div_ceil(8);
        if buf.len() < bytes {
            return Err(DecodeError::UnexpectedEof);
        }
        *buf = &buf[bytes..];
        Ok(RawBits { bits })
    }

    fn bit_size(&self) -> usize {
        self.bits
    }
}

/// Broadcasts one [`RawBits`] message per node, then halts.
struct OneShot {
    bits: usize,
}

impl Protocol for OneShot {
    type State = bool;
    type Msg = RawBits;

    fn init(&self, _node: &NodeInfo) -> bool {
        false
    }

    fn round(
        &self,
        sent: &mut bool,
        _node: &NodeInfo,
        _inbox: &Inbox<RawBits>,
    ) -> Outgoing<RawBits> {
        if *sent {
            Outgoing::Halt
        } else {
            *sent = true;
            Outgoing::Broadcast(RawBits { bits: self.bits })
        }
    }

    fn is_done(&self, sent: &bool) -> bool {
        *sent
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mis_msg_decode_inverts_encode(m in arb_mis_msg()) {
        roundtrips(&m)?;
    }

    #[test]
    fn primitive_messages_roundtrip(x in 0u64..u64::MAX, y in 0u32..u32::MAX, f in 0u8..2) {
        let flag = f == 1;
        roundtrips(&x)?;
        roundtrips(&y)?;
        roundtrips(&flag)?;
        roundtrips(&(x, y))?;
        roundtrips(&Some(x))?;
        roundtrips(&Option::<u64>::None)?;
        roundtrips(&(flag, Some((x, y))))?;
    }

    #[test]
    fn truncated_encodings_never_decode(m in arb_mis_msg()) {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        // Every strict prefix must fail — no encoding is a prefix of
        // another variant's (self-delimiting wire format).
        for cut in 0..buf.len() {
            prop_assert!(MisMsg::decode_all(&buf[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bandwidth_budget_boundary(n in 2usize..600, seed in 0u64..20) {
        let g = gen::path(n);
        let sim = Simulator::new(&g, seed);
        let budget = sim.budget_bits().unwrap();
        let logn = ((n.max(2) as f64).log2().ceil() as usize).max(1);
        // Budget is 16·⌈log₂ n⌉ bits.
        prop_assert_eq!(budget, 16 * logn);

        // Exactly at the budget: accepted.
        prop_assert!(sim.run(&OneShot { bits: budget }, 4).is_ok());
        // One bit over: rejected, and the error reports the exact sizes.
        match sim.run(&OneShot { bits: budget + 1 }, 4) {
            Err(SimulatorError::BandwidthExceeded { bits, budget: b, .. }) => {
                prop_assert_eq!(bits, budget + 1);
                prop_assert_eq!(b, budget);
            }
            other => return Err(TestCaseError::fail(format!("expected BandwidthExceeded, got {other:?}"))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cole_vishkin_colors_random_forests(n in 2usize..300, seed in 0u64..50) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = gen::random_forest(n, 0.8, &mut rng);
        for f in forest::forests_by_degeneracy(&g) {
            let c = arbmis::core::cole_vishkin::cv_color_to_three(&f);
            prop_assert!(arbmis::core::cole_vishkin::is_proper_forest_coloring(&f, &c.colors));
            prop_assert!(c.colors.iter().all(|&x| x < 3));
        }
    }
}
