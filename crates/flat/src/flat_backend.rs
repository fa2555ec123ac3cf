//! The flat engine: MIS rounds as frontier sweeps over CSR adjacency.

use crate::divergence::{self, CoinFlip};
use crate::{BackendError, FlatAlgo, MisBackend, ScanMode};
use arbmis_congest::{execute_indexed, rng, BitMask, Frontier, Parallelism};
use arbmis_core::{bounded_arb, luby, metivier, ArbParams};
use arbmis_graph::NodeId;
use arbmis_graph::{Graph, NodeOrder, Permutation};
use arbmis_obs::{FlightRecorder, Recorder, RoundRecord};

/// Shared-memory replay of the CONGEST MIS protocols.
///
/// No message objects: a round is one or two sweeps over the active set,
/// reading neighbor flags straight out of word-packed [`BitMask`]es —
/// a neighbor probe costs 1 bit of an `n/8`-byte array, and dense
/// sweeps walk 64 nodes per word via `trailing_zeros`. The sweep reads
/// either the two-level [`Frontier`] (sparse: summary-skipping) or its
/// flat word array (dense), chosen per round from the active-set
/// density — both directions visit the active nodes in ascending order,
/// so the execution is identical either way.
///
/// # Layout independence (DESIGN.md §13)
///
/// With [`with_order`](FlatBackend::with_order), the engine scans a
/// *relabeled* copy of the CSR (hubs-first or BFS-clustered) for cache
/// locality, but every coin draw is keyed by the **original** node id,
/// every tie-break compares original ids, and joiners are mapped back
/// to original ids (and re-sorted) before they are reported. The
/// permutation is an execution detail: joiner sets, round counts, the
/// final MIS, and all flight-record digests are byte-identical to the
/// unpermuted run.
///
/// # Deterministic parallelism
///
/// With [`with_threads`](FlatBackend::with_threads)` > 1`, decide and
/// bad-exit sweeps fan out over word-aligned chunks on the
/// [`execute_indexed`] work-stealing pool. Each chunk collects its
/// winners in ascending order into a private buffer; buffers are
/// concatenated in chunk index order (= ascending node order), so the
/// result is bit-identical to the serial sweep at every thread count.
/// Only the
/// single-threaded path is steady-state alloc-free.
///
/// Randomness is the counter-pure [`rng`] keyed by
/// `(seed, node, iteration, tag)`, the same draws the CONGEST protocols
/// make, which is what makes this backend round-identical to
/// [`crate::CongestBackend`].
pub struct FlatBackend<'g> {
    g: &'g Graph,
    seed: u64,
    algo: FlatAlgo,
    scan: ScanMode,
    order: NodeOrder,
    /// Relabeled execution layout; `None` runs directly on `g`.
    layout: Option<Box<Layout>>,
    /// Worker threads for the parallel sweep path (1 = serial).
    threads: usize,
    recorder: Recorder,
    flight: FlightRecorder,
    /// Injected single-coin perturbation (divergence drills); `None` in
    /// normal operation.
    coin_flip: Option<CoinFlip>,
    /// Effective sweep density of the previous round, for the
    /// `flat_scan_mode_flips` counter. Observation-only.
    last_dense: Option<bool>,
    round: u64,
    /// Nodes that have not yet halted (the simulator's `pending`).
    unfinished: usize,
    /// Active set in layout positions; its inner mask doubles as the
    /// dense word-sweep and the parallel chunking substrate.
    active: Frontier,
    active_count: usize,
    /// MIS membership, **original** id space (write-only in hot loops).
    in_mis: BitMask,
    /// Bad set (BoundedArb exiles), **original** id space.
    bad: BitMask,
    /// `active_deg[p]` = number of active neighbors of position `p`,
    /// maintained incrementally: deactivating decrements all neighbors.
    active_deg: Vec<u32>,
    /// Per-iteration priority scratch (Métivier / BoundedArb), layout
    /// positions. Stale for inactive nodes — reads are gated on active.
    prio: Vec<u64>,
    /// Per-iteration mark scratch (Luby), layout positions. Stale for
    /// inactive nodes.
    marked: BitMask,
    /// `64 - priority_bits(n)`, hoisted: [`rng::draw_priority`]
    /// recomputes a floating-point `⌈log₂ n⌉` on every draw, which the
    /// fill sweep would otherwise pay per active node per iteration.
    prio_shift: u32,
    /// Whether the protocol ever reads `active_deg` (Luby's mark
    /// probability and keys, BoundedArb's ρ_k cutoff and bad exits).
    /// Métivier does not, so its exit path skips degree maintenance —
    /// see [`deactivate_in`].
    track_deg: bool,
    /// Winners of the current iteration, ascending layout positions.
    wins: Vec<NodeId>,
    /// Joiners of the last executed round, ascending **original** ids.
    joiners: Vec<NodeId>,
    /// Deactivated but not yet halted: in the simulator these nodes halt
    /// at their next announce-type round; we retire them there so round
    /// counts match.
    retiring: Vec<NodeId>,
    /// Scratch for bad-exit violators (snapshot before exiling).
    removals: Vec<NodeId>,
    /// Per-chunk winner buffers for the parallel sweep, reused across
    /// rounds.
    chunk_bufs: Vec<Vec<NodeId>>,
    obs_flushed: bool,
}

/// A cache-aware execution layout: the permutation and the relabeled
/// CSR the hot loops actually scan.
struct Layout {
    perm: Permutation,
    pg: Graph,
}

/// Visits every active node in ascending order, dense (flat word walk)
/// or sparse (summary-skipping frontier walk).
fn sweep(dense: bool, frontier: &Frontier, mut f: impl FnMut(NodeId)) {
    if dense {
        for v in frontier.mask().iter() {
            f(v);
        }
    } else {
        for v in frontier.iter() {
            f(v);
        }
    }
}

/// Removes position `v` from the active set: clears the frontier bit,
/// decrements every neighbor's active degree (when the protocol reads
/// degrees at all), and queues `v` to halt at the next announce-type
/// round. Free function over the split-off fields so callers can hold
/// the execution graph across calls.
///
/// `track_deg = false` skips the decrement loop — over a run it is 2m
/// random u32 read-modify-writes, the single largest memory cost of the
/// exit path at large n, and Métivier never reads `active_deg`.
fn deactivate_in(
    eg: &Graph,
    active: &mut Frontier,
    active_count: &mut usize,
    active_deg: &mut [u32],
    retiring: &mut Vec<NodeId>,
    track_deg: bool,
    v: NodeId,
) {
    debug_assert!(active.contains(v));
    active.remove(v);
    *active_count -= 1;
    retiring.push(v);
    if track_deg {
        for &u in eg.neighbors(v) {
            active_deg[u] -= 1;
        }
    }
}

/// Shared pointer for disjoint-range parallel writes. Each chunk of the
/// parallel sweep writes only indices inside its own word-aligned
/// node range (or only its own per-chunk buffer slot), so no two
/// workers ever touch the same element or the same backing word.
struct ShardPtr<T>(*mut T);
unsafe impl<T: Send> Send for ShardPtr<T> {}
unsafe impl<T: Send> Sync for ShardPtr<T> {}

impl<T> ShardPtr<T> {
    /// Pointer to element `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds, and no other thread may access element
    /// `i` (or, for sub-word bit writes, its backing word) concurrently.
    unsafe fn at(&self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

impl<'g> FlatBackend<'g> {
    /// A flat backend for `algo` on `g` under `seed`, ready at round 0.
    pub fn new(g: &'g Graph, seed: u64, algo: FlatAlgo) -> Self {
        let n = g.n();
        let mut b = FlatBackend {
            g,
            seed,
            algo,
            scan: ScanMode::Auto,
            order: NodeOrder::Identity,
            layout: None,
            threads: 1,
            recorder: arbmis_obs::global(),
            flight: arbmis_obs::global_flight(),
            coin_flip: None,
            last_dense: None,
            round: 0,
            unfinished: 0,
            active: Frontier::new(n),
            active_count: 0,
            in_mis: BitMask::new(n),
            bad: BitMask::new(n),
            active_deg: vec![0; n],
            prio: vec![0; n],
            marked: BitMask::new(n),
            prio_shift: 64 - rng::priority_bits(n),
            track_deg: !matches!(algo, FlatAlgo::Metivier),
            wins: Vec::new(),
            joiners: Vec::new(),
            retiring: Vec::new(),
            removals: Vec::new(),
            chunk_bufs: Vec::new(),
            obs_flushed: false,
        };
        b.reset();
        b
    }

    /// Overrides the sweep direction (default [`ScanMode::Auto`]).
    #[must_use]
    pub fn with_scan(mut self, scan: ScanMode) -> Self {
        self.scan = scan;
        self
    }

    /// Scans in `order`'s layout (default [`NodeOrder::Identity`]).
    /// Purely an execution detail: joiners, rounds, and the MIS are
    /// byte-identical across orders (see the type-level docs).
    #[must_use]
    pub fn with_order(mut self, order: NodeOrder) -> Self {
        self.order = order;
        self.layout = match order {
            NodeOrder::Identity => None,
            _ => {
                let perm = order.permutation(self.g);
                let pg = self.g.relabel(&perm);
                Some(Box::new(Layout { perm, pg }))
            }
        };
        self.reset();
        self
    }

    /// Worker threads for the deterministic parallel sweep (default 1 =
    /// serial; results are bit-identical at every count).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Routes observability through `recorder` instead of the global one.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Routes per-round flight records through `flight` instead of the
    /// global ring.
    #[must_use]
    pub fn with_flight(mut self, flight: FlightRecorder) -> Self {
        self.flight = flight;
        self
    }

    /// The flight recorder this backend writes to.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Injects a single-coin perturbation (see [`CoinFlip`]). For
    /// divergence-tooling tests; pristine runs leave this unset.
    #[must_use]
    pub fn with_coin_flip(mut self, flip: CoinFlip) -> Self {
        self.coin_flip = Some(flip);
        self
    }

    /// The node order this backend scans in.
    pub fn order(&self) -> NodeOrder {
        self.order
    }

    /// Whether **original** node `v` is still active (nonempty at
    /// termination only for BoundedArb, whose output is not maximal).
    pub fn is_active(&self, v: NodeId) -> bool {
        let pos = match &self.layout {
            Some(l) => l.perm.new_of(v),
            None => v,
        };
        self.active.contains(pos)
    }

    /// Bad-set mask (BoundedArb's exiled nodes), original id space.
    pub fn bad(&self) -> &BitMask {
        &self.bad
    }

    /// Current number of active nodes (the frontier size).
    pub fn active_count(&self) -> usize {
        self.active_count
    }

    /// Word-aligned chunk bounds over the layout's word array, as
    /// `(word_lo, word_hi)` ranges. Word alignment makes per-chunk bit
    /// writes race-free; the chunk geometry never affects results (each
    /// chunk's output is ascending and chunks concatenate in order).
    fn word_ranges(&self) -> Vec<(usize, usize)> {
        let words = self.g.n().div_ceil(64);
        let chunks = (self.threads * 4).clamp(1, words.max(1));
        (0..chunks)
            .map(|i| (i * words / chunks, (i + 1) * words / chunks))
            .collect()
    }

    /// Grows the per-chunk winner buffers to `len` slots.
    fn ensure_chunk_bufs(&mut self, len: usize) {
        if self.chunk_bufs.len() < len {
            self.chunk_bufs.resize_with(len, Vec::new);
        }
    }

    /// Alloc-free rewind to round 0.
    fn reset(&mut self) {
        let n = self.g.n();
        self.round = 0;
        self.unfinished = n;
        self.active_count = n;
        self.obs_flushed = false;
        self.last_dense = None;
        self.active.fill();
        self.in_mis.clear_all();
        self.bad.clear_all();
        self.marked.clear_all();
        self.wins.clear();
        self.joiners.clear();
        self.retiring.clear();
        self.removals.clear();
        let eg = match &self.layout {
            Some(l) => &l.pg,
            None => self.g,
        };
        if self.track_deg {
            for (p, d) in self.active_deg.iter_mut().enumerate() {
                *d = eg.degree(p) as u32;
            }
        }
        // `prio` is intentionally left stale: every decide round writes
        // the priority of each active node before any read. `active_deg`
        // is likewise stale when the protocol never reads it.
    }

    /// Announce-type round: nodes deactivated since the previous one
    /// halt here (the simulator's `process_exits`-then-`Halt`).
    fn promote_finished(&mut self) {
        self.unfinished -= self.retiring.len();
        self.retiring.clear();
    }

    /// Phase 1 of a priority decide: draw every active node's priority,
    /// keyed by **original** id. `competitive` gates the ρ_k opt-out
    /// (BoundedArb); pass `None` for an unconditional draw.
    fn fill_prio(&mut self, tag: u64, iter: u64, rho: Option<f64>) {
        let seed = self.seed;
        let shift = self.prio_shift;
        let dense = self.scan.is_dense(self.active_count, self.g.n());
        let threads = self.threads;
        let bounds = if threads > 1 {
            self.word_ranges()
        } else {
            Vec::new()
        };
        let Self {
            layout,
            active,
            active_deg,
            prio,
            ..
        } = self;
        let to_old = layout.as_deref().map(|l| l.perm.to_old());
        let deg = &active_deg[..];
        let draw = |p: NodeId| {
            let old = to_old.map_or(p, |t| t[p]);
            let competitive = rho.is_none_or(|r| f64::from(deg[p]) <= r);
            if competitive {
                // `draw_priority` with the `priority_bits(n)` shift
                // hoisted out of the per-node loop (identical value).
                (rng::draw(seed, old, iter, tag) >> shift) | 1
            } else {
                0
            }
        };
        if threads > 1 {
            let mask = active.mask();
            let ptr = ShardPtr(prio.as_mut_ptr());
            execute_indexed(bounds.len(), Parallelism::Threads(threads), |_w, c| {
                let (wlo, whi) = bounds[c];
                for p in mask.iter_words(wlo, whi) {
                    // SAFETY: `p` lies in chunk `c`'s word range, and
                    // chunk ranges are disjoint.
                    unsafe { *ptr.at(p) = draw(p) };
                }
            });
        } else {
            sweep(dense, active, |p| prio[p] = draw(p));
        }
    }

    /// Applies an injected priority coin flip (original-id keyed) after
    /// phase 1.
    fn apply_prio_flip(&mut self, iter: u64) {
        if let Some(f) = self.coin_flip {
            if f.iteration == iter && f.node < self.g.n() {
                let pos = match &self.layout {
                    Some(l) => l.perm.new_of(f.node),
                    None => f.node,
                };
                if self.active.contains(pos) {
                    self.prio[pos] = (self.prio[pos] ^ f.xor) | 1;
                }
            }
        }
    }

    /// Phase 2 of a priority decide: winners are `(priority, original
    /// id)`-maximal among active neighbors; priority 0 (the ρ_k
    /// opt-out) never wins. Métivier priorities are never 0 (the low
    /// bit is forced), so the same scan serves both protocols.
    ///
    /// Both paths are short-circuiting `all` scans: with i.i.d.
    /// priorities, a node expects to find a beating neighbor within a
    /// couple of probes, so per-node work is far below `deg(p)` — this
    /// beats any full-per-edge scheme despite reading each edge from
    /// both sides. The parallel path splits the active words into
    /// disjoint chunks that each decide their own nodes (read-only
    /// shared state, no cross-chunk writes), so concatenating the
    /// per-chunk buffers in chunk order yields the serial winner list
    /// bit for bit.
    fn prio_win_scan(&mut self) {
        self.wins.clear();
        if self.threads > 1 {
            let bounds = self.word_ranges();
            self.ensure_chunk_bufs(bounds.len());
            let Self {
                g,
                layout,
                active,
                prio,
                chunk_bufs,
                ..
            } = self;
            let (eg, to_old) = match layout.as_deref() {
                Some(l) => (&l.pg, Some(l.perm.to_old())),
                None => (*g, None),
            };
            let old = |p: NodeId| to_old.map_or(p, |t| t[p]);
            let mask = active.mask();
            let prio = &prio[..];
            let bufs = ShardPtr(chunk_bufs.as_mut_ptr());
            execute_indexed(bounds.len(), Parallelism::Threads(self.threads), |_w, c| {
                // SAFETY: chunk `c` exclusively owns `chunk_bufs[c]`.
                let buf = unsafe { &mut *bufs.at(c) };
                buf.clear();
                let (wlo, whi) = bounds[c];
                for p in mask.iter_words(wlo, whi) {
                    let pv = prio[p];
                    if pv == 0 {
                        continue;
                    }
                    let key = (pv, old(p));
                    if eg
                        .neighbors(p)
                        .iter()
                        .all(|&u| !mask.test(u) || key > (prio[u], old(u)))
                    {
                        buf.push(p);
                    }
                }
            });
            for c in 0..bounds.len() {
                self.wins.extend_from_slice(&self.chunk_bufs[c]);
            }
        } else {
            let dense = self.scan.is_dense(self.active_count, self.g.n());
            let Self {
                g,
                layout,
                active,
                prio,
                wins,
                ..
            } = self;
            let (eg, to_old) = match layout.as_deref() {
                Some(l) => (&l.pg, Some(l.perm.to_old())),
                None => (*g, None),
            };
            let old = |p: NodeId| to_old.map_or(p, |t| t[p]);
            let prio = &prio[..];
            sweep(dense, active, |p| {
                let pv = prio[p];
                if pv == 0 {
                    return;
                }
                let key = (pv, old(p));
                if eg
                    .neighbors(p)
                    .iter()
                    .all(|&u| !active.contains(u) || key > (prio[u], old(u)))
                {
                    wins.push(p);
                }
            });
        }
    }

    /// Métivier decide: `(priority, original id)`-maximal among active
    /// neighbors.
    fn decide_metivier(&mut self, iter: u64) {
        self.fill_prio(metivier::TAG_PRIORITY, iter, None);
        self.apply_prio_flip(iter);
        self.prio_win_scan();
    }

    /// BoundedArb decide: Métivier with priority 0 (opt-out) above the
    /// ρ_k cutoff; priority-0 nodes never win.
    fn decide_arb(&mut self, params: &ArbParams, rho_cutoff: bool, scale: u32, iter: u64) {
        let rho = rho_cutoff.then(|| params.rho(scale));
        self.fill_prio(bounded_arb::TAG_PRIORITY, iter, rho);
        self.apply_prio_flip(iter);
        self.prio_win_scan();
    }

    /// Luby decide: marked with `P = 1/2d`, `(degree, original id)`-
    /// maximal among marked active neighbors; degree-0 nodes join
    /// outright. Same short-circuit / chunked structure as the priority
    /// scan, with the mark bit standing in for a nonzero priority.
    fn decide_luby(&mut self, iter: u64) {
        let n = self.g.n();
        let seed = self.seed;
        let flip = self.coin_flip;
        let dense = self.scan.is_dense(self.active_count, n);
        let threads = self.threads;
        let bounds = if threads > 1 {
            self.word_ranges()
        } else {
            Vec::new()
        };
        // Phase 1: mark flips, keyed by original id.
        {
            let Self {
                layout,
                active,
                active_deg,
                marked,
                ..
            } = self;
            let to_old = layout.as_deref().map(|l| l.perm.to_old());
            let deg = &active_deg[..];
            let mark = |p: NodeId| {
                let d = deg[p] as usize;
                let old = to_old.map_or(p, |t| t[p]);
                d > 0 && luby::is_marked(seed, old, iter, d)
            };
            if threads > 1 {
                let mask = active.mask();
                let ptr = ShardPtr(marked.words_mut().as_mut_ptr());
                execute_indexed(bounds.len(), Parallelism::Threads(threads), |_w, c| {
                    let (wlo, whi) = bounds[c];
                    for p in mask.iter_words(wlo, whi) {
                        let bit = 1u64 << (p & 63);
                        // SAFETY: word `p >> 6` lies in chunk `c`'s
                        // word range, and chunk ranges are disjoint, so
                        // this read-modify-write is unshared.
                        unsafe {
                            let w = ptr.at(p >> 6);
                            if mark(p) {
                                *w |= bit;
                            } else {
                                *w &= !bit;
                            }
                        }
                    }
                });
            } else {
                sweep(dense, active, |p| {
                    if mark(p) {
                        marked.set(p);
                    } else {
                        marked.clear(p);
                    }
                });
            }
        }
        if let Some(f) = flip {
            if f.iteration == iter && f.xor != 0 && f.node < n {
                let pos = match &self.layout {
                    Some(l) => l.perm.new_of(f.node),
                    None => f.node,
                };
                if self.active.contains(pos) && self.active_deg[pos] > 0 {
                    if self.marked.test(pos) {
                        self.marked.clear(pos);
                    } else {
                        self.marked.set(pos);
                    }
                }
            }
        }
        // Phase 2: competition among marked nodes.
        self.wins.clear();
        if threads > 1 {
            self.ensure_chunk_bufs(bounds.len());
            let Self {
                g,
                layout,
                active,
                active_deg,
                marked,
                chunk_bufs,
                ..
            } = self;
            let (eg, to_old) = match layout.as_deref() {
                Some(l) => (&l.pg, Some(l.perm.to_old())),
                None => (*g, None),
            };
            let old = |p: NodeId| to_old.map_or(p, |t| t[p]);
            let mask = active.mask();
            let (deg, marked) = (&active_deg[..], &*marked);
            let bufs = ShardPtr(chunk_bufs.as_mut_ptr());
            execute_indexed(bounds.len(), Parallelism::Threads(threads), |_w, c| {
                // SAFETY: chunk `c` exclusively owns `chunk_bufs[c]`.
                let buf = unsafe { &mut *bufs.at(c) };
                buf.clear();
                let (wlo, whi) = bounds[c];
                for p in mask.iter_words(wlo, whi) {
                    let d = deg[p];
                    let win = if d == 0 {
                        true
                    } else if marked.test(p) {
                        let key = (u64::from(d), old(p));
                        eg.neighbors(p).iter().all(|&u| {
                            !mask.test(u) || !marked.test(u) || (u64::from(deg[u]), old(u)) < key
                        })
                    } else {
                        false
                    };
                    if win {
                        buf.push(p);
                    }
                }
            });
            for c in 0..bounds.len() {
                self.wins.extend_from_slice(&self.chunk_bufs[c]);
            }
        } else {
            let Self {
                g,
                layout,
                active,
                active_deg,
                marked,
                wins,
                ..
            } = self;
            let (eg, to_old) = match layout.as_deref() {
                Some(l) => (&l.pg, Some(l.perm.to_old())),
                None => (*g, None),
            };
            let old = |p: NodeId| to_old.map_or(p, |t| t[p]);
            let (deg, marked) = (&active_deg[..], &*marked);
            sweep(dense, active, |p| {
                let d = deg[p];
                let win = if d == 0 {
                    true
                } else if marked.test(p) {
                    let key = (u64::from(d), old(p));
                    eg.neighbors(p).iter().all(|&u| {
                        !active.contains(u) || !marked.test(u) || (u64::from(deg[u]), old(u)) < key
                    })
                } else {
                    false
                };
                if win {
                    wins.push(p);
                }
            });
        }
    }

    /// Exit round: winners join the MIS; winners and their dominated
    /// active neighbors leave the active set. Joiners are reported in
    /// **original** ids, re-sorted when a layout reordered the wins.
    fn exit_step(&mut self) {
        let wins = std::mem::take(&mut self.wins);
        {
            let Self {
                g,
                layout,
                active,
                active_count,
                active_deg,
                retiring,
                in_mis,
                track_deg,
                ..
            } = self;
            let track_deg = *track_deg;
            let (eg, to_old) = match layout.as_deref() {
                Some(l) => (&l.pg, Some(l.perm.to_old())),
                None => (*g, None),
            };
            for &w in &wins {
                in_mis.set(to_old.map_or(w, |t| t[w]));
                deactivate_in(eg, active, active_count, active_deg, retiring, track_deg, w);
                for &u in eg.neighbors(w) {
                    if active.contains(u) {
                        deactivate_in(eg, active, active_count, active_deg, retiring, track_deg, u);
                    }
                }
            }
            self.joiners.clear();
            match to_old {
                None => self.joiners.extend_from_slice(&wins),
                Some(t) => {
                    self.joiners.extend(wins.iter().map(|&w| t[w]));
                    self.joiners.sort_unstable();
                }
            }
        }
        self.wins = wins;
    }

    /// Scale-end bad exits: a node with too many high-degree active
    /// neighbors is exiled to the bad set. Violators are collected from
    /// a consistent snapshot before any of them is removed, matching the
    /// protocol (every node judges the degrees announced one round
    /// earlier).
    fn bad_exits(&mut self, params: &ArbParams, scale: u32) {
        let n = self.g.n();
        let dense = self.scan.is_dense(self.active_count, n);
        let hd = params.high_degree_threshold(scale);
        let bad_thr = params.bad_threshold(scale);
        let threads = self.threads;
        self.removals.clear();
        let violates = |eg: &Graph, mask: &BitMask, deg: &[u32], p: NodeId| {
            let mut high = 0u64;
            for &u in eg.neighbors(p) {
                if mask.test(u) && f64::from(deg[u]) > hd {
                    high += 1;
                }
            }
            high as f64 > bad_thr
        };
        if threads > 1 {
            let bounds = self.word_ranges();
            self.ensure_chunk_bufs(bounds.len());
            {
                let Self {
                    g,
                    layout,
                    active,
                    active_deg,
                    chunk_bufs,
                    ..
                } = self;
                let eg = match layout.as_deref() {
                    Some(l) => &l.pg,
                    None => *g,
                };
                let mask = active.mask();
                let deg = &active_deg[..];
                let bufs = ShardPtr(chunk_bufs.as_mut_ptr());
                execute_indexed(bounds.len(), Parallelism::Threads(threads), |_w, c| {
                    // SAFETY: chunk `c` exclusively owns `chunk_bufs[c]`.
                    let buf = unsafe { &mut *bufs.at(c) };
                    buf.clear();
                    let (wlo, whi) = bounds[c];
                    for p in mask.iter_words(wlo, whi) {
                        if violates(eg, mask, deg, p) {
                            buf.push(p);
                        }
                    }
                });
            }
            for c in 0..bounds.len() {
                self.removals.extend_from_slice(&self.chunk_bufs[c]);
            }
        } else {
            let Self {
                g,
                layout,
                active,
                active_deg,
                removals,
                ..
            } = self;
            let eg = match layout.as_deref() {
                Some(l) => &l.pg,
                None => *g,
            };
            let deg = &active_deg[..];
            sweep(dense, active, |p| {
                if violates(eg, active.mask(), deg, p) {
                    removals.push(p);
                }
            });
        }
        let removals = std::mem::take(&mut self.removals);
        {
            let Self {
                g,
                layout,
                active,
                active_count,
                active_deg,
                retiring,
                bad,
                ..
            } = self;
            let (eg, to_old) = match layout.as_deref() {
                Some(l) => (&l.pg, Some(l.perm.to_old())),
                None => (*g, None),
            };
            for &p in &removals {
                bad.set(to_old.map_or(p, |t| t[p]));
                // Bad exits only happen under BoundedArb, which always
                // tracks degrees.
                deactivate_in(eg, active, active_count, active_deg, retiring, true, p);
            }
        }
        self.removals = removals;
    }

    /// Schedule end: every remaining node (retiring or residual active)
    /// halts in this single round.
    fn finish_all(&mut self) {
        self.unfinished = 0;
        self.retiring.clear();
    }

    /// One Luby/Métivier round on the 3-sub-round iteration timeline.
    fn step_fast3(&mut self) {
        match self.round % 3 {
            0 => self.promote_finished(),
            1 => {
                let iter = self.round / 3;
                match self.algo {
                    FlatAlgo::Luby => self.decide_luby(iter),
                    _ => self.decide_metivier(iter),
                }
            }
            _ => self.exit_step(),
        }
    }

    /// One BoundedArb round on the oblivious `Θ × (3Λ + 2)` schedule.
    fn step_arb(&mut self, params: ArbParams, rho_cutoff: bool) {
        let rps = 3 * params.lambda + bounded_arb::ROUNDS_PER_SCALE_END;
        let total = u64::from(params.theta) * rps;
        let r = self.round;
        if r >= total {
            self.finish_all();
            return;
        }
        let scale = (r / rps) as u32 + 1;
        let within = r % rps;
        let lam3 = 3 * params.lambda;
        if within < lam3 {
            match within % 3 {
                0 => self.promote_finished(),
                1 => {
                    let iter = u64::from(scale - 1) * params.lambda + within / 3;
                    self.decide_arb(&params, rho_cutoff, scale, iter);
                }
                _ => self.exit_step(),
            }
        } else if within == lam3 {
            self.promote_finished();
        } else {
            self.bad_exits(&params, scale);
        }
    }
}

impl MisBackend for FlatBackend<'_> {
    fn init(&mut self) {
        self.reset();
    }

    fn step_round(&mut self) -> Result<(), BackendError> {
        debug_assert!(!self.is_done(), "step_round called after completion");
        let entering = self.active_count;
        // The single density decision for this round (ScanMode::is_dense
        // is the one shared derivation — the flight-row label and every
        // sweep agree by construction). Sweeps never change the active
        // set mid-round (only exit/bad-exit steps shrink it, and they
        // run after their sweeps), so the density chosen at round entry
        // is the one every sweep in the round uses.
        let dense = self.scan.is_dense(entering, self.g.n());
        if self.recorder.enabled() {
            self.recorder
                .observe("flat_round_frontier", entering as u64);
            if self.last_dense.is_some_and(|prev| prev != dense) {
                self.recorder.add("flat_scan_mode_flips", 1);
            }
        }
        self.last_dense = Some(dense);
        // Coin digest of the round about to execute (needs the active
        // set *entering* the round, in original id space). Pure RNG
        // replay — observation only.
        let coin_digest = if self.flight.enabled() {
            divergence::coin_digest(
                &self.algo,
                self.seed,
                self.g.n(),
                self.round,
                |v| self.is_active(v),
                self.coin_flip,
            )
        } else {
            0
        };
        self.joiners.clear();
        match self.algo {
            FlatAlgo::Luby | FlatAlgo::Metivier => self.step_fast3(),
            FlatAlgo::BoundedArb { params, rho_cutoff } => self.step_arb(params, rho_cutoff),
        }
        self.round += 1;
        if self.flight.enabled() {
            self.flight.record(RoundRecord {
                engine: "flat",
                round: self.round - 1,
                frontier: entering as u64,
                joiners: self.joiners.len() as u64,
                joiner_digest: divergence::joiner_digest(&self.joiners),
                coin_digest,
                messages: 0,
                bits: 0,
                scan: if dense { "dense" } else { "sparse" },
                span_seq: self.recorder.seq(),
            });
        }
        if self.unfinished == 0 && !self.obs_flushed {
            self.obs_flushed = true;
            if self.recorder.enabled() {
                self.recorder.add("flat_runs", 1);
                self.recorder.add("flat_rounds", self.round);
            }
        }
        Ok(())
    }

    fn joiners(&self) -> &[NodeId] {
        &self.joiners
    }

    fn is_done(&self) -> bool {
        self.unfinished == 0
    }

    fn mis(&self) -> &BitMask {
        &self.in_mis
    }

    fn round(&self) -> u64 {
        self.round
    }
}
