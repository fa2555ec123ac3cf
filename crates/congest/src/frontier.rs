//! Sparse active-set bookkeeping for the round engine and the flat engine.
//!
//! A [`Frontier`] is a two-level bitset over node ids: a packed
//! [`BitMask`] (one word per 64 nodes) plus a summary word per 64 words,
//! so membership updates are O(1), iteration is ascending and
//! proportional to the set bits (plus `n/4096` summary words), and
//! clearing only touches dirty words. The round engine double-buffers
//! two of these per round — see DESIGN.md §10. The flat engine
//! additionally reads the inner mask directly ([`Frontier::mask`]) for
//! dense word-level sweeps and word-aligned parallel chunking.

use crate::bitmask::BitMask;
use arbmis_graph::NodeId;

/// A two-level bitset over `0..n` with ascending iteration.
#[derive(Clone, Debug)]
pub struct Frontier {
    /// The membership bits; bit `v % 64` of word `v / 64` ⇔ `v` is set.
    mask: BitMask,
    /// Bit `w % 64` of `summary[w / 64]` ⇔ `mask.words()[w] != 0`.
    summary: Vec<u64>,
}

impl Frontier {
    /// An empty set over `0..n`.
    pub fn new(n: usize) -> Self {
        let nwords = n.div_ceil(64);
        Frontier {
            mask: BitMask::new(n),
            summary: vec![0; nwords.div_ceil(64)],
        }
    }

    /// Inserts `v` (idempotent).
    #[inline]
    pub fn insert(&mut self, v: NodeId) {
        self.mask.set(v);
        let w = v >> 6;
        self.summary[w >> 6] |= 1u64 << (w & 63);
    }

    /// Removes `v` (idempotent).
    #[inline]
    pub fn remove(&mut self, v: NodeId) {
        self.mask.clear(v);
        let w = v >> 6;
        if self.mask.words()[w] == 0 {
            self.summary[w >> 6] &= !(1u64 << (w & 63));
        }
    }

    /// Whether `v` is in the set.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.mask.test(v)
    }

    /// The packed membership mask (for dense word-level sweeps).
    #[inline]
    pub fn mask(&self) -> &BitMask {
        &self.mask
    }

    /// Sets every bit in `0..n` in bulk (word fills, no per-node loop).
    pub fn fill(&mut self) {
        self.mask.set_all();
        let nwords = self.mask.words().len();
        self.summary.fill(u64::MAX);
        let tail = nwords & 63;
        if tail != 0 {
            *self.summary.last_mut().expect("tail implies a word") = (1u64 << tail) - 1;
        }
        if nwords == 0 {
            self.summary.fill(0);
        }
    }

    /// Calls `f` with each word index that currently holds set bits, in
    /// ascending order. This is the summary-walk [`clear`](Self::clear)
    /// uses; scratch masks that shadow a frontier (the flat engine's
    /// defeat mask) reuse it to reset only the words a sweep can touch.
    pub fn for_each_dirty_word(&self, mut f: impl FnMut(usize)) {
        for (s, &sw) in self.summary.iter().enumerate() {
            let mut sbits = sw;
            while sbits != 0 {
                let w = (s << 6) + sbits.trailing_zeros() as usize;
                sbits &= sbits - 1;
                f(w);
            }
        }
    }

    /// Empties the set, touching only dirty words.
    pub fn clear(&mut self) {
        let words = self.mask.words_mut();
        for (s, &sw) in self.summary.iter().enumerate() {
            let mut sbits = sw;
            while sbits != 0 {
                let w = (s << 6) + sbits.trailing_zeros() as usize;
                sbits &= sbits - 1;
                words[w] = 0;
            }
        }
        self.summary.fill(0);
    }

    /// Iterates members in ascending order. The set must not be mutated
    /// while the iterator is live (enforced by the borrow).
    pub fn iter(&self) -> FrontierIter<'_> {
        FrontierIter {
            frontier: self,
            sidx: 0,
            sbits: self.summary.first().copied().unwrap_or(0),
            widx: 0,
            wbits: 0,
        }
    }
}

/// Ascending iterator over a [`Frontier`].
pub struct FrontierIter<'a> {
    frontier: &'a Frontier,
    /// Current summary word index.
    sidx: usize,
    /// Unconsumed bits of `summary[sidx]`.
    sbits: u64,
    /// Current word index (valid while `wbits != 0`).
    widx: usize,
    /// Unconsumed bits of `words[widx]`.
    wbits: u64,
}

impl Iterator for FrontierIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.wbits != 0 {
                let v = (self.widx << 6) + self.wbits.trailing_zeros() as usize;
                self.wbits &= self.wbits - 1;
                return Some(v);
            }
            if self.sbits != 0 {
                self.widx = (self.sidx << 6) + self.sbits.trailing_zeros() as usize;
                self.sbits &= self.sbits - 1;
                self.wbits = self.frontier.mask.words()[self.widx];
                continue;
            }
            self.sidx += 1;
            if self.sidx >= self.frontier.summary.len() {
                return None;
            }
            self.sbits = self.frontier.summary[self.sidx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_iterate() {
        let mut f = Frontier::new(300);
        for v in [0, 1, 63, 64, 65, 200, 299] {
            f.insert(v);
        }
        f.insert(65); // idempotent
        assert!(f.contains(65));
        f.remove(65);
        f.remove(65); // idempotent
        assert!(!f.contains(65));
        let got: Vec<usize> = f.iter().collect();
        assert_eq!(got, vec![0, 1, 63, 64, 200, 299]);
    }

    #[test]
    fn clear_empties_and_reuses() {
        let mut f = Frontier::new(10_000);
        for v in (0..10_000).step_by(97) {
            f.insert(v);
        }
        f.clear();
        assert_eq!(f.iter().count(), 0);
        f.insert(9_999);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![9_999]);
    }

    #[test]
    fn ascending_order_matches_reference_across_patterns() {
        // Dense, sparse, and word-boundary patterns against a Vec model.
        for (n, step) in [(1, 1), (64, 1), (65, 2), (4096, 31), (5000, 1)] {
            let mut f = Frontier::new(n);
            let expect: Vec<usize> = (0..n).step_by(step).collect();
            // Insert in a scrambled order; iteration must sort.
            for &v in expect.iter().rev() {
                f.insert(v);
            }
            assert_eq!(f.iter().collect::<Vec<_>>(), expect, "n={n} step={step}");
        }
    }

    #[test]
    fn empty_and_tiny_sets() {
        let f = Frontier::new(0);
        assert_eq!(f.iter().count(), 0);
        let mut f = Frontier::new(1);
        assert_eq!(f.iter().count(), 0);
        f.insert(0);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn fill_matches_inserting_every_node() {
        for n in [0, 1, 63, 64, 65, 4096, 4100, 5000] {
            let mut bulk = Frontier::new(n);
            bulk.fill();
            let mut one_by_one = Frontier::new(n);
            for v in 0..n {
                one_by_one.insert(v);
            }
            assert_eq!(
                bulk.iter().collect::<Vec<_>>(),
                one_by_one.iter().collect::<Vec<_>>(),
                "n={n}"
            );
            assert_eq!(bulk.mask(), one_by_one.mask(), "n={n}");
            // Removal keeps the summary consistent after a bulk fill.
            if n > 0 {
                bulk.remove(n - 1);
                assert_eq!(bulk.iter().count(), n - 1);
            }
            bulk.clear();
            assert_eq!(bulk.iter().count(), 0);
        }
    }

    #[test]
    fn mask_view_matches_membership() {
        let mut f = Frontier::new(130);
        for v in [0, 64, 129] {
            f.insert(v);
        }
        assert_eq!(f.mask().iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        assert_eq!(f.mask().count_ones(), 3);
    }
}
