//! Counter-based randomness shared by protocols and their centralized
//! fast-path re-implementations.
//!
//! Randomized rounds in the MIS algorithms draw fresh values like "the
//! priority of node `v` in iteration `t`". A *counter-based* generator
//! makes such a value a pure function `h(seed, v, t, tag)`, so a CONGEST
//! protocol and a centralized simulation of the same algorithm produce
//! bit-identical random choices without sharing any mutable RNG state.
//! The mixer is SplitMix64, whose output is equidistributed enough for
//! simulation purposes and is cheap.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 finalizer: a 64-bit mixing permutation.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform `u64` determined by `(seed, node, round, tag)`.
///
/// `tag` distinguishes independent draws a node makes within one round
/// (e.g. tag 0 = priority, tag 1 = coin).
#[inline]
pub fn draw(seed: u64, node: usize, round: u64, tag: u64) -> u64 {
    let mut z = seed;
    z = splitmix64(z ^ (node as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
    z = splitmix64(z ^ round.wrapping_mul(0xca5a_8268_9512_1157 ^ 0xff51_afd7_ed55_8ccd));
    splitmix64(z ^ tag.wrapping_mul(0xc4ce_b9fe_1a85_ec53))
}

/// A uniform `f64` in `[0, 1)` determined by `(seed, node, round, tag)`.
#[inline]
pub fn draw_unit(seed: u64, node: usize, round: u64, tag: u64) -> f64 {
    // 53 mantissa bits.
    (draw(seed, node, round, tag) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A Bernoulli(`p`) draw determined by `(seed, node, round, tag)`.
#[inline]
pub fn draw_bool(seed: u64, node: usize, round: u64, tag: u64, p: f64) -> bool {
    draw_unit(seed, node, round, tag) < p
}

/// Number of bits used for random priorities in an `n`-node network:
/// `min(60, 4·⌈log₂ n⌉)`. Pairwise collision probability per draw is
/// `≤ n⁻⁴`, and the encoded value honestly fits the CONGEST `O(log n)`-bit
/// message budget.
#[inline]
pub fn priority_bits(n: usize) -> u32 {
    let logn = (n.max(2) as f64).log2().ceil() as u32;
    (4 * logn).clamp(4, 60)
}

/// A nonzero uniform priority of [`priority_bits`]`(n)` bits for
/// `(seed, node, round, tag)`. The low bit is forced to 1 so 0 can encode
/// "non-competitive".
#[inline]
pub fn draw_priority(seed: u64, node: usize, round: u64, tag: u64, n: usize) -> u64 {
    (draw(seed, node, round, tag) >> (64 - priority_bits(n))) | 1
}

/// A per-node streaming RNG for protocols that prefer stateful draws.
/// Seeded from `(seed, node)`, so distinct nodes get independent streams.
pub type NodeRng = StdRng;

/// Creates the stream RNG for `node` under `seed`.
///
/// A stream RNG carried *across* rounds in node state is deterministic
/// (its seed depends only on `(seed, node)` and it only ever advances
/// inside that node's own `round` calls), but [`node_round_rng`] is
/// preferred for new protocols because its derivation is auditable per
/// round.
pub fn node_rng(seed: u64, node: usize) -> NodeRng {
    StdRng::seed_from_u64(splitmix64(
        seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    ))
}

/// Tag value reserved for seeding [`node_round_rng`] streams. Protocol
/// code must not pass this tag to [`draw`] directly, or its draws would
/// collide with the stream seed.
pub const STREAM_TAG: u64 = u64::MAX;

/// Creates a stream RNG for `node` in `round` under `seed` — a pure
/// function of the `(seed, node, round)` counters, with no state carried
/// between rounds.
///
/// Because the stream is re-derived from counters each round, a node's
/// random choices are independent of *when* its activation runs — the
/// CONGEST engine and a centralized fast path draw bit-identical
/// randomness.
pub fn node_round_rng(seed: u64, node: usize, round: u64) -> NodeRng {
    StdRng::seed_from_u64(draw(seed, node, round, STREAM_TAG))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_deterministic() {
        assert_eq!(draw(1, 2, 3, 4), draw(1, 2, 3, 4));
    }

    #[test]
    fn draw_varies_in_every_coordinate() {
        let base = draw(1, 2, 3, 4);
        assert_ne!(base, draw(9, 2, 3, 4));
        assert_ne!(base, draw(1, 9, 3, 4));
        assert_ne!(base, draw(1, 2, 9, 4));
        assert_ne!(base, draw(1, 2, 3, 9));
    }

    #[test]
    fn draw_unit_in_range_and_roughly_uniform() {
        let mut sum = 0.0;
        let trials = 10_000;
        for i in 0..trials {
            let u = draw_unit(7, i, 0, 0);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / trials as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn draw_bool_frequency() {
        let hits = (0..10_000).filter(|&i| draw_bool(11, i, 5, 0, 0.3)).count();
        let freq = hits as f64 / 10_000.0;
        assert!((freq - 0.3).abs() < 0.03, "freq {freq}");
    }

    #[test]
    fn node_rng_streams_differ() {
        use rand::RngCore;
        let a = node_rng(5, 0).next_u64();
        let b = node_rng(5, 1).next_u64();
        assert_ne!(a, b);
        // Same node, same seed: identical stream.
        assert_eq!(a, node_rng(5, 0).next_u64());
    }

    #[test]
    fn priority_bits_scale() {
        assert_eq!(priority_bits(2), 4);
        assert_eq!(priority_bits(1024), 40);
        assert_eq!(priority_bits(usize::MAX), 60);
    }

    #[test]
    fn priorities_nonzero_and_bounded() {
        for t in 0..1000u64 {
            let p = draw_priority(3, 5, t, 0, 256);
            assert!(p >= 1);
            assert!(p < 1 << priority_bits(256));
        }
    }

    /// Pins the counter derivation to golden values. If this test fails,
    /// the derivation changed: every recorded transcript digest, golden
    /// seed test, and fast-path/protocol equivalence in the workspace
    /// silently shifts with it — treat that as a breaking change, not a
    /// refresh-the-constants chore.
    #[test]
    fn derivation_is_pinned() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(draw(0, 0, 0, 0), 0x2382_75bc_38fc_be91);
        assert_eq!(draw(1, 2, 3, 4), 0x430a_ac1f_3b21_3935);
        assert_eq!(draw(0xDEAD_BEEF, 42, 7, 1), 0x25f0_712a_167c_cfd3);
        // node_round_rng seeds purely from draw(seed, node, round, STREAM_TAG).
        assert_eq!(draw(9, 5, 11, STREAM_TAG), 0xf1df_55ed_5128_c7d8);
        use rand::RngCore;
        assert_eq!(
            node_round_rng(9, 5, 11).next_u64(),
            StdRng::seed_from_u64(0xf1df_55ed_5128_c7d8).next_u64()
        );
    }

    #[test]
    fn node_round_rng_is_a_pure_counter_function() {
        use rand::RngCore;
        // Same counters: identical stream.
        let mut r1 = node_round_rng(3, 7, 2);
        let mut r2 = node_round_rng(3, 7, 2);
        let a: Vec<u64> = (0..4).map(|_| r1.next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
        assert_eq!(a, b);
        // Any changed counter gives a different stream.
        assert_ne!(a[0], node_round_rng(4, 7, 2).next_u64());
        assert_ne!(a[0], node_round_rng(3, 8, 2).next_u64());
        assert_ne!(a[0], node_round_rng(3, 7, 3).next_u64());
    }

    #[test]
    fn splitmix_avalanche_sanity() {
        // Flipping one input bit should flip roughly half the output bits.
        let x = splitmix64(0x1234_5678);
        let y = splitmix64(0x1234_5679);
        let flipped = (x ^ y).count_ones();
        assert!((16..=48).contains(&flipped), "flipped {flipped}");
    }
}
