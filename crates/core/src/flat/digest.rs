//! Flight-record digests shared by both backends (cross-backend stable
//! for a fixed graph, seed and algorithm; see `arbmis_flat::divergence`)
//! and the injected coin flip of the divergence drills.

use super::FlatAlgo;
use crate::{bounded_arb, luby, metivier};
use arbmis_congest::rng;
use arbmis_graph::digest::Fnv128;
use arbmis_graph::NodeId;
use serde::{Deserialize, Serialize};

/// An injected single-coin perturbation, for divergence-tooling tests
/// and fault drills: "what if node `node`'s coin in iteration
/// `iteration` had come out differently?"
///
/// Only [`FlatBackend`](super::FlatBackend) honors coin flips (the CONGEST backend is the
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
            let (rps, total) = params.schedule().ok()?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArbParams;

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
        let (rps, total) = params.schedule().unwrap();
        // First decide of scale 2 is one round past the scale boundary.
        assert_eq!(decide_iteration(&algo, rps + 1), Some(params.lambda));
        // Scale-end rounds never decide.
        assert_eq!(decide_iteration(&algo, 3 * params.lambda), None);
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
}
