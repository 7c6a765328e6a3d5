//! The streaming correctness oracle.
//!
//! Replays the same seed's arrival sequence the master ingested (the
//! source cut at the ingested count) through per-key, per-side lists
//! pruned to the window, and folds every join pair into the
//! collector's order-independent checksum without holding the pairs.

use std::collections::{HashMap, VecDeque};
use windjoin_cluster::SourceSpec;
use windjoin_core::hash::mix64;
use windjoin_core::{JoinSemantics, Side};

/// The collector's per-pair checksum term (XOR-folded over all pairs).
#[inline]
pub fn pair_hash(left_seq: u64, right_seq: u64) -> u64 {
    mix64(left_seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ right_seq)
}

/// What a correct run must report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Join pairs over the ingested arrivals.
    pub outputs: u64,
    /// XOR-fold of [`pair_hash`] over those pairs.
    pub checksum: u64,
}

/// Computes the expected outputs of the first `ingested` arrivals of
/// `source` under `seed`.
pub fn expected(source: &SourceSpec, seed: u64, sem: JoinSemantics, ingested: u64) -> Expected {
    // Per side: key -> (t, seq) in arrival order, plus the same tuples
    // in one arrival-ordered queue so expired ones leave every list.
    let mut lists: [HashMap<u64, VecDeque<(u64, u64)>>; 2] = [HashMap::new(), HashMap::new()];
    let mut fifo: [VecDeque<(u64, u64)>; 2] = [VecDeque::new(), VecDeque::new()];
    let mut src = source.open(seed, 0);
    let mut exp = Expected { outputs: 0, checksum: 0 };
    for _ in 0..ingested {
        let a = src.next_arrival().expect("the source ends before the ingested count");
        for side in [Side::Left, Side::Right] {
            let s = side.index();
            let w = sem.window_us(side);
            while let Some(&(t, key)) = fifo[s].front() {
                if a.at_us - t <= w {
                    break;
                }
                fifo[s].pop_front();
                let list = lists[s].get_mut(&key).expect("queued key has a list");
                list.pop_front();
                if list.is_empty() {
                    lists[s].remove(&key);
                }
            }
        }
        // Arrivals come in time order, so every stored opposite tuple
        // that survived pruning is within its window of this one.
        let own = a.side.index();
        if let Some(stored) = lists[1 - own].get(&a.key) {
            exp.outputs += stored.len() as u64;
            for &(_, seq) in stored {
                exp.checksum ^= match a.side {
                    Side::Left => pair_hash(a.seq, seq),
                    Side::Right => pair_hash(seq, a.seq),
                };
            }
        }
        lists[own].entry(a.key).or_default().push_back((a.at_us, a.seq));
        fifo[own].push_back((a.at_us, a.key));
    }
    exp
}

#[cfg(test)]
mod tests {
    use super::*;
    use windjoin_core::{reference_join, OutPair};
    use windjoin_gen::{KeyDist, RateSchedule};

    fn checksum_of(pairs: &[OutPair]) -> u64 {
        pairs.iter().fold(0, |acc, p| acc ^ pair_hash(p.left.1, p.right.1))
    }

    #[test]
    fn matches_reference_join_on_small_specs() {
        for (keys, w_left_us, w_right_us) in [
            (KeyDist::BModel { bias: 0.7, domain: 1_000 }, 200_000, 200_000),
            (KeyDist::Uniform { domain: 50 }, 30_000, 90_000),
        ] {
            let source = SourceSpec::Synthetic {
                rate: RateSchedule::steps(vec![(0, 3_000.0), (400_000, 6_000.0)]),
                keys,
            };
            let sem = JoinSemantics { w_left_us, w_right_us };
            let seed = 42;
            let arrivals: Vec<_> =
                source.materialize(seed, 0, 1_000_000).into_iter().map(|(t, _)| t).collect();
            let reference = reference_join(&arrivals, &sem);
            assert!(reference.len() > 1_000, "too few pairs to mean anything");
            let got = expected(&source, seed, sem, arrivals.len() as u64);
            assert_eq!(got.outputs, reference.len() as u64);
            assert_eq!(got.checksum, checksum_of(&reference));
        }
    }
}
