//! Threshold selection: which edges of a weighed slice reach a threshold.
//!
//! Every weight-threshold retention — WEP (the global mean), WNP (the
//! neighborhood mean), phase 2 of Redefined / Reciprocal WNP (the two
//! endpoints' means) and the served `Retention::AboveMean` — is one call of
//! [`select`]. It is written without a data-dependent branch: every id and
//! weight is copied into a run buffer and a cursor advances by the
//! predicate, so the cost of an edge does not depend on whether it is kept.
//! A branch on the predicate is mispredicted about as often as the keep
//! ratio is near one half, which on a WEP graph it is (46 % retained on
//! `batch-d3d`).
//!
//! The module depends on nothing else in the crate, so the `pruning` bench
//! compiles this very file to measure the kernel on its own.

/// Whether a weight reaches a pruning threshold, with a one-sided relative
/// tolerance: a graph whose edges all carry the *same* weight must retain
/// them all, but sequential summation can round the mean one ulp above the
/// common value and would otherwise prune every edge. Weights are
/// non-negative for all five schemes, so a relative epsilon is safe.
///
/// A threshold of `+∞` — two-phase WNP's for a node without a neighborhood —
/// is reached by no weight: `∞ − ∞·1e-9` is NaN.
#[inline]
pub(crate) fn reaches(w: f64, threshold: f64) -> bool {
    w >= threshold - threshold * 1e-9
}

/// How a two-phase node-centric scheme combines its endpoints' criteria
/// (Algorithms 4/5 use `Either`; the reciprocal variants use `Both`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Combine {
    /// Retain if the criterion holds for at least one endpoint (OR).
    Either,
    /// Retain only if the criterion holds for both endpoints (AND).
    Both,
}

/// Edges a run buffer holds: the kernel's whole scratch, on the stack.
const RUN: usize = 64;

/// The selection kernel: hands `emit` the ids and weights of `ids` /
/// `weights` that `keep` accepts, in slice order, a run of at most [`RUN`]
/// at a time. Every edge is written into the run; only the cursor moves by
/// `keep`'s answer. Allocates nothing.
#[inline]
fn select(
    ids: &[u32],
    weights: &[f64],
    keep: impl Fn(u32, f64) -> bool,
    mut emit: impl FnMut(&[u32], &[f64]),
) {
    let (mut kept_ids, mut kept_weights) = ([0u32; RUN], [0f64; RUN]);
    for (ids, weights) in ids.chunks(RUN).zip(weights.chunks(RUN)) {
        let mut n = 0;
        for (&j, &w) in ids.iter().zip(weights) {
            // `n` never exceeds the edges of this chunk before it, so it is
            // below RUN here and `% RUN` is the identity that lets the
            // compiler drop the bounds check.
            kept_ids[n % RUN] = j;
            kept_weights[n % RUN] = w;
            n += usize::from(keep(j, w));
        }
        let n = n.min(RUN);
        emit(&kept_ids[..n], &kept_weights[..n]);
    }
}

/// The edges of a weighed slice whose weight [`reaches`] `threshold`.
#[inline]
pub(crate) fn reaching(
    ids: &[u32],
    weights: &[f64],
    threshold: f64,
    emit: impl FnMut(&[u32], &[f64]),
) {
    select(ids, weights, |_, w| reaches(w, threshold), emit);
}

/// The edges `pivot → j` of a weighed slice whose weight reaches the
/// pivot's threshold `own`, neighbor `j`'s `theirs[j]`, or both, as
/// `combine` says. Both tests are evaluated for every edge (no
/// short-circuit), so neither is a branch.
#[inline]
pub(crate) fn reaching_pair(
    ids: &[u32],
    weights: &[f64],
    own: f64,
    theirs: &[f64],
    combine: Combine,
    emit: impl FnMut(&[u32], &[f64]),
) {
    let keep = |j: u32, w: f64| {
        let (over_own, over_theirs) = (reaches(w, own), reaches(w, theirs[j as usize]));
        match combine {
            Combine::Either => over_own | over_theirs,
            Combine::Both => over_own & over_theirs,
        }
    };
    select(ids, weights, keep, emit);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64* — enough randomness for a differential test, no
    /// dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A non-negative weight of JS's range, on a grid fine enough to
        /// be mostly distinct.
        fn weight(&mut self) -> f64 {
            self.below(1 << 20) as f64 / (1 << 20) as f64
        }
    }

    type Kept = Vec<(u32, u64)>;

    fn collect(run: impl FnOnce(&mut dyn FnMut(&[u32], &[f64]))) -> Kept {
        let mut kept = Vec::new();
        run(&mut |ids, weights| {
            assert_eq!(ids.len(), weights.len());
            assert!(ids.len() <= RUN);
            kept.extend(ids.iter().zip(weights).map(|(&j, &w)| (j, w.to_bits())));
        });
        kept
    }

    /// The filter the kernel replaced.
    fn oracle(ids: &[u32], weights: &[f64], keep: impl Fn(u32, f64) -> bool) -> Kept {
        ids.iter()
            .zip(weights)
            .filter(|&(&j, &w)| keep(j, w))
            .map(|(&j, &w)| (j, w.to_bits()))
            .collect()
    }

    fn check(ids: &[u32], weights: &[f64], t: f64) {
        let got = collect(|emit| reaching(ids, weights, t, emit));
        assert_eq!(got, oracle(ids, weights, |_, w| reaches(w, t)), "n {} t {t:e}", ids.len());
    }

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn next_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    /// Lengths either side of a run boundary, and one many runs long.
    const LENGTHS: [usize; 7] = [0, 1, 63, 64, 65, 129, 10_000];

    #[test]
    fn the_kernel_keeps_what_the_filter_keeps() {
        let mut rng = Rng(20160315);
        for &n in &LENGTHS {
            for _ in 0..20 {
                let ids: Vec<u32> = (0..n).map(|_| rng.below(1 << 20) as u32).collect();
                let weights: Vec<f64> = (0..n).map(|_| rng.weight()).collect();
                // A threshold at a present weight, a random one, and the
                // mean, as WEP / WNP draw it.
                let mean = weights.iter().sum::<f64>() / n.max(1) as f64;
                let present = weights.get(rng.below(n.max(1) as u64) as usize).copied();
                for t in [rng.weight(), mean, present.unwrap_or(0.5), 0.0, 1.0] {
                    check(&ids, &weights, t);
                }
            }
        }
    }

    /// Weights exactly on the threshold and one ulp either side of it, and
    /// of the tolerance's edge, `t − t·1e-9`.
    #[test]
    fn weights_on_and_one_ulp_around_the_threshold() {
        let mut rng = Rng(7);
        for _ in 0..200 {
            let t = rng.weight() + 1e-3;
            let edge = t - t * 1e-9;
            let around = [t, next_up(t), next_down(t), edge, next_up(edge), next_down(edge)];
            for &n in &LENGTHS {
                let ids: Vec<u32> = (0..n as u32).collect();
                let weights: Vec<f64> =
                    (0..n).map(|_| around[rng.below(around.len() as u64) as usize]).collect();
                check(&ids, &weights, t);
            }
        }
        // The tolerance keeps the weight one ulp below the threshold and
        // drops the one below the tolerance's edge.
        let t = 0.375;
        let edge = t - t * 1e-9;
        let kept = collect(|emit| {
            reaching(&[1, 2, 3, 4], &[t, next_down(t), edge, next_down(edge)], t, emit)
        });
        assert_eq!(kept.iter().map(|&(j, _)| j).collect::<Vec<_>>(), [1, 2, 3]);
    }

    /// The `wep_uniform_weights_keep_everything` case: the mean of equal
    /// weights, even rounded a little high by summation, keeps them all.
    #[test]
    fn an_all_equal_slice_is_kept_whole() {
        for &n in &LENGTHS {
            for w in [0.1, 1.0 / 3.0, 0.7, 2.0] {
                let ids: Vec<u32> = (0..n as u32).rev().collect();
                let weights = vec![w; n];
                let mean = weights.iter().sum::<f64>() / n.max(1) as f64;
                let kept = collect(|emit| reaching(&ids, &weights, mean, emit));
                assert_eq!(kept.len(), n, "w {w} n {n} mean {mean:e}");
                check(&ids, &weights, mean);
            }
        }
    }

    /// Two-phase WNP gives a node without a neighborhood the threshold
    /// `+∞`. No weight reaches it — `∞ − ∞·1e-9` is NaN — so a rewrite of the
    /// predicate that started keeping those nodes' edges fails here.
    #[test]
    fn an_infinite_threshold_keeps_nothing() {
        for w in [0.0, 1e-300, 0.5, 1.0, f64::MAX, f64::INFINITY] {
            assert!(!reaches(w, f64::INFINITY), "{w} reaches +∞");
        }
        let ids: Vec<u32> = (0..200).collect();
        let weights: Vec<f64> = (0..200).map(|i| i as f64 * 1e3).collect();
        assert!(collect(|emit| reaching(&ids, &weights, f64::INFINITY, emit)).is_empty());
        let theirs = vec![f64::INFINITY; 200];
        for combine in [Combine::Either, Combine::Both] {
            let kept = collect(|emit| {
                reaching_pair(&ids, &weights, f64::INFINITY, &theirs, combine, emit)
            });
            assert!(kept.is_empty(), "{combine:?}");
        }
    }

    /// The pair form against the short-circuiting `||` / `&&` filter it
    /// replaced, on random threshold pairs — some infinite, some on an
    /// edge's weight.
    #[test]
    fn the_pair_form_keeps_what_the_short_circuit_filter_keeps() {
        let mut rng = Rng(1905_06167);
        for round in 0..400 {
            let n = LENGTHS[round % LENGTHS.len()].min(2_000);
            let nodes = 300u32;
            let ids: Vec<u32> = (0..n).map(|_| rng.below(nodes as u64) as u32).collect();
            let weights: Vec<f64> = (0..n).map(|_| rng.weight()).collect();
            let threshold = |rng: &mut Rng| match rng.below(6) {
                0 => f64::INFINITY,
                1 => weights.get(rng.below(n.max(1) as u64) as usize).copied().unwrap_or(0.5),
                _ => rng.weight(),
            };
            let theirs: Vec<f64> = (0..nodes).map(|_| threshold(&mut rng)).collect();
            let own = threshold(&mut rng);
            for combine in [Combine::Either, Combine::Both] {
                let got =
                    collect(|emit| reaching_pair(&ids, &weights, own, &theirs, combine, emit));
                let want = oracle(&ids, &weights, |j, w| {
                    let (a, b) = (|| reaches(w, own), || reaches(w, theirs[j as usize]));
                    match combine {
                        Combine::Either => a() || b(),
                        Combine::Both => a() && b(),
                    }
                });
                assert_eq!(got, want, "round {round} {combine:?}");
            }
        }
    }
}
