//! Randomized invariants over seeded block collections.
//!
//! Formerly property-based tests; rewritten as deterministic seeded sweeps
//! so the workspace builds without any registry dependency. Each test draws
//! `CASES` random block collections from the workspace PRNG and asserts the
//! same invariants the proptest versions did.

use er_datagen::rng::SmallRng;
use er_model::{Block, BlockCollection, ComparisonSet, EntityId, EntityIndex, ErKind};
use mb_core::filter::block_filtering;
use mb_core::weighting::{optimized, original};
use mb_core::weights::{Degrees, EdgeWeigher, WeightingScheme};
use mb_core::{GraphContext, MetaBlocking, PruningScheme};
use std::collections::{BTreeMap, BTreeSet};

const MAX_ENTITIES: u32 = 24;
const CASES: u64 = 64;

/// A random Dirty block collection over up to MAX_ENTITIES profiles —
/// between 1 and 12 blocks of 2–6 distinct members each.
fn dirty_blocks(seed: u64) -> BlockCollection {
    let mut rng = SmallRng::seed_from_u64(seed);
    let num_blocks = rng.gen_range_inclusive(1, 11);
    let blocks = (0..num_blocks)
        .map(|_| {
            let size = rng.gen_range_inclusive(2, 5);
            let mut members = BTreeSet::new();
            while members.len() < size {
                members.insert(rng.gen_below(MAX_ENTITIES as u64) as u32);
            }
            Block::dirty(members.into_iter().map(EntityId).collect())
        })
        .collect();
    BlockCollection::new(ErKind::Dirty, MAX_ENTITIES as usize, blocks)
}

/// A random Clean-Clean block collection (split at 12).
fn clean_blocks(seed: u64) -> BlockCollection {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC1EA_u64);
    let num_blocks = rng.gen_range_inclusive(1, 9);
    let blocks = (0..num_blocks)
        .map(|_| {
            let side = |rng: &mut SmallRng, lo: u32, hi: u32| {
                let size = rng.gen_range_inclusive(1, 3);
                let mut members = BTreeSet::new();
                while members.len() < size {
                    members.insert(lo + rng.gen_below((hi - lo) as u64) as u32);
                }
                members.into_iter().map(EntityId).collect::<Vec<_>>()
            };
            let left = side(&mut rng, 0, 12);
            let right = side(&mut rng, 12, MAX_ENTITIES);
            Block::clean_clean(left, right)
        })
        .collect();
    BlockCollection::new(ErKind::CleanClean, MAX_ENTITIES as usize, blocks)
}

fn edge_map(f: impl FnOnce(&mut dyn FnMut(EntityId, EntityId, f64))) -> BTreeMap<(u32, u32), f64> {
    let mut out = BTreeMap::new();
    let mut sink = |a: EntityId, b: EntityId, w: f64| {
        out.insert((a.0.min(b.0), a.0.max(b.0)), w);
    };
    f(&mut sink);
    out
}

#[test]
fn entity_index_block_lists_are_sorted_and_complete() {
    for seed in 0..CASES {
        let blocks = dirty_blocks(seed);
        let idx = EntityIndex::build(&blocks);
        let mut assignments = 0usize;
        for e in 0..MAX_ENTITIES {
            let list = idx.block_list(EntityId(e));
            assert!(list.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
            assignments += list.len();
        }
        assert_eq!(assignments as u64, blocks.total_assignments(), "seed {seed}");
    }
}

#[test]
fn common_blocks_is_symmetric() {
    for seed in 0..CASES {
        let blocks = dirty_blocks(seed);
        let idx = EntityIndex::build(&blocks);
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(31));
        for _ in 0..8 {
            let a = EntityId(rng.gen_below(MAX_ENTITIES as u64) as u32);
            let b = EntityId(rng.gen_below(MAX_ENTITIES as u64) as u32);
            assert_eq!(idx.common_blocks(a, b), idx.common_blocks(b, a), "seed {seed}");
        }
    }
}

#[test]
fn optimized_equals_original_weighting() {
    for seed in 0..CASES {
        let blocks = dirty_blocks(seed);
        let ctx = GraphContext::new_dirty(&blocks);
        for scheme in WeightingScheme::ALL {
            let weigher = EdgeWeigher::new(scheme, &ctx);
            let fast = edge_map(|s| optimized::for_each_edge(&ctx, &weigher, s));
            let slow = edge_map(|s| original::for_each_edge(&ctx, &weigher, s));
            assert_eq!(fast.len(), slow.len(), "seed {seed} {}", scheme.name());
            for (edge, w) in &fast {
                let w2 = slow[edge];
                assert!(
                    (w - w2).abs() < 1e-9,
                    "seed {seed} {}: {edge:?}: {w} vs {w2}",
                    scheme.name()
                );
            }
        }
    }
}

#[test]
fn optimized_equals_original_weighting_clean() {
    for seed in 0..CASES {
        let blocks = clean_blocks(seed);
        let ctx = GraphContext::new(&blocks, 12);
        for scheme in WeightingScheme::ALL {
            let weigher = EdgeWeigher::new(scheme, &ctx);
            let fast = edge_map(|s| optimized::for_each_edge(&ctx, &weigher, s));
            let slow = edge_map(|s| original::for_each_edge(&ctx, &weigher, s));
            assert_eq!(fast, slow, "seed {seed} {}", scheme.name());
            // Every edge crosses the split.
            for (a, b) in fast.keys() {
                assert!(*a < 12 && *b >= 12, "seed {seed}");
            }
        }
    }
}

#[test]
fn degrees_are_consistent_with_edges() {
    for seed in 0..CASES {
        let blocks = dirty_blocks(seed);
        let ctx = GraphContext::new_dirty(&blocks);
        let d = Degrees::compute(&ctx);
        let sum: u64 = d.per_node.iter().map(|&x| x as u64).sum();
        assert_eq!(sum, 2 * d.total_edges, "seed {seed}");
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let edges = edge_map(|s| optimized::for_each_edge(&ctx, &weigher, s));
        assert_eq!(edges.len() as u64, d.total_edges, "seed {seed}");
    }
}

#[test]
fn block_filtering_shrinks_and_respects_limits() {
    for seed in 0..CASES {
        let blocks = dirty_blocks(seed);
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(53));
        for _ in 0..4 {
            let r_pct = rng.gen_range_inclusive(5, 100) as u32;
            let r = r_pct as f64 / 100.0;
            let filtered = block_filtering(&blocks, r).expect("valid ratio");
            assert!(
                filtered.total_comparisons() <= blocks.total_comparisons(),
                "seed {seed} r={r}"
            );
            // Per-profile limits respected.
            let before = blocks.assignments_per_entity();
            let after = filtered.assignments_per_entity();
            for e in 0..MAX_ENTITIES as usize {
                if before[e] > 0 {
                    let limit = ((r * before[e] as f64).round() as u32).max(1);
                    assert!(after[e] <= limit, "seed {seed} entity {e}: {} > {limit}", after[e]);
                }
            }
            // r = 1 is the identity on comparisons.
            if r_pct == 100 {
                assert_eq!(filtered.total_comparisons(), blocks.total_comparisons());
            }
        }
        let full = block_filtering(&blocks, 1.0).expect("valid ratio");
        assert_eq!(full.total_comparisons(), blocks.total_comparisons(), "seed {seed}");
    }
}

#[test]
fn redefined_is_dedup_of_original() {
    for seed in 0..CASES {
        let blocks = dirty_blocks(seed);
        for scheme in WeightingScheme::ALL {
            for (orig, redef) in [
                (PruningScheme::Cnp, PruningScheme::RedefinedCnp),
                (PruningScheme::Wnp, PruningScheme::RedefinedWnp),
            ] {
                let o = MetaBlocking::new(scheme, orig)
                    .run_collect(&blocks, MAX_ENTITIES as usize)
                    .expect("pipeline runs");
                let r = MetaBlocking::new(scheme, redef)
                    .run_collect(&blocks, MAX_ENTITIES as usize)
                    .expect("pipeline runs");
                let mut oset = ComparisonSet::new();
                for (a, b) in &o {
                    oset.insert(*a, *b);
                }
                let mut rset = ComparisonSet::new();
                for (a, b) in &r {
                    assert!(rset.insert(*a, *b), "seed {seed}: redefined emitted a duplicate");
                }
                assert_eq!(oset.len(), rset.len(), "seed {seed} {}", scheme.name());
                for (a, b) in &r {
                    assert!(oset.contains(*a, *b), "seed {seed}");
                }
            }
        }
    }
}

#[test]
fn reciprocal_is_subset_of_redefined() {
    for seed in 0..CASES {
        let blocks = dirty_blocks(seed);
        for scheme in WeightingScheme::ALL {
            for (redef, recip) in [
                (PruningScheme::RedefinedCnp, PruningScheme::ReciprocalCnp),
                (PruningScheme::RedefinedWnp, PruningScheme::ReciprocalWnp),
            ] {
                let rd = MetaBlocking::new(scheme, redef)
                    .run_collect(&blocks, MAX_ENTITIES as usize)
                    .expect("pipeline runs");
                let rc = MetaBlocking::new(scheme, recip)
                    .run_collect(&blocks, MAX_ENTITIES as usize)
                    .expect("pipeline runs");
                let mut rdset = ComparisonSet::new();
                for (a, b) in &rd {
                    rdset.insert(*a, *b);
                }
                assert!(rc.len() <= rd.len(), "seed {seed}");
                for (a, b) in &rc {
                    assert!(rdset.contains(*a, *b), "seed {seed}");
                }
            }
        }
    }
}

#[test]
fn cep_cardinality_bound() {
    for seed in 0..CASES {
        let blocks = dirty_blocks(seed);
        let ctx = GraphContext::new_dirty(&blocks);
        let k = mb_core::prune::cep_threshold(&ctx);
        let d = Degrees::compute(&ctx);
        for scheme in WeightingScheme::ALL {
            let out = MetaBlocking::new(scheme, PruningScheme::Cep)
                .run_collect(&blocks, MAX_ENTITIES as usize)
                .expect("pipeline runs");
            assert_eq!(out.len(), k.min(d.total_edges as usize), "seed {seed}");
        }
    }
}

#[test]
fn comparison_propagation_yields_each_edge_once() {
    for seed in 0..CASES {
        let blocks = dirty_blocks(seed);
        let ctx = GraphContext::new_dirty(&blocks);
        let mut seen = ComparisonSet::new();
        let mut count = 0usize;
        mb_core::propagation::comparison_propagation(&ctx, 1, |a, b| {
            count += 1;
            assert!(seen.insert(a, b), "seed {seed}: duplicate pair");
        });
        let d = Degrees::compute(&ctx);
        assert_eq!(count as u64, d.total_edges, "seed {seed}");
        // Exactly the pairs that co-occur somewhere.
        let idx = EntityIndex::build(&blocks);
        for a in 0..MAX_ENTITIES {
            for b in (a + 1)..MAX_ENTITIES {
                let co = idx.least_common_block(EntityId(a), EntityId(b)).is_some();
                assert_eq!(co, seen.contains(EntityId(a), EntityId(b)), "seed {seed}");
            }
        }
    }
}

#[test]
fn wep_never_loses_the_heaviest_edge() {
    for seed in 0..CASES {
        let blocks = dirty_blocks(seed);
        let ctx = GraphContext::new_dirty(&blocks);
        for scheme in WeightingScheme::ALL {
            let weigher = EdgeWeigher::new(scheme, &ctx);
            let edges = edge_map(|s| optimized::for_each_edge(&ctx, &weigher, s));
            let Some((&best, _)) =
                edges.iter().max_by(|a, b| a.1.total_cmp(b.1).then_with(|| a.0.cmp(b.0)))
            else {
                continue;
            };
            let out = MetaBlocking::new(scheme, PruningScheme::Wep)
                .run_collect(&blocks, MAX_ENTITIES as usize)
                .expect("pipeline runs");
            let kept: Vec<(u32, u32)> =
                out.iter().map(|&(a, b)| (a.0.min(b.0), a.0.max(b.0))).collect();
            assert!(kept.contains(&best), "seed {seed}: heaviest edge {best:?} pruned");
        }
    }
}
