//! The parallel-determinism matrix: every pruning scheme × every weighting
//! scheme × every tested thread count must reproduce the sequential
//! pipeline bit for bit — identical retained comparisons in identical
//! order, identical observer counter totals — for Dirty and Clean-Clean ER.
//!
//! This is the workspace-level acceptance test for the ordered, windowed
//! sweep driver (see DESIGN.md §8): the thread count is a pure performance
//! knob, never a semantics knob.

use er_blocking::{purging, BlockingMethod, TokenBlocking};
use er_datagen::presets;
use er_model::{Block, BlockCollection, EntityId, ErKind};
use mb_core::filter::block_filtering;
use mb_core::parallel::{mean_edge_weight, WINDOW_PIVOTS};
use mb_core::weights::EdgeWeigher;
use mb_core::{GraphContext, MetaBlocking, PruningScheme, WeightingScheme};
use mb_observe::{Counter, RunReport};

const THREAD_COUNTS: [usize; 6] = [1, 2, 3, 4, 8, 16];

fn ids(v: &[u32]) -> Vec<EntityId> {
    v.iter().copied().map(EntityId).collect()
}

/// A Dirty collection of many windows, the last one partial, with
/// long-range blocks so windows see non-local neighbors.
fn large_dirty() -> BlockCollection {
    let n: u32 = 256 * 4 + 37;
    let mut blocks = Vec::new();
    for i in (0..n - 4).step_by(3) {
        blocks.push(Block::dirty(ids(&[i, i + 1, i + 2, i + 4])));
    }
    blocks.push(Block::dirty(ids(&[0, n / 2, n - 1])));
    blocks.push(Block::dirty(ids(&[3, n / 3, 2 * n / 3])));
    BlockCollection::new(ErKind::Dirty, n as usize, blocks)
}

/// A Clean-Clean collection of the same scale: left ids `0..600`, right ids
/// `600..1200`, overlapping block windows plus a few long-range blocks.
fn large_clean_clean() -> (BlockCollection, usize) {
    let split: u32 = 600;
    let n = split * 2;
    let mut blocks = Vec::new();
    for i in (0..split - 3).step_by(2) {
        blocks.push(Block::clean_clean(ids(&[i, i + 1, i + 3]), ids(&[split + i, split + i + 2])));
    }
    blocks.push(Block::clean_clean(ids(&[0, split / 2]), ids(&[n - 1, split + 7])));
    blocks.push(Block::clean_clean(ids(&[5, split - 1]), ids(&[split, n - 3])));
    (BlockCollection::new(ErKind::CleanClean, n as usize, blocks), split as usize)
}

fn run_observed(
    blocks: &BlockCollection,
    split: usize,
    scheme: WeightingScheme,
    pruning: PruningScheme,
    threads: usize,
) -> (RunReport, Vec<(EntityId, EntityId)>) {
    let mut report = RunReport::new("matrix");
    let mut out = Vec::new();
    MetaBlocking::new(scheme, pruning)
        .with_threads(threads)
        .run(blocks, split, &mut report, |a, b| out.push((a, b)))
        .unwrap();
    (report, out)
}

fn assert_matrix(blocks: &BlockCollection, split: usize, kind: &str) {
    for pruning in PruningScheme::ALL {
        for scheme in WeightingScheme::ALL {
            let (seq_report, seq_out) = run_observed(blocks, split, scheme, pruning, 1);
            assert!(
                !seq_out.is_empty(),
                "{kind}: {} + {} kept nothing",
                scheme.name(),
                pruning.name()
            );
            for threads in THREAD_COUNTS {
                let (report, out) = run_observed(blocks, split, scheme, pruning, threads);
                assert_eq!(
                    out,
                    seq_out,
                    "{kind}: {} + {} output differs at {threads} threads",
                    scheme.name(),
                    pruning.name()
                );
                for c in Counter::ALL {
                    assert_eq!(
                        report.counter_total(c),
                        seq_report.counter_total(c),
                        "{kind}: {} + {}: counter {} differs at {threads} threads",
                        scheme.name(),
                        pruning.name(),
                        c.name()
                    );
                }
            }
        }
    }
}

#[test]
fn dirty_matrix_is_thread_count_invariant() {
    let blocks = large_dirty();
    let n = blocks.num_entities();
    assert_matrix(&blocks, n, "dirty");
}

#[test]
fn clean_clean_matrix_is_thread_count_invariant() {
    let (blocks, split) = large_clean_clean();
    assert_matrix(&blocks, split, "clean-clean");
}

/// Groups of four mutually co-occurring profiles, each group spread over
/// eight blocks: `⌊Σ|b|/|E|⌋ − 1 = 5` while no node has more than three
/// neighbors, so every CNP selection runs with `k ≥` its neighborhood — the
/// keep-everything branch of the selection kernel — on graphs of many
/// windows.
fn groups_with_k_past_every_neighborhood() -> BlockCollection {
    let groups: u32 = 300;
    let mut blocks = Vec::new();
    for g in 0..groups {
        let base = g * 4;
        for _ in 0..4 {
            blocks.push(Block::dirty(ids(&[base, base + 1, base + 2, base + 3])));
        }
        for _ in 0..2 {
            blocks.push(Block::dirty(ids(&[base, base + 1])));
            blocks.push(Block::dirty(ids(&[base + 2, base + 3])));
        }
    }
    BlockCollection::new(ErKind::Dirty, (groups * 4) as usize, blocks)
}

#[test]
fn cnp_family_keeps_whole_neighborhoods_on_every_thread_count() {
    let blocks = groups_with_k_past_every_neighborhood();
    let n = blocks.num_entities();
    let directed_edges = n * 3;
    for (pruning, kept) in [
        (PruningScheme::Cnp, directed_edges),
        (PruningScheme::RedefinedCnp, directed_edges / 2),
        (PruningScheme::ReciprocalCnp, directed_edges / 2),
    ] {
        for scheme in WeightingScheme::ALL {
            let (seq_report, seq_out) = run_observed(&blocks, n, scheme, pruning, 1);
            assert_eq!(seq_out.len(), kept, "{} + {}", scheme.name(), pruning.name());
            for threads in [1, 2, 4, 8] {
                let (report, out) = run_observed(&blocks, n, scheme, pruning, threads);
                assert_eq!(out, seq_out, "{} x{threads}", pruning.name());
                assert_eq!(
                    report.counter_total(Counter::RetainedComparisons),
                    seq_report.counter_total(Counter::RetainedComparisons)
                );
            }
        }
    }
}

/// `threads: 0` (auto-detect) runs and still matches the sequential output.
#[test]
fn auto_detected_threads_match_sequential() {
    let blocks = large_dirty();
    let n = blocks.num_entities();
    for pruning in PruningScheme::ALL {
        let (_, seq_out) = run_observed(&blocks, n, WeightingScheme::Js, pruning, 1);
        let (_, auto_out) = run_observed(&blocks, n, WeightingScheme::Js, pruning, 0);
        assert_eq!(auto_out, seq_out, "{} differs under auto threads", pruning.name());
    }
}

/// The graph-free workflow runs on the same driver: its index build and
/// propagation sweep are thread-count-invariant too, including the
/// `RetainedComparisons` counter.
#[test]
fn graph_free_is_thread_count_invariant() {
    let blocks = large_dirty();
    let n = blocks.num_entities();
    let run = |threads: usize| {
        let mut report = RunReport::new("graph-free");
        let mut out = Vec::new();
        mb_core::graphfree::graph_free_meta_blocking(
            &blocks,
            n,
            0.55,
            threads,
            &mut report,
            |a, b| out.push((a, b)),
        )
        .unwrap();
        (report, out)
    };
    let (seq_report, seq_out) = run(1);
    assert!(!seq_out.is_empty());
    for threads in THREAD_COUNTS {
        let (report, out) = run(threads);
        assert_eq!(out, seq_out, "graph-free output differs at {threads} threads");
        for c in Counter::ALL {
            assert_eq!(
                report.counter_total(c),
                seq_report.counter_total(c),
                "graph-free counter {} differs at {threads} threads",
                c.name()
            );
        }
    }
}

/// Block Filtering composes with the parallel path: the filtered pipeline
/// is thread-count-invariant too (the filter runs before the sweeps, so
/// every thread count sees the same filtered graph).
#[test]
fn filtered_pipeline_is_thread_count_invariant() {
    let blocks = large_dirty();
    let n = blocks.num_entities();
    for pruning in [PruningScheme::Cep, PruningScheme::ReciprocalWnp] {
        let seq = MetaBlocking::new(WeightingScheme::Ecbs, pruning)
            .with_block_filtering(0.8)
            .run_collect(&blocks, n)
            .unwrap();
        for threads in [2, 8] {
            let par = MetaBlocking::new(WeightingScheme::Ecbs, pruning)
                .with_block_filtering(0.8)
                .with_threads(threads)
                .run_collect(&blocks, n)
                .unwrap();
            assert_eq!(par, seq, "{} x{threads}", pruning.name());
        }
    }
}

/// Overlapping four-member blocks over `n` profiles: a connected strip.
fn strip(n: u32) -> BlockCollection {
    let mut blocks = Vec::new();
    for i in (0..n.saturating_sub(4)).step_by(3) {
        blocks.push(Block::dirty(ids(&[i, i + 1, i + 2, i + 4])));
    }
    blocks.push(Block::dirty(ids(&[0, n / 2, n - 1])));
    BlockCollection::new(ErKind::Dirty, n as usize, blocks)
}

/// Where a window ends does not show in the output: collections one
/// profile short of a window boundary, on it, one past it, and of several
/// windows and a bit, under an edge-centric, a node-centric and a two-phase
/// scheme and the graph-free sweep.
#[test]
fn collection_sizes_around_a_window_boundary_are_thread_count_invariant() {
    for n in [WINDOW_PIVOTS - 1, WINDOW_PIVOTS, WINDOW_PIVOTS + 1, WINDOW_PIVOTS * 5 + 1] {
        let blocks = strip(n);
        let n = blocks.num_entities();
        for pruning in [PruningScheme::Wep, PruningScheme::Cnp, PruningScheme::ReciprocalWnp] {
            let (seq_report, seq_out) = run_observed(&blocks, n, WeightingScheme::Js, pruning, 1);
            assert!(!seq_out.is_empty());
            for threads in THREAD_COUNTS {
                let (report, out) = run_observed(&blocks, n, WeightingScheme::Js, pruning, threads);
                assert_eq!(out, seq_out, "{n} profiles, {} x{threads}", pruning.name());
                for c in Counter::ALL {
                    assert_eq!(report.counter_total(c), seq_report.counter_total(c), "{n}");
                }
            }
        }
        let graph_free = |threads| {
            let mut out = Vec::new();
            mb_core::graphfree::graph_free_meta_blocking(
                &blocks,
                n,
                0.8,
                threads,
                &mut mb_core::Noop,
                |a, b| out.push((a, b)),
            )
            .unwrap();
            out
        };
        let seq_out = graph_free(1);
        for threads in THREAD_COUNTS {
            assert_eq!(graph_free(threads), seq_out, "{n} profiles, graph-free x{threads}");
        }
    }
}

/// The WEP threshold is one `f64` whatever the thread count: on a dense
/// `d3c`-shaped slice, where a mean folded chunk by chunk (one partial sum
/// per thread) comes out different in the last bits for 1, 2 and 3 threads,
/// the window-ordered sum is bit-equal from 1 to 16.
#[test]
fn wep_threshold_is_bit_equal_for_every_thread_count() {
    let collection = presets::build(&presets::d3c(13, 0.0005)).unwrap().into_dirty().collection;
    let mut blocks = TokenBlocking.build(&collection);
    purging::purge_by_size(&mut blocks, 0.5);
    let filtered = block_filtering(&blocks, 0.8).unwrap();
    let ctx = GraphContext::new_dirty(&filtered);
    for scheme in [WeightingScheme::Js, WeightingScheme::Arcs, WeightingScheme::Ecbs] {
        let weigher = EdgeWeigher::new(scheme, &ctx);
        let one = mean_edge_weight(&ctx, &weigher, 1).unwrap();
        for threads in THREAD_COUNTS {
            let mean = mean_edge_weight(&ctx, &weigher, threads).unwrap();
            assert_eq!(
                mean.to_bits(),
                one.to_bits(),
                "{}: mean {mean:e} at {threads} threads, {one:e} at one",
                scheme.name()
            );
        }
    }
}
