//! A multi-threaded sweep holds `O(threads × one window's output)`, never
//! the retained set.
//!
//! The tracking allocator's counters are process-wide, which is why this
//! test is a binary of its own with a single `#[test]`: nothing else
//! allocates while a sweep is being measured. Before the windowed driver,
//! every `threads > 1` path buffered its whole output in per-chunk vectors —
//! `8 B × retained` and more — before the first pair reached the sink.
//!
//! Not built under `--features sanitize`: its per-edge posting-list
//! intersections turn these four million edges into minutes, and the memory
//! being measured is the unchecked sweep's.

#![cfg(not(feature = "sanitize"))]

use er_blocking::{purging, BlockingMethod, TokenBlocking};
use er_datagen::presets;
use er_model::EntityId;
use mb_core::filter::block_filtering;
use mb_core::parallel::{Sweep, RUN_AHEAD, WINDOW_PIVOTS};
use mb_core::weights::EdgeWeigher;
use mb_core::{propagation, prune, GraphContext, Noop, WeightingImpl, WeightingScheme};
use mb_observe::alloc_track::{self, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator<std::alloc::System> = TrackingAllocator::new(std::alloc::System);

/// Peak live bytes `run` added on top of what was live when it started.
fn peak_of(run: impl FnOnce()) -> u64 {
    let before = alloc_track::current_bytes();
    alloc_track::rebase_peak();
    run();
    alloc_track::peak_bytes().saturating_sub(before)
}

#[test]
fn a_parallel_sweep_holds_windows_not_the_retained_set() {
    // A dense Dirty slice of d3c: ~17 k profiles, four million edges.
    let collection = presets::build(&presets::d3c(13, 0.005)).unwrap().into_dirty().collection;
    let mut blocks = TokenBlocking.build(&collection);
    purging::purge_by_size(&mut blocks, 0.5);
    let filtered = block_filtering(&blocks, 0.8).unwrap();
    let ctx = GraphContext::new_dirty(&filtered);
    let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
    let n = ctx.num_entities() as u64;

    type Scheme<'a> = &'a dyn Fn(usize, &mut dyn FnMut(EntityId, EntityId));
    let sweep = |threads| Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, threads);
    let schemes: [(&str, Scheme<'_>); 3] = [
        ("JS + WEP", &|threads, sink| prune::wep(&sweep(threads), &mut Noop, sink)),
        ("JS + CNP", &|threads, sink| prune::cnp(&sweep(threads), &mut Noop, sink)),
        ("graph-free", &|threads, sink| propagation::comparison_propagation(&ctx, threads, sink)),
    ];
    let mut most_retained = 0u64;
    for (name, scheme) in schemes {
        // One thread: the sink is the scheme's own output, nothing is
        // buffered. Tally what each window of pivots emits on the way.
        let mut per_window = vec![0u64; ctx.num_entities().div_ceil(WINDOW_PIVOTS as usize)];
        let one_thread =
            peak_of(|| scheme(1, &mut |a, _| per_window[(a.0 / WINDOW_PIVOTS) as usize] += 1));
        let retained: u64 = per_window.iter().sum();
        let largest_window = per_window.iter().copied().max().unwrap_or(0);
        most_retained = most_retained.max(retained);
        for threads in [2u64, 4] {
            // What N threads may hold beyond the one-thread peak: N − 1 more
            // sets of per-thread scratch (scan arrays at 12 B a profile, the
            // neighborhood buffers — 16 B a profile covers both), and the
            // windows in flight: `RUN_AHEAD` per thread and the one being
            // drained, none larger than the largest window, 8 B a pair in a
            // vector that may be half empty.
            let in_flight = threads * RUN_AHEAD as u64 + 1;
            let budget = (threads - 1) * 16 * n + in_flight * 2 * 8 * largest_window;
            let mut same = 0u64;
            let peak = peak_of(|| scheme(threads as usize, &mut |_, _| same += 1));
            assert_eq!(same, retained, "{name} at {threads} threads");
            let extra = peak.saturating_sub(one_thread);
            println!(
                "{name} x{threads}: {retained} retained ({} B), largest window {largest_window}; \
                 +{extra} B over the one-thread peak of {one_thread} B, budget {budget} B",
                8 * retained
            );
            assert!(
                extra < budget,
                "{name} at {threads} threads holds {extra} B over the one-thread peak, more \
                 than {in_flight} windows and {} scratch sets account for ({budget} B)",
                threads - 1
            );
            // … which is what makes the budget a bound on windows, not on
            // output: holding the retained set would blow it.
            assert!(budget < 8 * retained, "{name}: the fixture is too small to tell");
        }
    }
    assert!(most_retained >= 1_000_000, "the fixture retains only {most_retained} pairs");
}
