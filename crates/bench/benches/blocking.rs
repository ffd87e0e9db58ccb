//! Table 1 OTime shape: building the input blocks.
//!
//! Blocking itself must be cheap relative to resolution — the paper's
//! Table 1 shows OTime of seconds against resolution times of minutes to
//! hours. This bench covers the blocking methods plus Block Purging.

use er_bench::clean_workload;
use er_bench::harness::BatchSize;
use er_bench::harness::Criterion;
use er_bench::{criterion_group, criterion_main};
use er_blocking::{
    purging, AttributeClusteringBlocking, BlockingMethod, KeyBlockBuilder, QGramsBlocking,
    SortedNeighborhood, StandardBlocking, SuffixArraysBlocking, TokenBlocking,
};
use er_datagen::presets;
use er_model::tokenize::{KeyScratch, TokenInterner};
use er_model::EntityCollection;
use std::hint::black_box;

fn bench_blocking(c: &mut Criterion) {
    let workload = clean_workload();
    let collection = &workload.collection;

    let mut group = c.benchmark_group("blocking");
    group.sample_size(10);

    let methods: Vec<(&str, Box<dyn BlockingMethod>)> = vec![
        ("token", Box::new(TokenBlocking)),
        ("qgrams3", Box::new(QGramsBlocking::default())),
        ("suffix", Box::new(SuffixArraysBlocking::default())),
        ("attr_clustering", Box::new(AttributeClusteringBlocking::default())),
        ("standard", Box::new(StandardBlocking)),
        ("sorted_neighborhood", Box::new(SortedNeighborhood::default())),
    ];
    for (name, method) in &methods {
        group.bench_function(*name, |b| b.iter(|| black_box(method.build(collection))));
    }

    group.bench_function("purging/size", |b| {
        b.iter(|| {
            let mut blocks = workload.blocks.clone();
            black_box(purging::purge_by_size(&mut blocks, 0.5))
        })
    });
    group.bench_function("purging/comparisons", |b| {
        b.iter(|| {
            let mut blocks = workload.blocks.clone();
            black_box(purging::purge_by_comparisons(&mut blocks))
        })
    });
    group.finish();
}

/// The full `d2c` preset (50.8k profiles, the repository benchmark's
/// `batch-d2c` collection) with each profile's token stream as
/// `fill_tokens` writes it, unsorted and with repeats: what Token Blocking
/// hands the interner, one batch per profile — about 1.1 M keys over 264k
/// distinct ones.
fn d2c_batches() -> (EntityCollection, Vec<KeyScratch>) {
    let collection = presets::build(&presets::d2c(13)).expect("d2c preset").collection;
    let batches = collection
        .iter()
        .map(|(_, profile)| {
            let mut keys = KeyScratch::new();
            keys.fill_tokens(profile);
            keys
        })
        .collect();
    (collection, batches)
}

/// A profile's distinct keys, sorted.
fn sorted_distinct(keys: &KeyScratch) -> Vec<&str> {
    let mut distinct: Vec<&str> = keys.iter().collect();
    distinct.sort_unstable();
    distinct.dedup();
    distinct
}

/// Tokenizing alone: `fill_tokens` over every `d2c` profile into one reused
/// scratch. Time per key is the sample time over the `x` in the row name.
fn bench_tokenize(c: &mut Criterion) {
    let (collection, batches) = d2c_batches();
    let keys: usize = batches.iter().map(KeyScratch::len).sum();
    drop(batches);
    let mut group = c.benchmark_group("tokenize");
    group.sample_size(10);
    group.bench_function(format!("fill_tokens_x{keys}"), |b| {
        let mut scratch = KeyScratch::new();
        b.iter(|| {
            let mut sum = 0usize;
            for (_, profile) in collection.iter() {
                scratch.fill_tokens(profile);
                sum += scratch.len();
            }
            black_box(sum)
        })
    });
    group.finish();
}

/// Interning alone, from an empty table each sample: one `intern` per key
/// of each profile's sorted, distinct tokens against one `intern_all` per
/// raw token stream. Time per key is the sample time over the `x` in the
/// row name.
fn bench_intern(c: &mut Criterion) {
    let (_, streams) = d2c_batches();
    let sorted: Vec<Vec<&str>> = streams.iter().map(sorted_distinct).collect();
    let lookups: usize = sorted.iter().map(Vec::len).sum();
    let streamed: usize = streams.iter().map(KeyScratch::len).sum();
    let mut group = c.benchmark_group("intern");
    group.sample_size(10);
    group.bench_function(format!("single_x{lookups}"), |b| {
        b.iter(|| {
            let mut interner = TokenInterner::new();
            let mut sum = 0u64;
            for keys in &sorted {
                for key in keys {
                    sum += u64::from(interner.intern(key).expect("d2c fits u32 addressing"));
                }
            }
            black_box((sum, interner.len()))
        })
    });
    group.bench_function(format!("batched_x{streamed}"), |b| {
        b.iter(|| {
            let mut interner = TokenInterner::new();
            let (mut ids, mut sum) = (Vec::new(), 0u64);
            for keys in &streams {
                interner.intern_all(keys, &mut ids).expect("d2c fits u32 addressing");
                sum += ids.iter().map(|&id| u64::from(id)).sum::<u64>();
            }
            black_box((sum, interner.len()))
        })
    });
    group.finish();
}

/// Grouping alone: `finish` on a builder already holding `d2c`'s postings —
/// count, prefix-sum, scatter, the ascending check per group, then block
/// emission. Filling the builder is set-up, not timed.
fn bench_group_postings(c: &mut Criterion) {
    let (collection, batches) = d2c_batches();
    // One posting per distinct key of a profile.
    let postings: usize = batches.iter().map(|keys| sorted_distinct(keys).len()).sum();
    let mut group = c.benchmark_group("group_postings");
    group.sample_size(10);
    group.bench_function(format!("finish_x{postings}"), |b| {
        b.iter_batched(
            || {
                let mut builder = KeyBlockBuilder::new(&collection);
                for ((id, _), keys) in collection.iter().zip(&batches) {
                    builder.assign_all(keys, id);
                }
                builder
            },
            |builder| black_box(builder.finish()),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_blocking, bench_tokenize, bench_intern, bench_group_postings);
criterion_main!(benches);
