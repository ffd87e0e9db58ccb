//! The batch pipeline as a caller drives it: Token Blocking → Block Purging
//! (0.5) → Block Filtering → meta-blocking, retained comparisons streamed
//! into a digest.

use crate::fixture::Data;
use crate::trace::{SpanId, Tracer};
use er_blocking::{purging, BlockingMethod, TokenBlocking};
use er_model::measures::EffectivenessAccumulator;
use er_model::{BlockCollection, EntityId};
use mb_core::filter::block_filtering;
use mb_core::{MetaBlocking, PipelineConfig};
use mb_observe::{Counter, Noop, RunReport};
use std::time::Instant;

/// Block Purging's size ratio (the paper's §6.2 rule).
const PURGE_RATIO: f64 = 0.5;

/// An order-independent fingerprint of a retained-comparison stream: the
/// count plus a wrapping sum and an xor of one mixed word per comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Comparisons seen (repetitions included).
    pub count: u64,
    sum: u64,
    xor: u64,
}

impl Digest {
    /// Folds in one retained comparison.
    #[inline]
    pub fn add(&mut self, a: EntityId, b: EntityId) {
        let mut z = (u64::from(a.0) << 32 | u64::from(b.0)).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        self.count += 1;
        self.sum = self.sum.wrapping_add(z);
        self.xor ^= z;
    }
}

/// One pipeline run's outputs.
#[derive(Debug)]
pub struct PipelineRun {
    /// Wall time, collection in to last retained comparison out.
    pub wall_ms: f64,
    /// Fingerprint of the retained stream.
    pub digest: Digest,
    /// Blocks after purging.
    pub blocks: u64,
    /// Comparisons after purging.
    pub comparisons: u64,
    /// The filtered blocks meta-blocking ran on.
    pub filtered: BlockCollection,
}

/// Meta-blocking with Block Filtering switched off: the pipeline filters as
/// its own timed step.
fn meta_blocking(config: &PipelineConfig, threads: usize) -> MetaBlocking {
    MetaBlocking::from_config(PipelineConfig { filter_ratio: None, threads, ..*config })
}

/// Runs the pipeline once on one thread, wrapping each public call in a
/// span under `parent`.
pub fn pipeline(
    data: &Data,
    config: &PipelineConfig,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    op_id: u64,
) -> Result<PipelineRun, String> {
    let collection = &data.collection;
    let start = Instant::now();
    let root = tracer.begin("batch.pipeline", parent, op_id);
    let at = Some(root);
    let (mut blocks, _) =
        tracer.timed("blocking.build", at, op_id, || TokenBlocking.build(collection));
    tracer.timed("blocking.purge", at, op_id, || purging::purge_by_size(&mut blocks, PURGE_RATIO));
    let ratio = config.filter_ratio.unwrap_or(1.0);
    let (filtered, _) = tracer.timed("core.filter", at, op_id, || block_filtering(&blocks, ratio));
    let filtered = filtered.map_err(|e| format!("block filtering: {e}"))?;
    let mut digest = Digest::default();
    let (ran, _) = tracer.timed("core.metablock", at, op_id, || {
        meta_blocking(config, 1)
            .run(&filtered, collection.split(), &mut Noop, |a, b| digest.add(a, b))
    });
    ran.map_err(|e| format!("meta-blocking: {e}"))?;
    tracer.end(root);
    Ok(PipelineRun {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        digest,
        blocks: blocks.size() as u64,
        comparisons: blocks.total_comparisons(),
        filtered,
    })
}

/// What the `threads = nproc` cross-check run saw.
#[derive(Debug, Clone, Copy)]
pub struct CrossCheck {
    /// Fingerprint of its retained stream; must equal the one-thread run's.
    pub digest: Digest,
    /// Pairs Completeness of the retained stream.
    pub pc: f64,
    /// Pairs Quality of the retained stream.
    pub pq: f64,
    /// `Counter::EdgesWeighed`, as the run's observer reported it.
    pub edges_weighed: u64,
    /// Wall time of the run.
    pub wall_ms: f64,
}

/// Re-runs meta-blocking over `filtered` on `threads` workers, scoring the
/// retained stream against the ground truth as it goes.
pub fn cross_check(
    data: &Data,
    config: &PipelineConfig,
    filtered: &BlockCollection,
    threads: usize,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<CrossCheck, String> {
    let mut digest = Digest::default();
    let mut found = EffectivenessAccumulator::new(&data.ground_truth);
    let mut report = RunReport::new("benchmark/cross-check");
    let (ran, wall_ms) = tracer.timed("core.metablock_tn", parent, 0, || {
        meta_blocking(config, threads).run(
            filtered,
            data.collection.split(),
            &mut report,
            |a, b| {
                digest.add(a, b);
                found.add(a, b);
            },
        )
    });
    ran.map_err(|e| format!("meta-blocking on {threads} threads: {e}"))?;
    Ok(CrossCheck {
        digest,
        pc: found.pc(),
        pq: found.pq(),
        edges_weighed: report.counter_total(Counter::EdgesWeighed),
        wall_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let pairs = [(1, 2), (3, 4), (1, 2), (9, 7)];
        let fold = |order: &[usize]| {
            let mut d = Digest::default();
            for &i in order {
                d.add(EntityId(pairs[i].0), EntityId(pairs[i].1));
            }
            d
        };
        assert_eq!(fold(&[0, 1, 2, 3]), fold(&[3, 2, 1, 0]));
        assert_ne!(fold(&[0, 1, 2, 3]), fold(&[0, 1, 3]));
        assert_ne!(fold(&[0]), fold(&[1]));
        let (mut ab, mut ba) = (Digest::default(), Digest::default());
        ab.add(EntityId(1), EntityId(2));
        ba.add(EntityId(2), EntityId(1));
        assert_ne!(ab, ba);
    }
}
