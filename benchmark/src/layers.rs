//! The per-layer probe suite of a traced run: every layer's public calls,
//! timed from outside on the workload's own dataset and configuration.
//!
//! One pass wraps each call in a span; counts are taken at the same
//! boundaries. The suite is the same for all six workloads — what differs
//! is the dataset, so the same metric names show how the shares move with
//! scale and graph density.

use crate::batch::{cross_check, pipeline, Digest};
use crate::fixture::{load_view, nproc, start, Data, Plan};
use crate::ops::Mix;
use crate::serve::{repetition, Oracle, Traffic};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use er_datagen::rng::SmallRng;
use er_model::{BlockCollection, EntityId, EntityProfile};
use mb_core::weighting::{for_each_edge, WeightingImpl};
use mb_core::weights::EdgeWeigher;
use mb_core::{GraphContext, PipelineConfig};
use mb_observe::Noop;
use mb_serve::protocol::{
    parse_request, parse_response, read_frame, request_bytes, response_bytes, write_frame,
    MSG_REQUEST, MSG_RESPONSE,
};
use mb_serve::{CandidateRequest, CandidateResponse, GenerationCell, QueryEngine, Snapshot};
use std::hint::black_box;
use std::io::Cursor;
use std::path::PathBuf;
use std::time::Instant;

/// In-process engine queries per pass and kind.
const ENGINE_QUERIES: usize = 2000;
/// Distinct request/response pairs the protocol probes cycle through.
const PROTOCOL_PAIRS: usize = 64;
/// Calls per protocol span: the codec functions take well under a µs, so
/// a span covers this many and the metric divides.
pub const PROTOCOL_CALLS: usize = 1024;
/// Wire ops per connection in the round-trip probes.
const WIRE_OPS: usize = 3000;
/// `SnapshotView::read_from` samples per pass.
const LOADS: usize = 5;

/// Counts taken beside the spans; the last pass's values (they repeat
/// exactly between passes on one seed).
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Blocks after purging.
    pub blocks: u64,
    /// Comparisons after purging.
    pub comparisons: u64,
    /// Comparisons after Block Filtering.
    pub filtered_comparisons: u64,
    /// `Counter::EdgesWeighed` of a whole meta-blocking run.
    pub edges_weighed: u64,
    /// Retained comparisons.
    pub retained: u64,
    /// Pairs Completeness of the retained stream.
    pub pc: f64,
    /// Pairs Quality of the retained stream.
    pub pq: f64,
    /// Snapshot file size.
    pub snapshot_bytes: u64,
    /// Mean `Scored::edges_scored` over the workload's kind of query.
    pub edges_scored_per_query: f64,
    /// Mean `Scored::blocks_touched` over the same.
    pub blocks_touched_per_query: f64,
    /// Median encoded request size.
    pub request_bytes: f64,
    /// Median encoded response size.
    pub response_bytes: f64,
    /// Ops in the overlay after the in-process write probe.
    pub overlay_ops: u64,
    /// Tombstones in it.
    pub tombstones: u64,
    /// Round-trip p50 per pass at `connections` connections, µs.
    pub rtt_us: Vec<f64>,
    /// Round-trip p50 per pass on one connection, µs.
    pub rtt_1conn_us: Vec<f64>,
    /// Write acknowledgement p50 per pass, µs.
    pub write_rtt_us: Vec<f64>,
    /// Write acknowledgement tail per pass, µs.
    pub write_tail_us: Vec<f64>,
    /// Checks made and failed, for the run's `attempted`/`failed`.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Why, for the first few failures.
    pub notes: Vec<String>,
}

/// The suite's inputs.
pub struct Suite<'a> {
    /// The workload.
    pub plan: Plan,
    /// Its dataset.
    pub data: &'a Data,
    /// Its probe profiles.
    pub probes: &'a [EntityProfile],
    /// Its pipeline configuration.
    pub config: PipelineConfig,
    /// Where the pass may write its snapshot.
    pub path: PathBuf,
    /// Closed-loop connections.
    pub connections: usize,
    /// Seed for the probe streams.
    pub seed: u64,
    /// The one-thread retained-stream fingerprint every run must reproduce.
    pub digest: Option<Digest>,
    /// Filtered blocks of the workload's own traced pipeline run, when the
    /// measured phase already made one (batch workloads).
    pub filtered: Option<BlockCollection>,
}

impl Suite<'_> {
    /// Runs the whole suite once under a `layers.pass` span.
    pub fn pass(
        &mut self,
        tracer: &mut Tracer,
        index: u64,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let root = tracer.begin("layers.pass", None, index);
        let at = Some(root);
        self.batch_layers(tracer, at, index, counts)?;
        self.serve_layers(tracer, at, index, counts)?;
        tracer.end(root);
        Ok(())
    }

    fn batch_layers(
        &mut self,
        tracer: &mut Tracer,
        at: Option<SpanId>,
        index: u64,
        counts: &mut Counts,
    ) -> Result<(), String> {
        // Batch workloads traced this pipeline as their measured phase and
        // hand its filtered blocks in; serve workloads run it here.
        let run;
        let filtered = match &self.filtered {
            Some(filtered) => filtered,
            None => {
                run = pipeline(self.data, &self.config, tracer, at, index)?;
                counts.attempted += 1;
                if *self.digest.get_or_insert(run.digest) != run.digest {
                    counts.failed += 1;
                    counts.notes.push("pipeline digest changed between runs".to_owned());
                }
                (counts.blocks, counts.comparisons) = (run.blocks, run.comparisons);
                &run.filtered
            }
        };
        counts.filtered_comparisons = filtered.total_comparisons();
        let split = self.data.collection.split();
        let (ctx, _) = tracer.timed("core.index", at, index, || GraphContext::new(filtered, split));
        let weigher = EdgeWeigher::new(self.config.weighting, &ctx);
        let (mut edges, mut total) = (0u64, 0.0f64);
        tracer.timed("core.weight", at, index, || {
            for_each_edge(WeightingImpl::Optimized, &ctx, &weigher, |_, _, w| {
                edges += 1;
                total += w;
            })
        });
        black_box((edges, total));
        drop(weigher);
        drop(ctx);

        let check = cross_check(self.data, &self.config, filtered, nproc(), tracer, at)?;
        counts.attempted += 1;
        if Some(check.digest) != self.digest {
            counts.failed += 1;
            counts.notes.push(format!("threads = {} retained a different stream", nproc()));
        }
        counts.retained = check.digest.count;
        (counts.pc, counts.pq, counts.edges_weighed) = (check.pc, check.pq, check.edges_weighed);
        Ok(())
    }

    fn serve_layers(
        &mut self,
        tracer: &mut Tracer,
        at: Option<SpanId>,
        index: u64,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let collection = &self.data.collection;
        let config = self.config;
        let (snapshot, _) =
            tracer.timed("serve.snapshot.build", at, index, || Snapshot::build(collection, config));
        let snapshot = snapshot.map_err(|e| format!("snapshot: {e}"))?;
        let (bytes, _) = tracer.timed("serve.snapshot.encode", at, index, || snapshot.to_bytes());
        counts.snapshot_bytes = bytes.len() as u64;
        drop(bytes);
        let (written, _) =
            tracer.timed("serve.snapshot.write", at, index, || snapshot.write_to(&self.path));
        written.map_err(|e| format!("writing {}: {e}", self.path.display()))?;
        drop(snapshot);
        let mut view = None;
        for _ in 0..LOADS {
            view = Some(tracer.timed("serve.view.load", at, index, || load_view(&self.path)).0?);
        }
        let view = view.ok_or("no snapshot load")?;

        // In-process engine: both kinds of query on every dataset.
        let mut rng = SmallRng::seed_from_u64(self.seed ^ index);
        let entities = collection.len() as u64;
        let entity_requests: Vec<CandidateRequest> = (0..ENGINE_QUERIES)
            .map(|_| CandidateRequest::entity(EntityId(rng.gen_below(entities) as u32)))
            .collect();
        let probe_requests: Vec<CandidateRequest> = (0..ENGINE_QUERIES.min(self.probes.len()))
            .map(|k| CandidateRequest::probe(self.probes[k].clone(), false))
            .collect();
        let mut engine = QueryEngine::from_view(&view);
        let mut pairs: Vec<(CandidateRequest, CandidateResponse)> = Vec::new();
        let (mut edges, mut blocks, mut queries) = (0u64, 0u64, 0u64);
        for (name, requests, primary) in [
            ("serve.engine.entity", &entity_requests, !self.plan.reads_probes()),
            ("serve.engine.probe", &probe_requests, self.plan.reads_probes()),
        ] {
            for (k, request) in requests.iter().enumerate() {
                let start = Instant::now();
                let response = engine.execute(request, &mut Noop);
                let end = Instant::now();
                tracer.add(
                    name,
                    at,
                    index << 32 | k as u64,
                    tracer.ns_at(start),
                    tracer.ns_at(end),
                );
                let response = response.map_err(|e| format!("{name} {k}: {e}"))?;
                if primary {
                    for scored in &response.results {
                        edges += scored.edges_scored;
                        blocks += scored.blocks_touched;
                    }
                    queries += 1;
                    if pairs.len() < PROTOCOL_PAIRS {
                        pairs.push((request.clone(), response));
                    }
                }
            }
        }
        drop(engine);
        counts.edges_scored_per_query = edges as f64 / queries.max(1) as f64;
        counts.blocks_touched_per_query = blocks as f64 / queries.max(1) as f64;
        self.protocol(tracer, at, index, &pairs, counts)?;

        // The wire: the same kind of read at `connections` connections,
        // then on one, then reads with writes beside them and a compaction.
        let mut served = start(view, self.path.clone())?;
        let mix = if self.plan.reads_probes() {
            Mix::Probe { pool: self.probes.len() as u32 }
        } else {
            Mix::Entity
        };
        let seed = self.seed ^ index;
        let reads = Traffic::new(mix, seed, self.data, self.probes, self.connections, WIRE_OPS);
        let mut oracle = Oracle::new(self.data, config);
        let rep = repetition(&mut served, &reads, false, &mut oracle, tracer, at, index)?;
        counts.rtt_us.push(stats::percentile(&rep.read_us, 50.0));
        absorb(counts, &rep);

        let alone = Traffic::new(mix, seed, self.data, self.probes, 1, WIRE_OPS);
        let rep = repetition(&mut served, &alone, false, &mut oracle, tracer, at, index)?;
        counts.rtt_1conn_us.push(stats::percentile(&rep.read_us, 50.0));
        absorb(counts, &rep);

        let writes =
            Traffic::new(Mix::Mixed, seed, self.data, self.probes, self.connections, WIRE_OPS);
        let rep = repetition(&mut served, &writes, true, &mut oracle, tracer, at, index)?;
        counts.write_rtt_us.push(stats::percentile(&rep.write_us, 50.0));
        let tail = stats::tail_percentile(rep.write_us.len()).unwrap_or(100.0);
        counts.write_tail_us.push(stats::percentile(&rep.write_us, tail));
        absorb(counts, &rep);

        // The same writes applied in process, with the re-pin a connection
        // handler pays after each.
        let cell =
            GenerationCell::new(load_view(&self.path)?).map_err(|e| format!("generation: {e}"))?;
        let ops = (0..self.connections).flat_map(|c| writes.deltas(c));
        for (k, op) in ops.enumerate() {
            let op_id = index << 32 | k as u64;
            let start = Instant::now();
            let applied = cell.apply(op, &mut Noop);
            let mid = Instant::now();
            let generation = cell.load();
            black_box(QueryEngine::from_generation(&generation));
            let end = Instant::now();
            applied.map_err(|e| format!("in-process apply {k}: {e}"))?;
            tracer.add("serve.generation.apply", at, op_id, tracer.ns_at(start), tracer.ns_at(mid));
            tracer.add("serve.generation.pin", at, op_id, tracer.ns_at(mid), tracer.ns_at(end));
        }
        let generation = cell.load();
        if let Some(overlay) = generation.overlay() {
            (counts.overlay_ops, counts.tombstones) =
                (overlay.applied(), overlay.tombstone_count());
        }
        Ok(())
    }

    /// The codec and framing functions over in-memory buffers, one span per
    /// [`PROTOCOL_CALLS`] calls.
    fn protocol(
        &self,
        tracer: &mut Tracer,
        at: Option<SpanId>,
        index: u64,
        pairs: &[(CandidateRequest, CandidateResponse)],
        counts: &mut Counts,
    ) -> Result<(), String> {
        if pairs.is_empty() {
            return Err("no request/response pairs for the protocol probes".to_owned());
        }
        let requests: Vec<Vec<u8>> = pairs.iter().map(|(q, _)| request_bytes(q)).collect();
        let responses: Vec<Vec<u8>> = pairs.iter().map(|(_, r)| response_bytes(r)).collect();
        let sizes =
            |v: &[Vec<u8>]| stats::median(&v.iter().map(|b| b.len() as f64).collect::<Vec<_>>());
        (counts.request_bytes, counts.response_bytes) = (sizes(&requests), sizes(&responses));
        let each = |k: usize| k % pairs.len();
        let mut ok = true;
        tracer.timed("serve.protocol.request_encode", at, index, || {
            (0..PROTOCOL_CALLS).for_each(|k| drop(black_box(request_bytes(&pairs[each(k)].0))))
        });
        tracer.timed("serve.protocol.request_parse", at, index, || {
            (0..PROTOCOL_CALLS)
                .for_each(|k| ok &= black_box(parse_request(&requests[each(k)])).is_ok())
        });
        tracer.timed("serve.protocol.response_encode", at, index, || {
            (0..PROTOCOL_CALLS).for_each(|k| drop(black_box(response_bytes(&pairs[each(k)].1))))
        });
        tracer.timed("serve.protocol.response_parse", at, index, || {
            (0..PROTOCOL_CALLS)
                .for_each(|k| ok &= black_box(parse_response(&responses[each(k)])).is_ok())
        });
        // One round trip frames twice: the request out, the response back.
        let mut wire = Vec::new();
        tracer.timed("serve.protocol.frame", at, index, || {
            for k in 0..PROTOCOL_CALLS {
                for (kind, payload) in
                    [(MSG_REQUEST, &requests[each(k)]), (MSG_RESPONSE, &responses[each(k)])]
                {
                    wire.clear();
                    ok &= write_frame(&mut wire, kind, payload).is_ok();
                    ok &= black_box(read_frame(&mut Cursor::new(&wire))).is_ok();
                }
            }
        });
        counts.attempted += 1;
        if !ok {
            counts.failed += 1;
            counts.notes.push("a protocol round trip over a buffer failed".to_owned());
        }
        Ok(())
    }
}

fn absorb(counts: &mut Counts, rep: &crate::serve::Rep) {
    counts.attempted += rep.attempted;
    counts.failed += rep.failed;
    counts.notes.extend(rep.notes.iter().take(3).cloned());
}
