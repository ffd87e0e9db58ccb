//! The serve workloads' measured phase: closed-loop clients replay their
//! seeded streams over loopback connections, and every answer that can be
//! checked against the in-process engine is.
//!
//! Closed loop because the callers this models (a matcher stage asking for
//! candidates) wait for each reply before asking again.

use crate::fixture::{connect, load_view, Data, Served};
use crate::ops::{is_checked, stream, Mix, Op};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use er_model::{EntityId, EntityProfile};
use mb_core::PipelineConfig;
use mb_observe::Noop;
use mb_serve::protocol::response_bytes;
use mb_serve::{
    merge_ops, CandidateRequest, CandidateResponse, Client, DeltaOp, GenerationCell, QueryEngine,
    ServeError, Snapshot, SnapshotView,
};
use std::hash::{DefaultHasher, Hasher};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Untimed reads each connection sends before a repetition's clock starts,
/// so the handler has re-pinned its engine and grown its scratch buffers.
const WARMUP_READS: usize = 300;

/// Consecutive ops of one connection whose rate is one sample of
/// [`Rep::throughput`]: 1.5–3 ms of traffic.
const WINDOW_OPS: usize = 50;

/// Entity queries sent to the compacted server, each compared with an
/// engine over a from-scratch build of the merged profiles.
const POST_COMPACTION_QUERIES: u32 = 200;

/// Everything the connections send, resolved before any clock starts.
#[derive(Debug)]
pub struct Traffic {
    seed: u64,
    /// One op stream per connection.
    pub streams: Vec<Vec<Op>>,
    /// The probe pool as ready requests.
    probes: Vec<CandidateRequest>,
    /// Per connection, the profiles its upserts carry, in stream order.
    upserts: Vec<Vec<EntityProfile>>,
}

impl Traffic {
    /// Builds `connections` streams of `len` ops each.
    pub fn new(
        mix: Mix,
        seed: u64,
        data: &Data,
        probes: &[EntityProfile],
        connections: usize,
        len: usize,
    ) -> Traffic {
        let entities = data.collection.len() as u32;
        let streams: Vec<Vec<Op>> =
            (0..connections).map(|c| stream(mix, seed, c, connections, entities, len)).collect();
        let upserts = streams
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let donors = ops.iter().filter_map(|op| match op {
                    Op::Upsert { donor, .. } => Some(*donor),
                    _ => None,
                });
                donors
                    .enumerate()
                    .map(|(k, donor)| {
                        // Indexed text under a fresh URI, so the upsert
                        // lands in live postings, not dead singletons.
                        let mut p = EntityProfile::new(format!("upsert-{c}-{k}"));
                        for a in data.collection.profile(EntityId(donor)).attributes() {
                            p.add(a.name.clone(), a.value.clone());
                        }
                        p
                    })
                    .collect()
            })
            .collect();
        // Clean-Clean probes join side 2 (see `fixture::probe_profiles`).
        let probes = probes.iter().map(|p| CandidateRequest::probe(p.clone(), false)).collect();
        Traffic { seed, streams, probes, upserts }
    }

    /// Ops per repetition, all connections together.
    pub fn ops(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// The delta ops among connection `connection`'s stream, in order.
    pub fn deltas(&self, connection: usize) -> impl Iterator<Item = DeltaOp> + '_ {
        let mut profiles = self.upserts[connection].iter();
        self.streams[connection].iter().filter_map(move |op| match *op {
            Op::Upsert { id, .. } => {
                profiles.next().map(|p| DeltaOp::Upsert { id, profile: p.clone() })
            }
            Op::Delete(id) => Some(DeltaOp::Delete { id }),
            Op::Entity(_) | Op::Probe { .. } => None,
        })
    }

    /// The read request `op` stands for (`None` for writes).
    pub fn request(&self, op: Op) -> Option<CandidateRequest> {
        match op {
            Op::Entity(id) => Some(CandidateRequest::entity(EntityId(id))),
            Op::Probe { pool } => Some(self.probes[pool as usize].clone()),
            Op::Upsert { .. } | Op::Delete(_) => None,
        }
    }
}

/// What one connection saw during one repetition.
struct ConnResult {
    start: Instant,
    end: Instant,
    /// `(start, end, is_read)` per op, in stream order.
    timings: Vec<(Instant, Instant, bool)>,
    /// Ops that returned `Err`, with the first error's text.
    failed: u64,
    first_error: Option<String>,
    /// `(op index, response)` for the seeded 1 % sample of reads.
    checked: Vec<(usize, CandidateResponse)>,
    /// `(generation ordinal, delta)` per acknowledged write.
    acks: Vec<(u64, DeltaOp)>,
}

fn replay(
    client: &mut Client,
    connection: usize,
    traffic: &Traffic,
    barrier: &Barrier,
) -> ConnResult {
    let ops = &traffic.streams[connection];
    let profiles = &traffic.upserts[connection];
    for op in ops.iter().filter(|op| op.is_read()).take(WARMUP_READS) {
        if let Some(request) = traffic.request(*op) {
            let _ = black_box(client.execute(&request));
        }
    }
    let mut out = ConnResult {
        start: Instant::now(),
        end: Instant::now(),
        timings: Vec::with_capacity(ops.len()),
        failed: 0,
        first_error: None,
        checked: Vec::new(),
        acks: Vec::new(),
    };
    let mut next_upsert = 0;
    barrier.wait();
    out.start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let start = Instant::now();
        let outcome = match *op {
            Op::Entity(id) => client.execute(&CandidateRequest::entity(EntityId(id))).map(Some),
            Op::Probe { pool } => client.execute(&traffic.probes[pool as usize]).map(Some),
            Op::Upsert { id, .. } => {
                let profile = &profiles[next_upsert];
                next_upsert += 1;
                client.upsert(id, profile).map(|(ordinal, _)| {
                    out.acks.push((ordinal, DeltaOp::Upsert { id, profile: profile.clone() }));
                    None
                })
            }
            Op::Delete(id) => client.delete(id).map(|ordinal| {
                out.acks.push((ordinal, DeltaOp::Delete { id }));
                None
            }),
        };
        let end = Instant::now();
        out.timings.push((start, end, op.is_read()));
        match outcome {
            Ok(Some(response)) if is_checked(traffic.seed, connection, i) => {
                out.checked.push((i, response));
            }
            Ok(response) => {
                black_box(response);
            }
            Err(e) => {
                out.failed += 1;
                out.first_error.get_or_insert_with(|| format!("op {i} ({op:?}): {e}"));
            }
        }
    }
    out.end = Instant::now();
    out
}

/// One repetition's measurements.
#[derive(Debug, Default)]
pub struct Rep {
    /// First op sent to last reply received, all connections.
    pub wall_s: f64,
    /// Ops sent.
    pub ops: u64,
    /// Ops per second over each run of [`WINDOW_OPS`] consecutive ops of a
    /// connection, first send to last reply.
    pub window_rates: Vec<f64>,
    /// Connections that sent them.
    pub connections: usize,
    /// Read round trips, µs, ascending.
    pub read_us: Vec<f64>,
    /// Write (upsert + delete) acknowledgements, µs, ascending.
    pub write_us: Vec<f64>,
    /// Operations attempted, extra checks included.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Why, for the first few.
    pub notes: Vec<String>,
    /// Compaction part timings in ms (`serve-mixed` only).
    pub compaction: Option<CompactionMs>,
}

/// Compaction's three calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactionMs {
    /// Cloning the collection and `merge_ops`.
    pub merge: f64,
    /// `Snapshot::build` over the merged profiles.
    pub build: f64,
    /// `ServerHandle::swap`.
    pub swap: f64,
}

impl CompactionMs {
    /// The three together.
    pub fn total(&self) -> f64 {
        self.merge + self.build + self.swap
    }
}

impl Rep {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    /// Requests per second, all connections: the median rate over windows
    /// of [`WINDOW_OPS`] consecutive ops, reads and writes as they come.
    ///
    /// `ops ÷ wall_s` would count every millisecond a neighbour holds this
    /// process's CPU (runs on a host losing CPU time to steal read 8.4k where
    /// others read 14.3k requests/s); such a stall lands in one window, and
    /// the median window does not see it.
    pub fn throughput(&self) -> f64 {
        if self.window_rates.is_empty() {
            return self.ops as f64 / self.wall_s;
        }
        self.connections as f64 * stats::median(&self.window_rates)
    }
}

/// What the checks compare against, and the state they keep across
/// repetitions.
#[derive(Debug)]
pub struct Oracle<'a> {
    /// The served dataset.
    data: &'a Data,
    /// The configuration its snapshot was frozen under.
    config: PipelineConfig,
    /// A second zero-copy load of the served snapshot, for the in-process
    /// engine static answers are compared with.
    view: Option<SnapshotView>,
    /// Hash of the first repetition's compacted snapshot bytes.
    compacted_hash: Option<u64>,
}

impl<'a> Oracle<'a> {
    /// An oracle for a server over `data` frozen under `config`.
    pub fn new(data: &'a Data, config: PipelineConfig) -> Oracle<'a> {
        Oracle { data, config, view: None, compacted_hash: None }
    }
}

fn hash_of(bytes: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(bytes);
    hasher.finish()
}

/// Checks a wire answer against the in-process engine's: bit-equal once the
/// serving generation, which only the server stamps, is set aside.
fn check_answer(
    wire: &CandidateResponse,
    local: Result<CandidateResponse, ServeError>,
) -> Result<(), String> {
    let mut local = local.map_err(|e| format!("in-process engine: {e}"))?;
    local.generation = wire.generation;
    if response_bytes(wire) == response_bytes(&local) {
        Ok(())
    } else {
        Err(format!(
            "wire answer differs from the in-process engine's on generation {}",
            wire.generation
        ))
    }
}

/// Replays every connection's stream once and checks what came back.
///
/// With `mixed`, the writes are replayed in acknowledgement order on an
/// in-process replica so each sampled read is compared on the generation
/// that answered it; then the op log is compacted (`merge_ops` +
/// `Snapshot::build` + `ServerHandle::swap`), the compacted image and the
/// compacted server's answers are checked against a from-scratch build,
/// and the original snapshot is swapped back so repetitions start alike.
pub fn repetition(
    served: &mut Served,
    traffic: &Traffic,
    mixed: bool,
    oracle: &mut Oracle<'_>,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    op_id: u64,
) -> Result<Rep, String> {
    // Fresh connections every repetition. Where the scheduler places a
    // connection's handler thread decides the round trip by tens of per
    // cent and stays put for the thread's life: ten 8 s runs on connections
    // kept open across repetitions measured p50s of 52–87 µs, ten on
    // per-repetition connections 43–49 µs.
    let mut clients = connect(&served.handle, traffic.streams.len())?;
    let base = served.handle.generation();
    let barrier = Barrier::new(clients.len());
    let span = tracer.begin("serve.repetition", parent, op_id);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                scope.spawn(move || replay(client, c, traffic, barrier))
            })
            .collect();
        workers.into_iter().map(|w| w.join()).collect::<Result<_, _>>()
    })
    .map_err(|_| "a client thread panicked".to_owned())?;
    tracer.end(span);

    let mut rep = Rep {
        ops: traffic.ops(),
        attempted: traffic.ops(),
        connections: results.len(),
        ..Rep::default()
    };
    let start = results.iter().map(|r| r.start).min();
    let end = results.iter().map(|r| r.end).max();
    rep.wall_s = match (start, end) {
        (Some(s), Some(e)) => e.duration_since(s).as_secs_f64(),
        _ => return Err("no client connections".to_owned()),
    };
    for (c, r) in results.iter().enumerate() {
        for window in r.timings.chunks_exact(WINDOW_OPS) {
            let span = window[WINDOW_OPS - 1].1.duration_since(window[0].0).as_secs_f64();
            rep.window_rates.push(WINDOW_OPS as f64 / span);
        }
        for (i, &(start, end, is_read)) in r.timings.iter().enumerate() {
            let us = end.duration_since(start).as_secs_f64() * 1e6;
            if is_read { &mut rep.read_us } else { &mut rep.write_us }.push(us);
            let name = if is_read { "serve.request" } else { "serve.write" };
            let op = op_id << 32 | (c as u64) << 24 | i as u64;
            tracer.add(name, Some(span), op, tracer.ns_at(start), tracer.ns_at(end));
        }
        rep.failed += r.failed;
        if let Some(e) = &r.first_error {
            rep.notes.push(format!("connection {c}: {e}"));
        }
    }
    stats::sorted(&mut rep.read_us);
    stats::sorted(&mut rep.write_us);

    if mixed {
        check_mixed(
            served,
            &mut clients[0],
            traffic,
            base,
            results,
            oracle,
            &mut rep,
            tracer,
            parent,
            op_id,
        )?;
    } else {
        if oracle.view.is_none() {
            oracle.view = Some(load_view(&served.path)?);
        }
        let view = oracle.view.as_ref().ok_or("oracle view missing")?;
        let mut engine = QueryEngine::from_view(view);
        for (c, r) in results.iter().enumerate() {
            for (i, wire) in &r.checked {
                let request = traffic.request(traffic.streams[c][*i]).ok_or("checked a write")?;
                if let Err(why) = check_answer(wire, engine.execute(&request, &mut Noop)) {
                    rep.fail(format!("connection {c} op {i}: {why}"));
                }
            }
        }
    }
    Ok(rep)
}

#[allow(clippy::too_many_arguments)]
fn check_mixed(
    served: &mut Served,
    client: &mut Client,
    traffic: &Traffic,
    base: u64,
    results: Vec<ConnResult>,
    oracle: &mut Oracle<'_>,
    rep: &mut Rep,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    op_id: u64,
) -> Result<(), String> {
    // Acknowledged ordinals give the one total order the server applied the
    // writes in; the replica (whose first generation is 1) replays it.
    let mut checked: Vec<(usize, usize, CandidateResponse)> = Vec::new();
    let mut writes: Vec<(u64, DeltaOp)> = Vec::new();
    for (c, r) in results.into_iter().enumerate() {
        checked.extend(r.checked.into_iter().map(|(i, response)| (c, i, response)));
        writes.extend(r.acks);
    }
    writes.sort_unstable_by_key(|(ordinal, _)| *ordinal);
    if writes.iter().enumerate().any(|(k, (ordinal, _))| *ordinal != base + 1 + k as u64) {
        rep.fail(format!("write acknowledgements do not count up from generation {base}"));
    }
    checked.sort_by_key(|(_, _, response)| response.generation);
    let replica = GenerationCell::new(load_view(&served.path)?)
        .map_err(|e| format!("replica generation: {e}"))?;
    let mut pending = writes.iter();
    let mut apply_through = |ordinal: u64, rep: &mut Rep| {
        while replica.ordinal() + base - 1 < ordinal {
            let Some((_, op)) = pending.next() else { break };
            if let Err(e) = replica.apply(op.clone(), &mut Noop) {
                rep.fail(format!("replica apply: {e}"));
            }
        }
    };
    for (c, i, wire) in &checked {
        apply_through(wire.generation, rep);
        let generation = replica.load();
        let request = traffic.request(traffic.streams[*c][*i]).ok_or("checked a write")?;
        let local = QueryEngine::from_generation(&generation).execute(&request, &mut Noop);
        if let Err(why) = check_answer(wire, local) {
            rep.fail(format!("connection {c} op {i}: {why}"));
        }
    }
    apply_through(u64::MAX, rep);
    drop(replica);

    // One compaction, timed call by call.
    let (data, config) = (oracle.data, oracle.config);
    let ops: Vec<DeltaOp> = writes.into_iter().map(|(_, op)| op).collect();
    let (merged, merge) = tracer.timed("serve.compact.merge", parent, op_id, || {
        let mut merged = data.collection.clone();
        merge_ops(&mut merged, &ops).map(|()| merged)
    });
    let merged = merged.map_err(|e| format!("merge_ops: {e}"))?;
    let (compacted, build) =
        tracer.timed("serve.compact.build", parent, op_id, || Snapshot::build(&merged, config));
    let compacted = compacted.map_err(|e| format!("compaction: {e}"))?;
    let bytes = compacted.to_bytes();
    let (swapped, swap) =
        tracer.timed("serve.compact.swap", parent, op_id, || served.handle.swap(compacted));
    swapped.map_err(|e| format!("swap: {e}"))?;
    rep.compaction = Some(CompactionMs { merge, build, swap });

    // The compacted image equals a from-scratch build of the merged
    // profiles. Built once: the final op set is the same whichever way the
    // connections interleaved, so later repetitions compare hashes.
    rep.attempted += 1;
    let hash = hash_of(&bytes);
    match oracle.compacted_hash {
        None => {
            let fresh = Snapshot::build(&merged, config).map_err(|e| format!("fresh: {e}"))?;
            if fresh.to_bytes() != bytes {
                rep.fail("compacted snapshot differs from a from-scratch build".to_owned());
            }
            oracle.compacted_hash = Some(hash);
        }
        Some(first) if first != hash => {
            rep.fail("compacted snapshot differs between repetitions".to_owned());
        }
        Some(_) => {}
    }

    // The live, compacted server answers like an engine over that build.
    let fresh = SnapshotView::from_bytes(bytes).map_err(|e| format!("compacted view: {e}"))?;
    let mut engine = QueryEngine::from_view(&fresh);
    let entities = merged.len() as u32;
    // A handler checks for a new generation before it blocks on the next
    // frame, so the first request after a swap is still answered by the
    // generation it had pinned; send that one unchecked.
    let _ = client.execute(&CandidateRequest::entity(EntityId(0)));
    for k in 0..POST_COMPACTION_QUERIES.min(entities) {
        let id = (u64::from(k) * u64::from(entities) / u64::from(POST_COMPACTION_QUERIES)) as u32;
        let request = CandidateRequest::entity(EntityId(id.min(entities - 1)));
        rep.attempted += 1;
        let checked = match client.execute(&request) {
            Ok(wire) => check_answer(&wire, engine.execute(&request, &mut Noop)),
            Err(e) => Err(e.to_string()),
        };
        if let Err(why) = checked {
            rep.fail(format!("entity {id} after compaction: {why}"));
        }
    }

    served.handle.swap(load_view(&served.path)?).map_err(|e| format!("restoring: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_the_median_window_rate_times_connections() {
        let mut rep = Rep { ops: 300, wall_s: 0.1, connections: 2, ..Rep::default() };
        assert_eq!(rep.throughput(), 3000.0, "no full window: ops over wall");
        // One window stalled to a tenth of the others' rate does not show.
        rep.window_rates = vec![10_000.0, 1_000.0, 10_400.0, 9_800.0, 10_200.0];
        assert_eq!(rep.throughput(), 20_000.0);
    }
}
