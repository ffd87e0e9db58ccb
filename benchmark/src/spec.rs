//! The benchmark's vocabulary: workload and metric names with their units.
//! `BENCHMARK.json` at the repository root lists the same names (a unit
//! test holds the two together); bounds and directions live only there.

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Name as it appears in `BENCHMARK.json` and in the result line.
    pub name: &'static str,
    /// Unit as it appears there.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// The six workloads, batch first.
pub const WORKLOADS: [&str; 6] =
    ["batch-d1d", "batch-d2c", "batch-d3d", "serve-entity", "serve-probe", "serve-mixed"];

/// What a user of the system sees; reported by an untraced run.
pub const END_TO_END: [MetricSpec; 4] = [
    m("setup_s", "s"),
    m("throughput_per_s", "1/s"),
    m("latency_p50_us", "us"),
    m("peak_rss_mb", "MB"),
];

/// Single-layer measurements (layer = crate.module); reported by a traced
/// run, every one of them on every workload's own dataset.
pub const PER_LAYER: [MetricSpec; 53] = [
    m("nproc", "count"),
    m("host.slowdown", "ratio"),
    m("batch.pipeline_ms", "ms"),
    m("batch.pipeline_self_ms", "ms"),
    m("blocking.build_ms", "ms"),
    m("blocking.purge_ms", "ms"),
    m("blocking.blocks", "count"),
    m("blocking.comparisons", "count"),
    m("core.filter_ms", "ms"),
    m("core.filter.comparisons_out", "count"),
    m("core.index_ms", "ms"),
    m("core.weight_ms", "ms"),
    m("core.weight.edges", "count"),
    m("core.metablock_ms", "ms"),
    m("core.prune_self_ms", "ms"),
    m("core.prune.retained", "count"),
    m("core.prune.pc", "ratio"),
    m("core.prune.pq", "ratio"),
    m("core.metablock_tn_ms", "ms"),
    m("serve.snapshot.build_ms", "ms"),
    m("serve.snapshot.encode_ms", "ms"),
    m("serve.snapshot.write_ms", "ms"),
    m("serve.snapshot.bytes_per_entity", "B"),
    m("serve.view.load_ms", "ms"),
    m("serve.engine.entity_us", "us"),
    m("serve.engine.probe_us", "us"),
    m("serve.engine.edges_scored_per_query", "count"),
    m("serve.engine.blocks_touched_per_query", "count"),
    m("serve.protocol.request_encode_us", "us"),
    m("serve.protocol.request_parse_us", "us"),
    m("serve.protocol.response_encode_us", "us"),
    m("serve.protocol.response_parse_us", "us"),
    m("serve.protocol.frame_us", "us"),
    m("serve.protocol.request_bytes", "B"),
    m("serve.protocol.response_bytes", "B"),
    m("serve.server.rtt_us", "us"),
    m("serve.server.socket_self_us", "us"),
    m("serve.server.rtt_1conn_p50_us", "us"),
    m("serve.server.write_rtt_us", "us"),
    m("serve.generation.apply_us", "us"),
    m("serve.generation.pin_us", "us"),
    m("serve.delta.overlay_ops", "count"),
    m("serve.delta.tombstones", "count"),
    m("serve.compact.merge_ms", "ms"),
    m("serve.compact.build_ms", "ms"),
    m("serve.compact.swap_ms", "ms"),
    m("tail.latency_us", "us"),
    m("tail.percentile", "%"),
    m("tail.write_rtt_us", "us"),
    m("trace.latency_p50_us", "us"),
    m("trace.throughput_per_s", "1/s"),
    m("trace.spans", "count"),
    m("trace_overhead_pct", "%"),
];
