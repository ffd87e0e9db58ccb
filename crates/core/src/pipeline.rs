//! The high-level meta-blocking pipeline.
//!
//! Assembles the paper's workflow of Figure 7(a): optional Block Filtering,
//! then graph-based pruning under a chosen weighting scheme — or the
//! graph-free workflow of Figure 7(b).
//!
//! The whole run is described by a [`PipelineConfig`] (serializable to JSON
//! for reproducible experiment manifests) and executed by
//! [`MetaBlocking::run`], which streams retained comparisons to a sink and
//! per-stage telemetry to an [`Observer`] — pass [`Noop`] to compile the
//! instrumentation down to nothing.

use crate::context::GraphContext;
use crate::filter::block_filtering;
use crate::parallel::{resolve_threads, Sweep};
use crate::prune;
use crate::weights::{EdgeWeigher, WeightingScheme};
use er_model::{BlockCollection, EntityId, ErKind, Result};
use mb_observe::json::Json;
use mb_observe::{Counter, Noop, Observer, Stage, StageScope};
use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

pub use crate::weighting::WeightingImpl;

/// Every pruning scheme the crate implements, as a selectable configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruningScheme {
    /// Cardinality Edge Pruning (global top-`K`).
    Cep,
    /// Cardinality Node Pruning, original directed semantics.
    Cnp,
    /// Weighted Edge Pruning (global mean threshold).
    Wep,
    /// Weighted Node Pruning, original directed semantics.
    Wnp,
    /// Redefined CNP (Algorithm 4).
    RedefinedCnp,
    /// Redefined WNP (Algorithm 5).
    RedefinedWnp,
    /// Reciprocal CNP (§5.2).
    ReciprocalCnp,
    /// Reciprocal WNP (§5.2).
    ReciprocalWnp,
}

impl PruningScheme {
    /// The four schemes of the prior-art framework (Table 3).
    pub const ORIGINAL: [PruningScheme; 4] =
        [PruningScheme::Cep, PruningScheme::Cnp, PruningScheme::Wep, PruningScheme::Wnp];

    /// The four schemes the paper introduces (Table 4).
    pub const ENHANCED: [PruningScheme; 4] = [
        PruningScheme::RedefinedCnp,
        PruningScheme::ReciprocalCnp,
        PruningScheme::RedefinedWnp,
        PruningScheme::ReciprocalWnp,
    ];

    /// All eight schemes, originals first.
    pub const ALL: [PruningScheme; 8] = [
        PruningScheme::Cep,
        PruningScheme::Cnp,
        PruningScheme::Wep,
        PruningScheme::Wnp,
        PruningScheme::RedefinedCnp,
        PruningScheme::ReciprocalCnp,
        PruningScheme::RedefinedWnp,
        PruningScheme::ReciprocalWnp,
    ];

    /// The paper's abbreviation.
    pub fn name(self) -> &'static str {
        match self {
            PruningScheme::Cep => "CEP",
            PruningScheme::Cnp => "CNP",
            PruningScheme::Wep => "WEP",
            PruningScheme::Wnp => "WNP",
            PruningScheme::RedefinedCnp => "Redefined CNP",
            PruningScheme::RedefinedWnp => "Redefined WNP",
            PruningScheme::ReciprocalCnp => "Reciprocal CNP",
            PruningScheme::ReciprocalWnp => "Reciprocal WNP",
        }
    }

    /// The stable lowercase token used on command lines and in JSON configs
    /// (the [`std::fmt::Display`]/[`FromStr`] form).
    pub fn token(self) -> &'static str {
        match self {
            PruningScheme::Cep => "cep",
            PruningScheme::Cnp => "cnp",
            PruningScheme::Wep => "wep",
            PruningScheme::Wnp => "wnp",
            PruningScheme::RedefinedCnp => "redefined-cnp",
            PruningScheme::RedefinedWnp => "redefined-wnp",
            PruningScheme::ReciprocalCnp => "reciprocal-cnp",
            PruningScheme::ReciprocalWnp => "reciprocal-wnp",
        }
    }

    /// Whether the scheme prunes per node (vs per edge).
    pub fn is_node_centric(self) -> bool {
        !matches!(self, PruningScheme::Cep | PruningScheme::Wep)
    }

    /// Whether the scheme can emit the same pair twice (original directed
    /// node-centric semantics).
    pub fn emits_redundant_comparisons(self) -> bool {
        matches!(self, PruningScheme::Cnp | PruningScheme::Wnp)
    }
}

impl fmt::Display for PruningScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for PruningScheme {
    type Err = String;

    /// Parses the CLI token (`cep`, `reciprocal-wnp`, …), case-insensitively
    /// and accepting `_` for `-`.
    fn from_str(s: &str) -> std::result::Result<PruningScheme, String> {
        let canon = s.trim().to_ascii_lowercase().replace('_', "-");
        PruningScheme::ALL
            .into_iter()
            .find(|p| p.token() == canon)
            .ok_or_else(|| format!("unknown pruning scheme '{s}' (try e.g. cep, reciprocal-wnp)"))
    }
}

/// The full configuration of a meta-blocking run — everything needed to
/// reproduce it, round-trippable through JSON.
///
/// ```
/// use mb_core::pipeline::PipelineConfig;
///
/// let cfg: PipelineConfig = "{\"weighting\":\"ecbs\",\"pruning\":\"cep\"}".parse().unwrap();
/// assert_eq!(cfg.weighting, mb_core::WeightingScheme::Ecbs);
/// let back: PipelineConfig = cfg.to_json_string().parse().unwrap();
/// assert_eq!(back, cfg);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// The edge-weighting scheme (§3; default JS).
    pub weighting: WeightingScheme,
    /// The pruning scheme (default Reciprocal WNP, the paper's pick for
    /// effectiveness-intensive applications).
    pub pruning: PruningScheme,
    /// Original (Algorithm 2) or Optimized (Algorithm 3) edge weighting.
    pub weighting_impl: WeightingImpl,
    /// Block Filtering ratio in `(0, 1]`, or `None` to skip filtering.
    pub filter_ratio: Option<f64>,
    /// Worker threads for the graph sweeps: 1 = on the calling thread, `n` =
    /// up to `n` workers, 0 = auto-detect the available parallelism. Every
    /// pruning scheme parallelizes under Optimized weighting; output and
    /// counters do not depend on the value.
    pub threads: usize,
    /// Whether binaries should attach the human progress printer.
    pub progress: bool,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            weighting: WeightingScheme::Js,
            pruning: PruningScheme::ReciprocalWnp,
            weighting_impl: WeightingImpl::Optimized,
            filter_ratio: None,
            threads: 1,
            progress: false,
        }
    }
}

impl PipelineConfig {
    /// Checks the invariants a run relies on: filter ratio in `(0, 1]`.
    /// `threads == 0` is valid and means auto-detect
    /// (see [`PipelineConfig::effective_threads`]).
    pub fn validate(&self) -> std::result::Result<(), String> {
        if let Some(r) = self.filter_ratio {
            if !(r > 0.0 && r <= 1.0) {
                return Err(format!("filter ratio {r} outside (0, 1]"));
            }
        }
        Ok(())
    }

    /// The worker-thread count a run actually uses: `threads` itself, or —
    /// when it is 0 — the host's ([`crate::parallel::host_threads`]).
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }

    /// Serializes to a single-line JSON object.
    pub fn to_json_string(&self) -> String {
        let mut obj = Json::obj();
        obj.push("weighting", Json::Str(self.weighting.token().into()));
        obj.push("pruning", Json::Str(self.pruning.token().into()));
        obj.push("weighting_impl", Json::Str(self.weighting_impl.token().into()));
        obj.push(
            "filter_ratio",
            match self.filter_ratio {
                Some(r) => Json::Num(r),
                None => Json::Null,
            },
        );
        obj.push("threads", Json::Uint(self.threads as u64));
        obj.push("progress", Json::Bool(self.progress));
        obj.render()
    }

    /// Deserializes from JSON. Unknown keys are rejected (a typoed key
    /// silently reverting to a default would corrupt an experiment); absent
    /// keys take their [`Default`] value.
    pub fn from_json_str(s: &str) -> std::result::Result<PipelineConfig, String> {
        let json = Json::parse(s).map_err(|e| format!("config is not valid JSON: {e}"))?;
        let Json::Obj(pairs) = &json else {
            return Err("config must be a JSON object".into());
        };
        let mut cfg = PipelineConfig::default();
        for (key, value) in pairs {
            match key.as_str() {
                "weighting" => {
                    let s = value.as_str().ok_or("'weighting' must be a string")?;
                    cfg.weighting = s.parse()?;
                }
                "pruning" => {
                    let s = value.as_str().ok_or("'pruning' must be a string")?;
                    cfg.pruning = s.parse()?;
                }
                "weighting_impl" => {
                    let s = value.as_str().ok_or("'weighting_impl' must be a string")?;
                    cfg.weighting_impl = s.parse()?;
                }
                "filter_ratio" => {
                    cfg.filter_ratio = match value {
                        Json::Null => None,
                        other => {
                            Some(other.as_f64().ok_or("'filter_ratio' must be a number or null")?)
                        }
                    };
                }
                "threads" => {
                    cfg.threads =
                        value.as_u64().ok_or("'threads' must be a non-negative integer")? as usize;
                }
                "progress" => {
                    cfg.progress = match value {
                        Json::Bool(b) => *b,
                        _ => return Err("'progress' must be a boolean".into()),
                    };
                }
                other => return Err(format!("unknown config key '{other}'")),
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

impl FromStr for PipelineConfig {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<PipelineConfig, String> {
        PipelineConfig::from_json_str(s)
    }
}

/// Builder for a full meta-blocking run.
///
/// ```
/// use er_blocking::{fixtures, BlockingMethod, TokenBlocking};
/// use mb_core::{MetaBlocking, PruningScheme, WeightingScheme};
///
/// let collection = fixtures::figure1_collection();
/// let blocks = TokenBlocking.build(&collection);
/// let retained = MetaBlocking::new(WeightingScheme::Js, PruningScheme::Wep)
///     .run_collect(&blocks, collection.split())
///     .unwrap();
/// // WEP with the exact mean threshold keeps the 4 strongest edges of
/// // Figure 2(a), both duplicate pairs among them.
/// assert_eq!(retained.len(), 4);
/// ```
///
/// To observe the run, pass any [`Observer`] to [`MetaBlocking::run`]:
///
/// ```
/// use er_blocking::{fixtures, BlockingMethod, TokenBlocking};
/// use mb_core::{MetaBlocking, PruningScheme, WeightingScheme};
/// use mb_observe::RunReport;
///
/// let collection = fixtures::figure1_collection();
/// let blocks = TokenBlocking.build(&collection);
/// let mut report = RunReport::new("doc");
/// let mut n = 0usize;
/// MetaBlocking::new(WeightingScheme::Js, PruningScheme::Wep)
///     .run(&blocks, collection.split(), &mut report, |_a, _b| n += 1)
///     .unwrap();
/// assert_eq!(report.counter_total(mb_observe::Counter::RetainedComparisons), n as u64);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MetaBlocking {
    config: PipelineConfig,
}

impl MetaBlocking {
    /// A pipeline with the given weighting scheme and pruning scheme, no
    /// Block Filtering, Optimized Edge Weighting, one thread.
    pub fn new(scheme: WeightingScheme, pruning: PruningScheme) -> Self {
        MetaBlocking {
            config: PipelineConfig { weighting: scheme, pruning, ..PipelineConfig::default() },
        }
    }

    /// A pipeline executing exactly `config`.
    pub fn from_config(config: PipelineConfig) -> Self {
        MetaBlocking { config }
    }

    /// The full configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Enables Block Filtering with ratio `r` as pre-processing.
    #[must_use]
    pub fn with_block_filtering(mut self, r: f64) -> Self {
        self.config.filter_ratio = Some(r);
        self
    }

    /// Selects the edge-weighting implementation (default: Optimized).
    #[must_use]
    pub fn with_weighting_impl(mut self, imp: WeightingImpl) -> Self {
        self.config.weighting_impl = imp;
        self
    }

    /// Sets the worker-thread count for the parallel pruning paths
    /// (default 1 = sequential; 0 = auto-detect).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// The configured weighting scheme.
    pub fn scheme(&self) -> WeightingScheme {
        self.config.weighting
    }

    /// The configured pruning scheme.
    pub fn pruning(&self) -> PruningScheme {
        self.config.pruning
    }

    /// Runs the pipeline, streaming every retained comparison to `sink` and
    /// per-stage telemetry to `obs`.
    ///
    /// `split` is the Clean-Clean id boundary
    /// ([`er_model::EntityCollection::split`]); for Dirty ER pass the
    /// collection size — [`er_model::EntityCollection::split`] returns
    /// exactly that, so `collection.split()` is always correct.
    ///
    /// Pass [`Noop`] (or any disabled observer) for an unobserved run —
    /// every instrumentation point checks `enabled()` once and touches no
    /// clock or counter when it is false, so the cost is a branch per stage,
    /// not per comparison. Counter totals are deterministic: independent of
    /// the thread count and of whether an observer is attached.
    pub fn run(
        &self,
        blocks: &BlockCollection,
        split: usize,
        obs: &mut dyn Observer,
        sink: impl FnMut(EntityId, EntityId),
    ) -> Result<()> {
        let (input, split) = prologue(blocks, split, self.config.filter_ratio, obs)?;
        // Building the graph context (entity index) and the weigher's
        // per-scheme statistics is the fixed cost of every graph-based
        // scheme; it reports as the first EdgeWeighting record.
        let mut scope = StageScope::enter(obs, Stage::EdgeWeighting);
        let ctx = GraphContext::new(&input, split);
        let weigher = EdgeWeigher::new(self.config.weighting, &ctx);
        if scope.enabled() {
            scope.add(Counter::Entities, ctx.num_entities() as u64);
            scope.add(Counter::BlocksIn, input.size() as u64);
            scope.add(Counter::ComparisonsIn, input.total_comparisons());
        }
        scope.finish();
        // Every scheme runs on one ordered, windowed sweep for any thread
        // count; Original weighting has no pivot windows and runs inline.
        let sweep = Sweep::new(&ctx, &weigher, self.config.weighting_impl, self.config.threads);
        // Sanitize mode: validate the pruning input up front, pre-compute
        // the redefined retained-set a reciprocal scheme must stay inside,
        // and check every retained comparison as it streams out.
        #[cfg(feature = "sanitize")]
        let redefined = {
            crate::sanitize::check_pipeline_input(&ctx);
            match self.config.pruning {
                PruningScheme::ReciprocalCnp => {
                    Some(crate::sanitize::redefined_retained_set(true, &sweep))
                }
                PruningScheme::ReciprocalWnp => {
                    Some(crate::sanitize::redefined_retained_set(false, &sweep))
                }
                _ => None,
            }
        };
        #[cfg(not(feature = "sanitize"))]
        let mut sink = sink;
        #[cfg(feature = "sanitize")]
        let mut sink = {
            let ctx = &ctx;
            let mut inner = sink;
            move |a: EntityId, b: EntityId| {
                crate::sanitize::check_retained(ctx, a, b, redefined.as_ref());
                inner(a, b)
            }
        };
        match self.config.pruning {
            PruningScheme::Cep => prune::cep(&sweep, obs, &mut sink),
            PruningScheme::Cnp => prune::cnp(&sweep, obs, &mut sink),
            PruningScheme::Wep => prune::wep(&sweep, obs, &mut sink),
            PruningScheme::Wnp => prune::wnp(&sweep, obs, &mut sink),
            PruningScheme::RedefinedCnp => prune::redefined_cnp(&sweep, obs, &mut sink),
            PruningScheme::RedefinedWnp => prune::redefined_wnp(&sweep, obs, &mut sink),
            PruningScheme::ReciprocalCnp => prune::reciprocal_cnp(&sweep, obs, &mut sink),
            PruningScheme::ReciprocalWnp => prune::reciprocal_wnp(&sweep, obs, &mut sink),
        }
        Ok(())
    }

    /// Runs the pipeline unobserved and collects the retained comparisons.
    ///
    /// For the original node-centric schemes the result may contain the same
    /// pair twice (their documented redundancy); every other scheme yields
    /// distinct pairs.
    pub fn run_collect(
        &self,
        blocks: &BlockCollection,
        split: usize,
    ) -> Result<Vec<(EntityId, EntityId)>> {
        let mut out = Vec::new();
        self.run(blocks, split, &mut Noop, |a, b| out.push((a, b)))?;
        Ok(out)
    }
}

/// The prologue of both Figure 7 workflows: Block Filtering with ratio `r`
/// when one is given, reported as [`Stage::BlockFiltering`], and the split
/// the graph is built over — `split` on Clean-Clean ER, the collection size
/// on Dirty ER whatever the caller passed.
pub(crate) fn prologue<'a>(
    blocks: &'a BlockCollection,
    split: usize,
    r: Option<f64>,
    obs: &mut dyn Observer,
) -> Result<(Cow<'a, BlockCollection>, usize)> {
    let split = if blocks.kind() == ErKind::Dirty { blocks.num_entities() } else { split };
    let Some(r) = r else {
        return Ok((Cow::Borrowed(blocks), split));
    };
    let mut scope = StageScope::enter(obs, Stage::BlockFiltering);
    let filtered = block_filtering(blocks, r)?;
    if scope.enabled() {
        scope.add(Counter::BlocksIn, blocks.size() as u64);
        scope.add(Counter::BlocksOut, filtered.size() as u64);
        scope.add(Counter::ComparisonsIn, blocks.total_comparisons());
        scope.add(Counter::ComparisonsOut, filtered.total_comparisons());
        scope.add(Counter::AssignmentsIn, blocks.total_assignments());
        scope.add(Counter::AssignmentsOut, filtered.total_assignments());
        scope.add(Counter::Entities, blocks.num_entities() as u64);
    }
    scope.finish();
    Ok((Cow::Owned(filtered), split))
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{Block, GroundTruth};
    use mb_observe::{RingLog, RunReport, StageEvent};

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn fixture() -> BlockCollection {
        BlockCollection::new(
            ErKind::Dirty,
            4,
            vec![
                Block::dirty(ids(&[0, 1])),
                Block::dirty(ids(&[0, 1, 2])),
                Block::dirty(ids(&[2, 3])),
            ],
        )
    }

    /// Blocks crossing a split at 3: left {0,1,2}, right {3,4,5}.
    fn clean_fixture() -> BlockCollection {
        BlockCollection::new(
            ErKind::CleanClean,
            6,
            vec![
                Block::clean_clean(ids(&[0, 1]), ids(&[3, 4])),
                Block::clean_clean(ids(&[0]), ids(&[3])),
                Block::clean_clean(ids(&[2]), ids(&[5])),
            ],
        )
    }

    #[test]
    fn scheme_metadata() {
        assert_eq!(PruningScheme::Cep.name(), "CEP");
        assert!(!PruningScheme::Cep.is_node_centric());
        assert!(PruningScheme::ReciprocalWnp.is_node_centric());
        assert!(PruningScheme::Cnp.emits_redundant_comparisons());
        assert!(!PruningScheme::RedefinedCnp.emits_redundant_comparisons());
        assert_eq!(PruningScheme::ORIGINAL.len(), 4);
        assert_eq!(PruningScheme::ENHANCED.len(), 4);
    }

    #[test]
    fn pruning_scheme_round_trips_through_strings() {
        for p in PruningScheme::ALL {
            assert_eq!(p.to_string().parse::<PruningScheme>().unwrap(), p);
        }
        assert_eq!(
            "Reciprocal_WNP".parse::<PruningScheme>().unwrap(),
            PruningScheme::ReciprocalWnp
        );
        assert!("cnp2".parse::<PruningScheme>().is_err());
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = PipelineConfig {
            weighting: WeightingScheme::Ecbs,
            pruning: PruningScheme::RedefinedCnp,
            weighting_impl: WeightingImpl::Original,
            filter_ratio: Some(0.55),
            threads: 8,
            progress: true,
        };
        let json = cfg.to_json_string();
        assert_eq!(PipelineConfig::from_json_str(&json).unwrap(), cfg);
        // Default round-trips too (filter_ratio = null path).
        let def = PipelineConfig::default();
        assert_eq!(def.to_json_string().parse::<PipelineConfig>().unwrap(), def);
    }

    #[test]
    fn config_rejects_bad_input() {
        assert!(PipelineConfig::from_json_str("{\"weighting\":\"zzz\"}").is_err());
        assert!(PipelineConfig::from_json_str("{\"filter_ratio\":2.0}").is_err());
        assert!(PipelineConfig::from_json_str("{\"threads\":-1}").is_err());
        assert!(PipelineConfig::from_json_str("{\"no_such_key\":1}").is_err());
        assert!(PipelineConfig::from_json_str("[1,2]").is_err());
        // Partial configs fill in defaults.
        let cfg = PipelineConfig::from_json_str("{\"pruning\":\"cep\"}").unwrap();
        assert_eq!(cfg.pruning, PruningScheme::Cep);
        assert_eq!(cfg.weighting, WeightingScheme::Js);
    }

    #[test]
    fn threads_zero_means_auto_detect() {
        // `"threads": 0` is accepted and resolves to the machine's available
        // parallelism at run time, never to 0 workers.
        let cfg = PipelineConfig::from_json_str("{\"threads\":0}").unwrap();
        assert_eq!(cfg.threads, 0);
        assert!(cfg.validate().is_ok());
        assert!(cfg.effective_threads() >= 1);
        // Round-trips: the stored (not the resolved) value is serialized.
        let back: PipelineConfig = cfg.to_json_string().parse().unwrap();
        assert_eq!(back.threads, 0);
        // Explicit counts pass through unchanged.
        let four = PipelineConfig { threads: 4, ..PipelineConfig::default() };
        assert_eq!(four.effective_threads(), 4);
        // The builder keeps 0 as auto rather than clamping it away.
        assert_eq!(MetaBlocking::default().with_threads(0).config().threads, 0);
    }

    /// Every scheme routed through the parallel path produces the same
    /// output as the sequential pipeline (threads = 1), for both ER kinds.
    #[test]
    fn parallel_pipeline_matches_sequential_for_every_scheme() {
        let (dirty, clean) = (fixture(), clean_fixture());
        for (blocks, split) in [(&dirty, 4usize), (&clean, 3usize)] {
            for pruning in PruningScheme::ALL {
                let seq = MetaBlocking::new(WeightingScheme::Js, pruning)
                    .run_collect(blocks, split)
                    .unwrap();
                for threads in [2, 8] {
                    let par = MetaBlocking::new(WeightingScheme::Js, pruning)
                        .with_threads(threads)
                        .run_collect(blocks, split)
                        .unwrap();
                    assert_eq!(par, seq, "{} x{threads}", pruning.name());
                }
            }
        }
    }

    #[test]
    fn every_configuration_runs() {
        let blocks = fixture();
        for scheme in WeightingScheme::ALL {
            for pruning in PruningScheme::ALL {
                for imp in [WeightingImpl::Original, WeightingImpl::Optimized] {
                    let out = MetaBlocking::new(scheme, pruning)
                        .with_weighting_impl(imp)
                        .run_collect(&blocks, 4)
                        .unwrap();
                    assert!(!out.is_empty(), "{} + {}", scheme.name(), pruning.name());
                }
            }
        }
    }

    /// Both weighting implementations retain the same comparisons, on Dirty
    /// and on Clean-Clean ER. A two-phase scheme emits them in its edge
    /// sweep's order — block order under Original, pivot order under
    /// Optimized — so its sequence is checked too: each implementation emits
    /// its own edge stream filtered to the other's retained set.
    #[test]
    fn original_and_optimized_impls_agree() {
        let (dirty, clean) = (fixture(), clean_fixture());
        for (blocks, split) in [(&dirty, 4usize), (&clean, 3usize)] {
            let ctx = GraphContext::new(blocks, split);
            for scheme in WeightingScheme::ALL {
                let weigher = EdgeWeigher::new(scheme, &ctx);
                for pruning in PruningScheme::ALL {
                    let what =
                        format!("{:?} {} + {}", blocks.kind(), scheme.name(), pruning.name());
                    let run = |imp| {
                        MetaBlocking::new(scheme, pruning)
                            .with_weighting_impl(imp)
                            .run_collect(blocks, split)
                            .unwrap()
                    };
                    let (a, b) = (run(WeightingImpl::Original), run(WeightingImpl::Optimized));
                    let norm = |v: &[(EntityId, EntityId)]| {
                        let mut v: Vec<(u32, u32)> =
                            v.iter().map(|&(x, y)| (x.0.min(y.0), x.0.max(y.0))).collect();
                        v.sort_unstable();
                        v
                    };
                    assert_eq!(norm(&a), norm(&b), "{what}");
                    if !pruning.is_node_centric() || pruning.emits_redundant_comparisons() {
                        continue;
                    }
                    for (imp, got, other) in
                        [(WeightingImpl::Original, &a, &b), (WeightingImpl::Optimized, &b, &a)]
                    {
                        let mut want = Vec::new();
                        crate::weighting::for_each_edge(imp, &ctx, &weigher, |x, y, _| {
                            if other.contains(&(x, y)) {
                                want.push((x, y));
                            }
                        });
                        assert_eq!(got, &want, "{what} under {imp}");
                    }
                }
            }
        }
    }

    #[test]
    fn block_filtering_is_applied_first() {
        let blocks = fixture();
        // CEP's K = ⌊Σ|b|/2⌋ shrinks with the filtered assignments, so its
        // output cannot grow under Block Filtering.
        let unfiltered = MetaBlocking::new(WeightingScheme::Cbs, PruningScheme::Cep)
            .run_collect(&blocks, 4)
            .unwrap();
        let filtered = MetaBlocking::new(WeightingScheme::Cbs, PruningScheme::Cep)
            .with_block_filtering(0.5)
            .run_collect(&blocks, 4)
            .unwrap();
        assert!(filtered.len() < unfiltered.len());
    }

    #[test]
    fn invalid_filter_ratio_propagates() {
        let blocks = fixture();
        let res = MetaBlocking::new(WeightingScheme::Js, PruningScheme::Wep)
            .with_block_filtering(2.0)
            .run_collect(&blocks, 4);
        assert!(res.is_err());
    }

    #[test]
    fn pruning_keeps_the_duplicates() {
        // The strongest edge is the duplicate pair; every scheme must keep it.
        let blocks = fixture();
        let gt = GroundTruth::from_pairs(vec![(EntityId(0), EntityId(1))]);
        for pruning in PruningScheme::ALL {
            let out =
                MetaBlocking::new(WeightingScheme::Js, pruning).run_collect(&blocks, 4).unwrap();
            assert!(
                out.iter().any(|&(a, b)| gt.are_duplicates(a, b)),
                "{} lost the duplicate",
                pruning.name()
            );
        }
    }

    #[test]
    fn graph_free_runs() {
        let blocks = fixture();
        let mut n = 0;
        crate::graphfree::graph_free_meta_blocking(&blocks, 4, 0.5, 1, &mut Noop, |_, _| n += 1)
            .unwrap();
        assert!(n > 0);
    }

    #[test]
    fn clean_clean_pipeline_respects_the_split() {
        let blocks = clean_fixture();
        for scheme in WeightingScheme::ALL {
            for pruning in PruningScheme::ALL {
                let out = MetaBlocking::new(scheme, pruning).run_collect(&blocks, 3).unwrap();
                assert!(!out.is_empty(), "{} + {}", scheme.name(), pruning.name());
                for (a, b) in out {
                    assert!(
                        (a.idx() < 3) != (b.idx() < 3),
                        "{} + {}: intra-collection pair {a}-{b}",
                        scheme.name(),
                        pruning.name()
                    );
                }
            }
        }
    }

    #[test]
    fn strongest_clean_clean_edge_always_survives() {
        let blocks = BlockCollection::new(
            ErKind::CleanClean,
            6,
            vec![
                Block::clean_clean(ids(&[0, 1]), ids(&[3, 4])),
                Block::clean_clean(ids(&[0]), ids(&[3])),
                Block::clean_clean(ids(&[0, 2]), ids(&[3, 5])),
            ],
        );
        // (0,3) shares all three blocks: the strongest edge under the
        // schemes that reward raw co-occurrence. (ECBS/EJS legitimately
        // discount it to zero — profile 0 sits in every block, so it
        // carries no discriminating signal under their logarithms.)
        for scheme in [WeightingScheme::Arcs, WeightingScheme::Cbs, WeightingScheme::Js] {
            for pruning in PruningScheme::ALL {
                let out = MetaBlocking::new(scheme, pruning).run_collect(&blocks, 3).unwrap();
                assert!(
                    out.iter().any(|&(a, b)| (a.0, b.0) == (0, 3) || (b.0, a.0) == (0, 3)),
                    "{} + {} lost the strongest edge",
                    scheme.name(),
                    pruning.name()
                );
            }
        }
    }

    /// The acceptance criterion on event order: stages observe in the
    /// Figure 7(a) sequence — Block Filtering, Edge Weighting, Pruning —
    /// with balanced Enter/Exit pairs (scopes never nest).
    #[test]
    fn observer_sees_figure7_stage_order() {
        let blocks = fixture();
        for pruning in PruningScheme::ALL {
            let mut log = RingLog::new(64);
            MetaBlocking::new(WeightingScheme::Js, pruning)
                .with_block_filtering(0.8)
                .run(&blocks, 4, &mut log, |_, _| {})
                .unwrap();
            let exits = log.exit_order();
            assert_eq!(exits.first(), Some(&Stage::BlockFiltering), "{}", pruning.name());
            assert_eq!(exits.last(), Some(&Stage::Pruning), "{}", pruning.name());
            // Workflow-rank monotone: filtering ≤ weighting ≤ pruning.
            for w in exits.windows(2) {
                assert!(
                    w[0].workflow_rank() <= w[1].workflow_rank(),
                    "{}: {:?} after {:?}",
                    pruning.name(),
                    w[1],
                    w[0]
                );
            }
            // Scopes are sequential: an Enter is always followed by its own
            // Exit before the next Enter.
            let mut open: Option<Stage> = None;
            for ev in log.events() {
                match ev {
                    StageEvent::Enter(s) => {
                        assert!(open.is_none(), "nested Enter({s})");
                        open = Some(s);
                    }
                    StageEvent::Exit(s, _) => {
                        assert_eq!(open.take(), Some(s), "unbalanced Exit({s})");
                    }
                }
            }
            assert!(open.is_none());
        }
    }

    /// Counter totals are exact for every scheme: retained_comparisons
    /// equals the number of sink invocations.
    #[test]
    fn retained_counter_matches_sink_for_every_scheme() {
        let blocks = fixture();
        for scheme in WeightingScheme::ALL {
            for pruning in PruningScheme::ALL {
                let mut report = RunReport::new("test");
                let mut n = 0u64;
                MetaBlocking::new(scheme, pruning)
                    .run(&blocks, 4, &mut report, |_, _| n += 1)
                    .unwrap();
                assert_eq!(
                    report.counter_total(Counter::RetainedComparisons),
                    n,
                    "{} + {}",
                    scheme.name(),
                    pruning.name()
                );
            }
        }
    }

    /// The filtering stage reports the block/comparison/assignment shrink.
    #[test]
    fn filtering_stage_reports_shrink() {
        let blocks = fixture();
        let mut report = RunReport::new("test");
        MetaBlocking::new(WeightingScheme::Cbs, PruningScheme::Cep)
            .with_block_filtering(0.5)
            .run(&blocks, 4, &mut report, |_, _| {})
            .unwrap();
        let rec = report.stage(Stage::BlockFiltering).expect("filtering record");
        assert_eq!(rec.counters.get(Counter::BlocksIn), 3);
        assert!(
            rec.counters.get(Counter::AssignmentsOut) < rec.counters.get(Counter::AssignmentsIn)
        );
        assert_eq!(rec.counters.get(Counter::Entities), 4);
    }
}
