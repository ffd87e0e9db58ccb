//! The five edge-weighting schemes of Figure 4.
//!
//! All weights are "analogous to the likelihood that the incident entities
//! are matching"; only their relative order matters to the pruning
//! algorithms, so no normalization is applied (ECBS/EJS are unbounded).

use crate::context::GraphContext;
use crate::scanner::{Accumulate, NeighborhoodScanner, ScanScope};
use crate::store::CandidateStore;
use er_model::EntityId;

/// The weighting schemes of the meta-blocking framework (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightingScheme {
    /// Aggregate Reciprocal Comparisons: `Σ_{b∈B_ij} 1/‖b‖` — "the smaller
    /// the blocks two profiles share, the more likely they are to match".
    Arcs,
    /// Common Blocks: `|B_ij|` — the fundamental redundancy-positive signal.
    Cbs,
    /// Enhanced Common Blocks: `CBS · log(|B|/|B_i|) · log(|B|/|B_j|)` —
    /// discounts profiles placed in many blocks.
    Ecbs,
    /// Jaccard Similarity of the block lists:
    /// `|B_ij| / (|B_i| + |B_j| − |B_ij|)`.
    Js,
    /// Enhanced Jaccard Similarity: `JS · log(|E_B|/|v_i|) · log(|E_B|/|v_j|)`
    /// — discounts profiles with a high node degree.
    Ejs,
}

impl WeightingScheme {
    /// All five schemes, in the paper's order. Table 3/4/5 rows average over
    /// these.
    pub const ALL: [WeightingScheme; 5] = [
        WeightingScheme::Arcs,
        WeightingScheme::Cbs,
        WeightingScheme::Ecbs,
        WeightingScheme::Js,
        WeightingScheme::Ejs,
    ];

    /// The paper's abbreviation for the scheme.
    pub fn name(self) -> &'static str {
        match self {
            WeightingScheme::Arcs => "ARCS",
            WeightingScheme::Cbs => "CBS",
            WeightingScheme::Ecbs => "ECBS",
            WeightingScheme::Js => "JS",
            WeightingScheme::Ejs => "EJS",
        }
    }

    /// What the neighborhood scan must accumulate for this scheme.
    pub fn accumulate(self) -> Accumulate {
        match self {
            WeightingScheme::Arcs => Accumulate::ReciprocalCardinalities,
            _ => Accumulate::CommonBlocks,
        }
    }

    /// Whether the scheme needs the node-degree pre-pass (EJS only).
    pub fn needs_degrees(self) -> bool {
        matches!(self, WeightingScheme::Ejs)
    }

    /// The stable lowercase token used on command lines and in JSON configs
    /// (the [`std::fmt::Display`]/[`std::str::FromStr`] form).
    pub fn token(self) -> &'static str {
        match self {
            WeightingScheme::Arcs => "arcs",
            WeightingScheme::Cbs => "cbs",
            WeightingScheme::Ecbs => "ecbs",
            WeightingScheme::Js => "js",
            WeightingScheme::Ejs => "ejs",
        }
    }
}

impl std::fmt::Display for WeightingScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

impl std::str::FromStr for WeightingScheme {
    type Err = String;

    /// Parses the CLI token (`arcs`, `cbs`, `ecbs`, `js`, `ejs`),
    /// case-insensitively.
    fn from_str(s: &str) -> Result<WeightingScheme, String> {
        let canon = s.trim().to_ascii_lowercase();
        WeightingScheme::ALL.into_iter().find(|w| w.token() == canon).ok_or_else(|| {
            format!("unknown weighting scheme '{s}' (expected one of arcs, cbs, ecbs, js, ejs)")
        })
    }
}

/// Node degrees `|v_i|` and graph size `|E_B|`, required by EJS.
///
/// Computed with one GreaterOnly scan sweep: `O(‖B‖)`.
#[derive(Debug, Clone)]
pub struct Degrees {
    /// `|v_i|` per entity id.
    pub per_node: Vec<u32>,
    /// `|E_B|`: the number of distinct edges in the blocking graph.
    pub total_edges: u64,
}

impl Degrees {
    /// Computes degrees over the blocking graph of `store`.
    pub fn compute<S: CandidateStore>(store: &S) -> Self {
        let n = store.num_entities();
        let mut per_node = vec![0u32; n];
        let mut total_edges = 0u64;
        let mut scanner = NeighborhoodScanner::new(n);
        for i in 0..n as u32 {
            let pivot = EntityId(i);
            // GreaterOnly visits each edge exactly once (for Clean-Clean ER
            // every right-side id exceeds every left-side id, so the edge is
            // charged to its left endpoint).
            let hood = scanner.scan(store, pivot, Accumulate::CommonBlocks, ScanScope::GreaterOnly);
            for &j in hood.ids {
                per_node[pivot.idx()] += 1;
                per_node[j as usize] += 1;
                total_edges += 1;
            }
        }
        Degrees { per_node, total_edges }
    }
}

/// Evaluates edge weights for one scheme over one blocking graph.
///
/// Construction computes whatever per-graph state the scheme needs (the
/// degree pre-pass for EJS); [`EdgeWeigher::weight`] is then `O(1)` given the
/// scanner's accumulated score.
///
/// ```
/// use er_blocking::{fixtures, BlockingMethod, TokenBlocking};
/// use er_model::EntityId;
/// use mb_core::weights::{EdgeWeigher, WeightingScheme};
/// use mb_core::GraphContext;
///
/// let blocks = TokenBlocking.build(&fixtures::figure1_collection());
/// let ctx = GraphContext::new_dirty(&blocks);
/// let js = EdgeWeigher::new(WeightingScheme::Js, &ctx);
/// // The p1–p3 edge of Figure 2(a): |B_13| = 2, |B_1| = 3, |B_3| = 5.
/// let w = js.weight(EntityId(0), EntityId(2), 2.0);
/// assert!((w - 2.0 / 6.0).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct EdgeWeigher<'c, 'b> {
    scheme: WeightingScheme,
    ctx: &'c GraphContext<'b>,
    degrees: Option<Degrees>,
}

impl<'c, 'b> EdgeWeigher<'c, 'b> {
    /// Prepares a weigher for `scheme` over the graph of `ctx`.
    pub fn new(scheme: WeightingScheme, ctx: &'c GraphContext<'b>) -> Self {
        let degrees = scheme.needs_degrees().then(|| Degrees::compute(ctx));
        EdgeWeigher { scheme, ctx, degrees }
    }

    /// Prepares a weigher reusing pre-computed degrees (EJS only).
    pub fn with_degrees(
        scheme: WeightingScheme,
        ctx: &'c GraphContext<'b>,
        degrees: Degrees,
    ) -> Self {
        EdgeWeigher { scheme, ctx, degrees: Some(degrees) }
    }

    /// The scheme being evaluated.
    pub fn scheme(&self) -> WeightingScheme {
        self.scheme
    }

    /// The per-node statistics of an EJS weigher, `None` under every other
    /// scheme.
    pub(crate) fn degrees(&self) -> Option<&Degrees> {
        self.degrees.as_ref()
    }

    /// The weight of the edge `(i, j)` given `score` — the value accumulated
    /// by a [`NeighborhoodScanner`] scan with [`WeightingScheme::accumulate`].
    #[inline]
    pub fn weight(&self, i: EntityId, j: EntityId, score: f64) -> f64 {
        let side = PivotSide {
            blocks: self.ctx.num_blocks_of(i) as f64,
            degree: self.degrees.as_ref().map_or(1.0, |d| d.per_node[i.idx()].max(1) as f64),
        };
        edge_weight(self.scheme, self.ctx, self.degrees.as_ref(), side, j, score)
    }
}

/// The pivot's half of an edge weight, as values: an indexed entity's come
/// from the store and the degree table, a probe's from the probe itself
/// ([`crate::weighting::optimized::weigh_neighborhood`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PivotSide {
    /// `|B_i|`.
    pub(crate) blocks: f64,
    /// `max(|v_i|, 1)`; read under EJS only.
    pub(crate) degree: f64,
}

/// The five formulas of Figure 4 — the only place they are written down.
/// `score` is what the scan accumulated for `j`; the neighbor's side is read
/// from `store` and `degrees`.
#[inline]
pub(crate) fn edge_weight<S: CandidateStore>(
    scheme: WeightingScheme,
    store: &S,
    degrees: Option<&Degrees>,
    pivot: PivotSide,
    j: EntityId,
    score: f64,
) -> f64 {
    let num_blocks = store.num_blocks() as f64;
    match scheme {
        WeightingScheme::Arcs => score,
        WeightingScheme::Cbs => score,
        WeightingScheme::Ecbs => {
            let bj = store.num_blocks_of(j) as f64;
            score * (num_blocks / pivot.blocks).ln() * (num_blocks / bj).ln()
        }
        WeightingScheme::Js => {
            let bj = store.num_blocks_of(j) as f64;
            score / (pivot.blocks + bj - score)
        }
        WeightingScheme::Ejs => {
            let bj = store.num_blocks_of(j) as f64;
            let js = score / (pivot.blocks + bj - score);
            let degrees = match degrees {
                Some(d) => d,
                // Every caller computes degree statistics whenever the
                // scheme is EJS, so this arm marks a construction bug, not
                // a runtime condition.
                None => unreachable!("EJS weight evaluated without degree statistics"),
            };
            let e = degrees.total_edges as f64;
            let dj = degrees.per_node[j.idx()].max(1) as f64;
            js * (e / pivot.degree).ln() * (e / dj).ln()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{Block, BlockCollection, ErKind};

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    /// b0={0,1} card 1, b1={0,1,2} card 3, b2={1,2} card 1.
    fn fixture() -> BlockCollection {
        BlockCollection::new(
            ErKind::Dirty,
            3,
            vec![
                Block::dirty(ids(&[0, 1])),
                Block::dirty(ids(&[0, 1, 2])),
                Block::dirty(ids(&[1, 2])),
            ],
        )
    }

    #[test]
    fn scheme_names_and_order() {
        let names: Vec<&str> = WeightingScheme::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["ARCS", "CBS", "ECBS", "JS", "EJS"]);
    }

    #[test]
    fn cbs_counts_common_blocks() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let w = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        // Pair (0,1) shares b0, b1 -> CBS = 2 (the score IS the weight).
        assert_eq!(w.weight(EntityId(0), EntityId(1), 2.0), 2.0);
    }

    #[test]
    fn arcs_sums_reciprocal_cardinalities() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let w = EdgeWeigher::new(WeightingScheme::Arcs, &ctx);
        // (0,1): blocks of card 1 and 3 -> 1 + 1/3.
        let score = 1.0 + 1.0 / 3.0;
        assert!((w.weight(EntityId(0), EntityId(1), score) - score).abs() < 1e-12);
    }

    #[test]
    fn js_formula() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let w = EdgeWeigher::new(WeightingScheme::Js, &ctx);
        // |B_0|=2, |B_1|=3, |B_01|=2 -> 2/(2+3-2) = 2/3.
        let got = w.weight(EntityId(0), EntityId(1), 2.0);
        assert!((got - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ecbs_discounts_prolific_profiles() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let w = EdgeWeigher::new(WeightingScheme::Ecbs, &ctx);
        // |B|=3, |B_0|=2, |B_1|=3 -> 2·ln(3/2)·ln(3/3) = 0 (profile 1 is in
        // every block, so it carries no signal).
        let got = w.weight(EntityId(0), EntityId(1), 2.0);
        assert!(got.abs() < 1e-12);
        // (0,2): share b1 only. |B_2|=2 -> 1·ln(1.5)·ln(1.5) > 0.
        let got02 = w.weight(EntityId(0), EntityId(2), 1.0);
        assert!((got02 - 1.5f64.ln().powi(2)).abs() < 1e-12);
    }

    #[test]
    fn degrees_cover_every_distinct_edge() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let d = Degrees::compute(&ctx);
        // Edges: (0,1),(0,2),(1,2).
        assert_eq!(d.total_edges, 3);
        assert_eq!(d.per_node, vec![2, 2, 2]);
    }

    #[test]
    fn ejs_uses_degrees() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let w = EdgeWeigher::new(WeightingScheme::Ejs, &ctx);
        // Complete graph on 3 nodes: every degree is 2, |E_B|=3.
        // EJS(0,1) = JS · ln(3/2)² = (2/3)·ln(1.5)².
        let got = w.weight(EntityId(0), EntityId(1), 2.0);
        let expect = (2.0 / 3.0) * 1.5f64.ln().powi(2);
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn clean_clean_degrees() {
        let blocks = BlockCollection::new(
            ErKind::CleanClean,
            4,
            vec![Block::clean_clean(ids(&[0, 1]), ids(&[2, 3]))],
        );
        let ctx = GraphContext::new(&blocks, 2);
        let d = Degrees::compute(&ctx);
        assert_eq!(d.total_edges, 4);
        assert_eq!(d.per_node, vec![2, 2, 2, 2]);
    }
}
