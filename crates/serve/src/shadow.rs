//! Shadow predictors: the paper's baseline methods, fit live beside LTM.
//!
//! The paper's headline claim (§6.2, Table 7) is that LTM beats seven
//! prior truth-finding methods. This module keeps that comparison running
//! *in production*: every refit also fits the cheap iterative baselines
//! (`ltm_baselines::all_baselines`) on one merged full extraction of the
//! store, and the resulting per-fact score tables are published inside the
//! [`crate::epoch::EpochSnapshot`] swap. Shadow answers are therefore
//! always mutually consistent — every method saw exactly the same claim
//! database — and never block queries (they are fit on the refit daemon's
//! thread, behind the same epoch pointer-swap as the LTM predictor).
//!
//! Three derived artifacts ride along with the score tables:
//!
//! * **per-source trust** ([`source_agreement_trust`] in `ltm-baselines`):
//!   how often each source agrees with the method's own fitted scores.
//!   This is what lets a baseline answer an *ad-hoc* query about an
//!   arbitrary claim set ([`score_claims`]) the way Equation 3 lets LTM.
//! * **rank-average ensemble** ([`rank_average`]): each method's scores
//!   are converted to tie-aware normalized ranks and averaged — the
//!   classic scale-free way to combine methods whose raw scores are not
//!   calibrated against each other.
//! * **agreement statistics** ([`Agreement`]): pairwise Pearson score
//!   correlation and decision-flip counts at the 0.5 threshold, surfaced
//!   through `/stats` and `/metrics` as a live drift tripwire.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ltm_baselines::{all_baselines, source_agreement_trust};
use ltm_core::IncrementalLtm;
use ltm_model::{Claim, ClaimDb, EntityId, FactId, SourceId};
use serde::{Deserialize, Serialize};

use crate::obs::{Histogram, Registry, Unit};

/// Display name of the LTM score column (always `methods[0]`).
pub const LTM_METHOD: &str = "LTM";

/// Wire name of the rank-average ensemble pseudo-method.
pub const ENSEMBLE_METHOD: &str = "ensemble";

/// The URL-friendly name of a method: its display name lowercased
/// (`"3-Estimates"` → `"3-estimates"`, `"LTM"` → `"ltm"`).
pub fn wire_name(name: &str) -> String {
    name.to_ascii_lowercase()
}

/// One fitted shadow column: a method's scores over the extraction plus
/// its derived per-source trust. Snapshots persist it as is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShadowColumn {
    /// Display name (paper Table 7 spelling; `"LTM"` for the LTM column).
    pub name: String,
    /// Per-fact scores in `[0, 1]`, parallel to
    /// [`ShadowTables::fact_ids`].
    pub scores: Vec<f64>,
    /// Per-source agreement trust in `[0, 1]`, indexed by global source
    /// id (see [`source_agreement_trust`]).
    pub trust: Vec<f64>,
}

/// Pairwise method-agreement statistics over one extraction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Agreement {
    /// Method display names, indexing both matrices.
    pub methods: Vec<String>,
    /// Pearson correlation of score vectors. Diagonal is 1. If both
    /// vectors are constant the correlation is 1 when they are identical
    /// and 0 otherwise; if exactly one is constant it is 0.
    pub correlation: Vec<Vec<f64>>,
    /// Facts on which the two methods decide differently at the 0.5
    /// threshold (`score ≥ 0.5` = true).
    pub decision_flips: Vec<Vec<u64>>,
}

/// The published shadow state of one epoch: every method's scores on the
/// extraction the epoch was fit from, the rank-average ensemble, and the
/// agreement matrices. Immutable once published (swapped whole inside the
/// epoch `Arc`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowTables {
    /// Global fact ids of the extraction rows, sorted ascending.
    pub fact_ids: Vec<u64>,
    /// Score columns; `methods[0]` is always the LTM column, the rest
    /// follow [`all_baselines`] (paper Table 7) order.
    pub methods: Vec<ShadowColumn>,
    /// Rank-average ensemble scores, parallel to `fact_ids`.
    pub ensemble: Vec<f64>,
    /// Pairwise agreement over `methods`.
    pub agreement: Agreement,
    /// Per-method sorted score copies for percentile lookups (rebuilt,
    /// never persisted).
    sorted: Vec<Vec<f64>>,
}

impl ShadowTables {
    /// Assembles published tables from fitted columns: computes the
    /// ensemble, the agreement matrices, and the sorted percentile
    /// indexes. `fact_ids` must be parallel to every column's scores.
    pub fn assemble(fact_ids: Vec<u64>, methods: Vec<ShadowColumn>) -> Self {
        let columns: Vec<&[f64]> = methods.iter().map(|m| m.scores.as_slice()).collect();
        let ensemble = rank_average(&columns);
        let agreement = Agreement {
            methods: methods.iter().map(|m| m.name.clone()).collect(),
            correlation: pairwise(&columns, correlation),
            decision_flips: pairwise(&columns, decision_flips),
        };
        let sorted = methods
            .iter()
            .map(|m| {
                let mut s = m.scores.clone();
                s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                s
            })
            .collect();
        Self {
            fact_ids,
            methods,
            ensemble,
            agreement,
            sorted,
        }
    }

    /// Number of extraction rows the tables cover.
    pub fn num_facts(&self) -> usize {
        self.fact_ids.len()
    }

    /// The column index of a method by wire name (`"ltm"`, `"voting"`,
    /// `"3-estimates"`, …).
    pub fn method_index(&self, wire: &str) -> Option<usize> {
        self.methods.iter().position(|m| wire_name(&m.name) == wire)
    }

    /// Ranks an ad-hoc score `q` against method column `m`'s fitted score
    /// population: the tie-aware empirical CDF in `[0, 1]` (0.5 when the
    /// column is empty).
    pub fn percentile(&self, m: usize, q: f64) -> f64 {
        self.sorted.get(m).map_or(0.5, |s| percentile(s, q))
    }

    /// The rank-average ensemble of ad-hoc per-method scores (parallel to
    /// `methods`): each score is ranked against its own method's fitted
    /// population, and the percentiles are averaged.
    pub fn ensemble_of(&self, per_method: &[f64]) -> f64 {
        if per_method.is_empty() {
            return 0.5;
        }
        let sum: f64 = per_method
            .iter()
            .enumerate()
            .map(|(m, &q)| self.percentile(m, q))
            .sum();
        sum / per_method.len() as f64
    }
}

/// Merges per-shard extraction batches into one [`ClaimDb`] over the
/// global source space, rows ordered by ascending global fact id.
///
/// Shard-local entity ids collide across batches, so each batch's
/// entities are offset into a disjoint range — mutual-exclusion groups
/// (used by PooledInvestment) are preserved exactly because an entity
/// never spans shards (the store hash-partitions by entity).
pub fn merge_extraction(batches: &[ClaimDb], globals: &[Vec<u64>]) -> (ClaimDb, Vec<u64>) {
    let num_sources = batches.iter().map(ClaimDb::num_sources).max().unwrap_or(0);
    let mut entity_offset = vec![0usize; batches.len()];
    let mut acc = 0usize;
    for (b, db) in batches.iter().enumerate() {
        entity_offset[b] = acc;
        acc += db.num_entities();
    }
    let mut order: Vec<(u64, usize, FactId)> = Vec::new();
    for (b, ids) in globals.iter().enumerate() {
        for (row, &g) in ids.iter().enumerate() {
            order.push((g, b, FactId::from_usize(row)));
        }
    }
    order.sort_unstable_by_key(|&(g, ..)| g);

    let mut fact_ids = Vec::with_capacity(order.len());
    let mut facts = Vec::with_capacity(order.len());
    let mut claims = Vec::new();
    for (new_row, &(g, b, f)) in order.iter().enumerate() {
        fact_ids.push(g);
        let fact = batches[b].fact(f);
        facts.push(ltm_model::Fact {
            entity: EntityId::from_usize(entity_offset[b] + fact.entity.index()),
            attr: fact.attr,
        });
        let new_f = FactId::from_usize(new_row);
        for (source, observation) in batches[b].claims_of_fact(f) {
            claims.push(Claim {
                fact: new_f,
                source,
                observation,
            });
        }
    }
    (ClaimDb::from_parts(facts, claims, num_sources), fact_ids)
}

/// Fits the LTM column and every baseline on one merged extraction and
/// assembles the publishable tables. `ltm` is the candidate epoch's
/// Equation-3 predictor, so the LTM column is exactly what the epoch will
/// serve. Per-method fit latencies are recorded into `obs` when attached.
pub fn fit_shadow_tables(
    batches: &[ClaimDb],
    globals: &[Vec<u64>],
    ltm: &IncrementalLtm,
    obs: Option<&ShadowObs>,
) -> ShadowTables {
    let (db, fact_ids) = merge_extraction(batches, globals);
    let mut methods = Vec::new();

    let started = Instant::now();
    let ltm_scores = ltm.predict(&db);
    let ltm_trust = source_agreement_trust(&db, &ltm_scores);
    if let Some(o) = obs {
        o.record(LTM_METHOD, started.elapsed());
    }
    methods.push(ShadowColumn {
        name: LTM_METHOD.to_string(),
        scores: ltm_scores.probs().to_vec(),
        trust: ltm_trust,
    });

    for method in all_baselines() {
        let started = Instant::now();
        let scores = method.infer(&db);
        let trust = source_agreement_trust(&db, &scores);
        if let Some(o) = obs {
            o.record(method.name(), started.elapsed());
        }
        methods.push(ShadowColumn {
            name: method.name().to_string(),
            scores: scores.probs().to_vec(),
            trust,
        });
    }
    ShadowTables::assemble(fact_ids, methods)
}

/// Scores an ad-hoc claim set under a per-source trust vector: the
/// trust-weighted positive fraction `Σ w⁺ / Σ w`. Unknown sources weigh
/// 0.5 (the uninformed prior); an empty or zero-weight claim set scores
/// 0.5. Always in `[0, 1]`.
pub fn score_claims(trust: &[f64], claims: &[(SourceId, bool)]) -> f64 {
    let mut positive = 0.0;
    let mut total = 0.0;
    for &(s, observation) in claims {
        let w = trust.get(s.index()).copied().unwrap_or(0.5);
        total += w;
        if observation {
            positive += w;
        }
    }
    if total <= 0.0 {
        0.5
    } else {
        positive / total
    }
}

/// Tie-aware normalized mid-ranks in `[0, 1]`: the smallest score maps to
/// 0, the largest to 1, ties share their mid-rank. Degenerate inputs
/// (length ≤ 1, or all values tied) map to 0.5.
pub fn normalized_ranks(scores: &[f64]) -> Vec<f64> {
    let n = scores.len();
    if n <= 1 {
        return vec![0.5; n];
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.5; n];
    let denom = (n - 1) as f64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let mid = (i + j) as f64 / 2.0;
        for &k in idx.iter().take(j + 1).skip(i) {
            ranks[k] = mid / denom;
        }
        i = j + 1;
    }
    ranks
}

/// The rank-average ensemble of score columns (all the same length):
/// per-column [`normalized_ranks`], averaged element-wise. Empty input
/// yields an empty vector.
pub fn rank_average(columns: &[&[f64]]) -> Vec<f64> {
    let Some(first) = columns.first() else {
        return Vec::new();
    };
    let n = first.len();
    let mut out = vec![0.0; n];
    for col in columns {
        for (o, r) in out.iter_mut().zip(normalized_ranks(col)) {
            *o += r;
        }
    }
    let k = columns.len() as f64;
    for o in &mut out {
        *o /= k;
    }
    out
}

/// Tie-aware empirical CDF of `q` in an ascending-sorted population:
/// the fraction strictly below plus half the ties. 0.5 on an empty
/// population.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.5;
    }
    let below = sorted.partition_point(|&s| s < q);
    let ties = sorted.partition_point(|&s| s <= q) - below;
    (below as f64 + ties as f64 / 2.0) / sorted.len() as f64
}

/// Pearson correlation of two equal-length score vectors, with the
/// constant-vector conventions documented on [`Agreement::correlation`].
pub fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n == 0 {
        return 0.0;
    }
    let mean = |v: &[f64]| v.iter().take(n).sum::<f64>() / n as f64;
    let (ma, mb) = (mean(a), mean(b));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b.iter()).take(n) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 && vb == 0.0 {
        let identical = a.iter().zip(b.iter()).take(n).all(|(x, y)| x == y);
        return if identical { 1.0 } else { 0.0 };
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Facts on which two score vectors decide differently at the 0.5
/// threshold (`score ≥ 0.5` reads as true, matching
/// `TruthAssignment::is_true`).
pub fn decision_flips(a: &[f64], b: &[f64]) -> u64 {
    a.iter()
        .zip(b.iter())
        .filter(|(x, y)| (**x >= 0.5) != (**y >= 0.5))
        .count() as u64
}

/// Builds a full pairwise matrix from a symmetric function of two columns.
fn pairwise<T: Copy>(columns: &[&[f64]], f: impl Fn(&[f64], &[f64]) -> T) -> Vec<Vec<T>> {
    columns
        .iter()
        .map(|a| columns.iter().map(|b| f(a, b)).collect())
        .collect()
}

/// Per-method shadow-fit latency histograms, rendered as
/// `ltm_shadow_fit_duration_seconds{method=,domain=}`.
#[derive(Debug, Clone)]
pub struct ShadowObs {
    handles: Vec<(String, Arc<Histogram>)>,
}

impl ShadowObs {
    /// Registers (or re-fetches) the shadow-fit metric family for
    /// `domain`: one histogram per baseline plus the LTM column.
    pub fn for_domain(registry: &Registry, domain: &str) -> Self {
        let mut handles = Vec::new();
        let mut register = |name: &str| {
            let wire = wire_name(name);
            let h = registry.histogram(
                "ltm_shadow_fit_duration_seconds",
                &[("method", &wire), ("domain", domain)],
                Unit::Micros,
            );
            handles.push((name.to_string(), h));
        };
        register(LTM_METHOD);
        for method in all_baselines() {
            register(method.name());
        }
        Self { handles }
    }

    /// Records one fit duration for `method` (unknown names are ignored).
    pub fn record(&self, method: &str, elapsed: Duration) {
        if let Some((_, h)) = self.handles.iter().find(|(n, _)| n == method) {
            h.record_duration(elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltm_model::RawDatabaseBuilder;

    fn table1_db() -> ClaimDb {
        let mut b = RawDatabaseBuilder::new();
        b.add("Harry Potter", "Daniel Radcliffe", "IMDB");
        b.add("Harry Potter", "Emma Watson", "IMDB");
        b.add("Harry Potter", "Rupert Grint", "IMDB");
        b.add("Harry Potter", "Daniel Radcliffe", "Netflix");
        b.add("Harry Potter", "Daniel Radcliffe", "BadSource.com");
        b.add("Harry Potter", "Emma Watson", "BadSource.com");
        b.add("Harry Potter", "Johnny Depp", "BadSource.com");
        b.add("Pirates 4", "Johnny Depp", "Hulu.com");
        ClaimDb::from_raw(&b.build())
    }

    #[test]
    fn ranks_are_tie_aware_and_normalized() {
        assert_eq!(normalized_ranks(&[]), Vec::<f64>::new());
        assert_eq!(normalized_ranks(&[0.7]), vec![0.5]);
        assert_eq!(normalized_ranks(&[0.1, 0.9, 0.5]), vec![0.0, 1.0, 0.5]);
        // Ties share mid-ranks: [0.5, 0.5, 0.9] → ranks [0.5, 1.5?]…
        let r = normalized_ranks(&[0.5, 0.5, 0.9]);
        assert_eq!(r[0], r[1]);
        assert!((r[0] - 0.25).abs() < 1e-12);
        assert_eq!(r[2], 1.0);
        // All tied → everything at the middle.
        assert_eq!(normalized_ranks(&[0.3, 0.3, 0.3]), vec![0.5, 0.5, 0.5]);
    }

    #[test]
    fn rank_average_is_bounded_by_member_ranks() {
        let a = [0.1, 0.8, 0.4, 0.9];
        let b = [0.9, 0.1, 0.6, 0.2];
        let ens = rank_average(&[&a, &b]);
        let ra = normalized_ranks(&a);
        let rb = normalized_ranks(&b);
        for i in 0..a.len() {
            let (lo, hi) = (ra[i].min(rb[i]), ra[i].max(rb[i]));
            assert!(ens[i] >= lo - 1e-12 && ens[i] <= hi + 1e-12);
        }
    }

    #[test]
    fn percentile_is_tie_aware() {
        let pop = [0.1, 0.3, 0.3, 0.8];
        assert_eq!(percentile(&pop, 0.0), 0.0);
        assert_eq!(percentile(&pop, 1.0), 1.0);
        // 0.3: one strictly below, two ties → (1 + 1)/4.
        assert!((percentile(&pop, 0.3) - 0.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.4), 0.5);
    }

    #[test]
    fn correlation_conventions() {
        let a = [0.1, 0.5, 0.9];
        assert!((correlation(&a, &a) - 1.0).abs() < 1e-12);
        let inv = [0.9, 0.5, 0.1];
        assert!((correlation(&a, &inv) + 1.0).abs() < 1e-12);
        let flat = [0.5, 0.5, 0.5];
        assert_eq!(correlation(&flat, &flat), 1.0);
        assert_eq!(correlation(&flat, &[0.4, 0.4, 0.4]), 0.0);
        assert_eq!(correlation(&flat, &a), 0.0);
    }

    #[test]
    fn score_claims_is_a_trust_weighted_vote() {
        let trust = [1.0, 0.0, 0.5];
        let s = |claims: &[(usize, bool)]| {
            let c: Vec<(SourceId, bool)> = claims
                .iter()
                .map(|&(k, o)| (SourceId::from_usize(k), o))
                .collect();
            score_claims(&trust, &c)
        };
        assert_eq!(s(&[]), 0.5);
        assert_eq!(s(&[(0, true)]), 1.0);
        assert_eq!(s(&[(0, false)]), 0.0);
        // Zero-trust sources cannot move the score; alone they score 0.5.
        assert_eq!(s(&[(1, true)]), 0.5);
        assert!((s(&[(0, true), (2, false)]) - 1.0 / 1.5).abs() < 1e-12);
        // Unknown source ids weigh 0.5: outvoted 2:1 by a fully trusted
        // source, but alone they still win their own vote.
        assert_eq!(s(&[(9, true)]), 1.0);
        assert!((s(&[(9, true), (0, false)]) - 0.5 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_extraction_orders_rows_by_global_id() {
        let db = table1_db();
        // Two "shards" with interleaved global ids; second shard's claims
        // reference the same global source space.
        let ids_a = vec![4u64, 0, 2];
        let facts_a: Vec<ltm_model::Fact> = (0..3).map(|i| db.fact(FactId::new(i))).collect();
        let claims_a: Vec<Claim> = (0..3)
            .flat_map(|i| {
                db.claims_of_fact(FactId::new(i))
                    .map(move |(source, observation)| Claim {
                        fact: FactId::new(i),
                        source,
                        observation,
                    })
            })
            .collect();
        let batch_a = ClaimDb::from_parts(facts_a, claims_a, db.num_sources());
        let ids_b = vec![1u64];
        let fact_b = db.fact(FactId::new(4));
        let claims_b: Vec<Claim> = db
            .claims_of_fact(FactId::new(4))
            .map(|(source, observation)| Claim {
                fact: FactId::new(0),
                source,
                observation,
            })
            .collect();
        let batch_b = ClaimDb::from_parts(
            vec![ltm_model::Fact {
                entity: EntityId::new(0),
                attr: fact_b.attr,
            }],
            claims_b,
            db.num_sources(),
        );

        let (merged, fact_ids) = merge_extraction(&[batch_a, batch_b], &[ids_a, ids_b]);
        assert_eq!(fact_ids, vec![0, 1, 2, 4]);
        assert_eq!(merged.num_facts(), 4);
        assert_eq!(merged.num_sources(), db.num_sources());
        // Entity groups stay disjoint across batches: batch B's entity 0
        // must not be merged with batch A's entity 0 — it is offset past
        // batch A's entity range.
        assert_eq!(merged.num_entities(), 2);
        let row1_entity = merged.fact(FactId::new(1)).entity;
        assert_eq!(row1_entity, EntityId::new(1));
        assert_eq!(merged.fact(FactId::new(0)).entity, EntityId::new(0));
        // Row 1 (global id 1) carries batch B's claims.
        let row1: Vec<_> = merged.claims_of_fact(FactId::new(1)).collect();
        let orig: Vec<_> = db.claims_of_fact(FactId::new(4)).collect();
        assert_eq!(row1, orig);
    }

    #[test]
    fn fit_shadow_tables_covers_every_method_and_fact() {
        let db = table1_db();
        let ids: Vec<u64> = (0..db.num_facts() as u64).collect();
        let ltm = boot_ltm();
        let tables = fit_shadow_tables(std::slice::from_ref(&db), &[ids], &ltm, None);
        assert_eq!(tables.num_facts(), db.num_facts());
        // LTM column + the seven Table 7 baselines.
        assert_eq!(tables.methods.len(), 8);
        assert_eq!(tables.methods[0].name, LTM_METHOD);
        for col in &tables.methods {
            assert_eq!(col.scores.len(), db.num_facts());
            assert_eq!(col.trust.len(), db.num_sources());
            for &s in &col.scores {
                assert!((0.0..=1.0).contains(&s), "{}: {s}", col.name);
            }
            for &t in &col.trust {
                assert!((0.0..=1.0).contains(&t), "{}: trust {t}", col.name);
            }
        }
        assert_eq!(tables.ensemble.len(), db.num_facts());
        // Agreement matrices are square, symmetric, unit-diagonal.
        let k = tables.methods.len();
        for i in 0..k {
            assert!((tables.agreement.correlation[i][i] - 1.0).abs() < 1e-12);
            assert_eq!(tables.agreement.decision_flips[i][i], 0);
            for j in 0..k {
                assert!(
                    (tables.agreement.correlation[i][j] - tables.agreement.correlation[j][i]).abs()
                        < 1e-12
                );
                assert_eq!(
                    tables.agreement.decision_flips[i][j],
                    tables.agreement.decision_flips[j][i]
                );
            }
        }
        // Columns resolve by wire name, each row parallel to `fact_ids`.
        let voting = tables.method_index("voting").expect("voting column");
        assert_eq!(tables.methods[voting].scores.len(), tables.fact_ids.len());
        assert_eq!(tables.ensemble.len(), tables.fact_ids.len());
    }

    fn boot_ltm() -> IncrementalLtm {
        let priors = ltm_core::Priors::default();
        let empty = ltm_core::SourceQuality::estimate(
            &ClaimDb::from_parts(vec![], vec![], 0),
            &ltm_model::TruthAssignment::new(vec![]),
            &priors,
        );
        IncrementalLtm::new(&empty, &priors)
    }
}
