//! Multiway star-schema joins: cascaded binary plans and the one-shot
//! hypercube (Shares) shuffle.
//!
//! A [`StarQuery`] joins one HDFS fact table against up to
//! [`MAX_STAR_DIMENSIONS`] database dimension tables on per-dimension
//! foreign keys. Two execution families cover it:
//!
//! * **Cascade** ([`cascade`]) — a left-deep chain of binary joins: each
//!   step ships one filtered dimension to the JEN cluster (broadcast, or
//!   hash-routed with an intermediate re-shuffle) and joins it into the
//!   running intermediate.
//! * **Hypercube** ([`hypercube`]) — the Shares scheme of Afrati & Ullman:
//!   workers form a k-dimensional grid sized by a cost-chosen share
//!   vector; every fact row routes to exactly one cell (one hash per
//!   axis), every dimension row replicates along its own axis. All joins
//!   then run locally in one pass — the fact moves once, however many
//!   dimensions there are.
//!
//! Only the routing is star-specific: the cascade's re-shuffle of the
//! intermediate, the hypercube's grid routes, and the broadcast of a
//! dimension. Everything else is the binary plans' code in
//! [`crate::algorithms`]: the worker states (`JenTask`/`DbTask`; the
//! running intermediate lives in `JenTask::blocks`), the prologue and the
//! aggregation epilogue (`prepare_run`, `add_final_aggregation_steps`,
//! `run_to_result`), the DB scan and projected schema (`db_scan`,
//! `db_schema`), the hash-routed DB send (`db_route_to_jen`), the local
//! joiner (`local_joiner`), the post-join tail (`partial_aggregate` over a
//! `JoinAggregator` sink), the query bounds check, and the hot-key sampler
//! (`skew::sample_hot_keys`).
//!
//! [`run_star`] samples the tables, lets the advisor price the best
//! cascade order against the best share vector
//! ([`crate::advisor::advise_multiway`]), and executes the winner — or a
//! forced family via [`MultiwayPlanner`] / the `HYBRID_MULTIWAY_PLANNER`
//! env knob.
//!
//! Expressions about joined rows (`post_predicate`, `group_expr`, `aggs`)
//! are written against the **canonical joined layout** `fact' ++ dim_0' ++
//! … ++ dim_{k-1}'`. Executors produce a physical layout determined by
//! their join order (each binary join prepends the build side); they remap
//! canonical expressions through `physical_map` before evaluating, so
//! every plan computes the same answer.
//!
//! **Determinism.** Each receive step orders incoming batches by sender
//! endpoint (stable, per-sender FIFO preserved, own piece first) before
//! building or probing, so hash-table iteration order, salted round-robin
//! cursors, and therefore results and row orders are identical at any
//! thread count.

pub mod cascade;
pub mod hypercube;

use crate::advisor::{advise_multiway, MultiwayPlan};
use crate::algorithms::{finish_run, prepare_run, StreamData};
use crate::estimation::sample_star_stats;
use crate::query::{check_joined_exprs, remap_agg_columns};
use crate::skew::sample_hot_keys;
use crate::stats::RunOutput;
use crate::system::HybridSystem;
use hybrid_common::batch::Batch;
use hybrid_common::error::{HybridError, Result};
use hybrid_common::expr::Expr;
use hybrid_common::ops::{AggSpec, HashJoiner, JoinAggregator};
use hybrid_common::schema::Schema;
use hybrid_net::Endpoint;
use std::collections::HashSet;

/// Hard cap on star dimensions: stream tags are static (EOS counts
/// accumulate per tag for a whole run, so cascade steps cannot share one)
/// and the tag space provides three dimension slots.
pub const MAX_STAR_DIMENSIONS: usize = 3;

/// Per-axis seed salt for the hypercube's independent hash functions
/// (axis `i` hashes with `AXIS_SEED ^ i`).
pub(crate) const AXIS_SEED: u64 = 0xCE11_5EED_A215_0000;

/// One dimension table of a star query.
#[derive(Debug, Clone, PartialEq)]
pub struct DimQuery {
    /// Name of the dimension table in the parallel database.
    pub table: String,
    /// Local predicate over the dimension's base schema.
    pub pred: Expr,
    /// Columns kept after projection (base-schema indexes).
    pub proj: Vec<usize>,
    /// Position of the join key **within `proj`**.
    pub key: usize,
}

/// A star-schema query: one HDFS fact table equi-joined against `k`
/// database dimensions on `k` foreign-key columns, with a residual
/// predicate and a group-by/aggregate over the joined rows.
#[derive(Debug, Clone, PartialEq)]
pub struct StarQuery {
    /// Name of the fact table on HDFS.
    pub fact_table: String,
    /// Local predicate over the fact table's base schema.
    pub fact_pred: Expr,
    /// Fact columns kept after projection (base-schema indexes).
    pub fact_proj: Vec<usize>,
    /// Position of dimension `i`'s foreign key **within `fact_proj`**.
    pub fact_keys: Vec<usize>,
    /// The dimensions, in query order.
    pub dims: Vec<DimQuery>,
    /// Residual predicate over the canonical joined layout.
    pub post_predicate: Option<Expr>,
    /// Group-by key expression over the canonical joined layout.
    pub group_expr: Expr,
    /// Aggregates over the canonical joined layout.
    pub aggs: Vec<AggSpec>,
}

impl StarQuery {
    /// Sanity-check the query against itself (dimension cap, projection
    /// and key bounds, joined-layout expression bounds).
    pub fn validate(&self) -> Result<()> {
        if self.dims.is_empty() {
            return Err(HybridError::config(
                "star query needs at least one dimension",
            ));
        }
        if self.dims.len() > MAX_STAR_DIMENSIONS {
            return Err(HybridError::config(format!(
                "star query has {} dimensions, the cap is {MAX_STAR_DIMENSIONS}",
                self.dims.len()
            )));
        }
        if self.fact_keys.len() != self.dims.len() {
            return Err(HybridError::config(format!(
                "{} foreign keys for {} dimensions",
                self.fact_keys.len(),
                self.dims.len()
            )));
        }
        if self.fact_proj.is_empty() {
            return Err(HybridError::config("fact projection must be non-empty"));
        }
        for (i, &fk) in self.fact_keys.iter().enumerate() {
            if fk >= self.fact_proj.len() {
                return Err(HybridError::config(format!(
                    "fact key {i} at {fk} out of bounds for projection of {}",
                    self.fact_proj.len()
                )));
            }
        }
        for (i, d) in self.dims.iter().enumerate() {
            if d.proj.is_empty() {
                return Err(HybridError::config(format!(
                    "dimension {i} projection must be non-empty"
                )));
            }
            if d.key >= d.proj.len() {
                return Err(HybridError::config(format!(
                    "dimension {i} key {} out of bounds for projection of {}",
                    d.key,
                    d.proj.len()
                )));
            }
        }
        check_joined_exprs(
            self.joined_width(),
            self.post_predicate.as_ref(),
            &self.group_expr,
            &self.aggs,
        )
    }

    /// Width of the canonical joined layout.
    pub fn joined_width(&self) -> usize {
        self.fact_proj.len() + self.dims.iter().map(|d| d.proj.len()).sum::<usize>()
    }
}

/// Which multiway execution family to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiwayPlanner {
    /// Force the best-priced left-deep cascade.
    Cascade,
    /// Force the best-priced hypercube share vector.
    Hypercube,
    /// Let the advisor pick (the default).
    Auto,
}

impl MultiwayPlanner {
    pub fn name(self) -> &'static str {
        match self {
            MultiwayPlanner::Cascade => "cascade",
            MultiwayPlanner::Hypercube => "hypercube",
            MultiwayPlanner::Auto => "auto",
        }
    }

    pub fn parse(s: &str) -> Option<MultiwayPlanner> {
        match s.trim().to_ascii_lowercase().as_str() {
            "cascade" => Some(MultiwayPlanner::Cascade),
            "hypercube" => Some(MultiwayPlanner::Hypercube),
            "auto" => Some(MultiwayPlanner::Auto),
            _ => None,
        }
    }

    /// `HYBRID_MULTIWAY_PLANNER` (`cascade` / `hypercube` / `auto`),
    /// defaulting to `Auto`; unparseable values fall back to `Auto`.
    pub fn from_env() -> MultiwayPlanner {
        std::env::var("HYBRID_MULTIWAY_PLANNER")
            .ok()
            .and_then(|v| MultiwayPlanner::parse(&v))
            .unwrap_or(MultiwayPlanner::Auto)
    }
}

impl std::fmt::Display for MultiwayPlanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Execute `star` on `system` under `planner`, starting from clean
/// metrics; returns the result plus the movement summary.
///
/// Sampling runs *before* the metric reset (as [`crate::run_auto`] does
/// for two-table queries), so the run snapshot carries only execution
/// traffic plus the `advisor.multiway.*` decision counters.
pub fn run_star(
    system: &mut HybridSystem,
    star: &StarQuery,
    planner: MultiwayPlanner,
) -> Result<RunOutput> {
    star.validate()?;
    let est = sample_star_stats(system, star, 8)?;
    let choice = advise_multiway(&est);
    prepare_run(system)?;
    // Decision audit trail: integer-rounded costs and the choice live in
    // the run snapshot (deterministic — derived from strided sampling).
    system.metrics.add(
        "advisor.multiway.cost.cascade",
        choice.cascade.1.round() as u64,
    );
    system.metrics.add(
        "advisor.multiway.cost.hypercube",
        choice.hypercube.1.round() as u64,
    );
    let auto_hypercube = matches!(choice.plan, MultiwayPlan::Hypercube(_));
    system.metrics.add(
        "advisor.multiway.chose_hypercube",
        u64::from(auto_hypercube),
    );
    let plan = match planner {
        MultiwayPlanner::Cascade => MultiwayPlan::Cascade(choice.cascade.0.clone()),
        MultiwayPlanner::Hypercube => MultiwayPlan::Hypercube(choice.hypercube.0.clone()),
        MultiwayPlanner::Auto => choice.plan.clone(),
    };
    let result = match &plan {
        MultiwayPlan::Cascade(steps) => {
            system.metrics.add("advisor.multiway.ran_hypercube", 0);
            cascade::execute(system, star, steps)?
        }
        MultiwayPlan::Hypercube(shares) => {
            system.metrics.add("advisor.multiway.ran_hypercube", 1);
            hypercube::execute(system, star, shares)?
        }
    };
    Ok(finish_run(system, result))
}

// ---------------------------------------------------------------------------
// star-specific helpers
// ---------------------------------------------------------------------------

/// Received batches in canonical sender order: stable-sorted by endpoint
/// (DB workers before JEN workers, ascending index), per-sender FIFO
/// arrival order preserved. Every multiway receive step runs its input
/// through this, which pins hash-build insertion order, probe order, and
/// salt cursors to the same sequence at any thread count.
pub(crate) fn ordered_batches(got: StreamData) -> Vec<Batch> {
    fn key(e: Endpoint) -> (u8, usize) {
        match e {
            Endpoint::Db(id) => (0, id.index()),
            Endpoint::Jen(id) => (1, id.index()),
            Endpoint::JenCoordinator => (2, 0),
        }
    }
    let mut tagged: Vec<((u8, usize), Batch)> = got
        .batch_senders
        .iter()
        .map(|&e| key(e))
        .zip(got.batches)
        .collect();
    tagged.sort_by_key(|(k, _)| *k);
    tagged.into_iter().map(|(_, b)| b).collect()
}

/// The canonical→physical column map after joining dimensions in `order`.
///
/// Each binary join prepends its build side, so after the cascade the
/// physical layout is `dim_{order[k-1]}' ++ … ++ dim_{order[0]}' ++ fact'`
/// (the hypercube probes in identity order and lands on the same shape
/// with `order = 0..k`). Index the result with a canonical column to get
/// its physical position.
pub(crate) fn physical_map(star: &StarQuery, order: &[usize]) -> Vec<usize> {
    let fact_width = star.fact_proj.len();
    let widths: Vec<usize> = star.dims.iter().map(|d| d.proj.len()).collect();
    // physical segment sequence: reversed join order, then the fact
    let mut offsets = vec![0usize; star.dims.len() + 1]; // [fact, dim 0, dim 1, ..]
    let mut at = 0usize;
    for &d in order.iter().rev() {
        offsets[d + 1] = at;
        at += widths[d];
    }
    offsets[0] = at;
    let mut map = Vec::with_capacity(star.joined_width());
    for c in 0..fact_width {
        map.push(offsets[0] + c);
    }
    for (d, &w) in widths.iter().enumerate() {
        for c in 0..w {
            map.push(offsets[d + 1] + c);
        }
    }
    map
}

/// The query's residual predicate, group key and aggregates, rewritten
/// from the canonical joined layout to the physical layout of a join
/// `order` (see [`physical_map`]).
pub(crate) fn physical_exprs(
    star: &StarQuery,
    order: &[usize],
) -> (Option<Expr>, Expr, Vec<AggSpec>) {
    let map = physical_map(star, order);
    let remap = |e: &Expr| {
        e.remap_columns(&|c| map.get(c).copied())
            .expect("validated expressions stay in bounds")
    };
    (
        star.post_predicate.as_ref().map(remap),
        remap(&star.group_expr),
        remap_agg_columns(&star.aggs, |c| map[c]),
    )
}

/// In-memory dimension tables waiting for one k-way probe: a run of
/// consecutive local joins whose intermediates are never materialised.
/// Each table is probed by a foreign-key column of the batches that entered
/// the run; the joined layout is the prefix stack `dim_last' ++ … ++
/// dim_first' ++ probe`, exactly what joining them one at a time builds.
#[derive(Default)]
pub(crate) struct StarRun {
    joiners: Vec<HashJoiner>,
    keys: Vec<usize>,
}

impl StarRun {
    /// Join `joiner` next, looked up by column `key` of the run's probe
    /// batches.
    pub(crate) fn push(&mut self, joiner: HashJoiner, key: usize) {
        self.joiners.push(joiner);
        self.keys.push(key);
    }

    pub(crate) fn len(&self) -> usize {
        self.joiners.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.joiners.is_empty()
    }

    /// Columns the run prepends to its probe batches.
    pub(crate) fn width(&self) -> usize {
        self.joiners.iter().map(|j| j.build_schema().len()).sum()
    }

    /// End the run where its rows must exist: the join of `probes` (of
    /// `probe_schema`) through a non-empty run, as one batch with every
    /// column gathered once.
    pub(crate) fn materialise(&mut self, probe_schema: &Schema, probes: &[Batch]) -> Result<Batch> {
        debug_assert!(!self.is_empty(), "an empty run joins nothing");
        let run = std::mem::take(self);
        let joiners: Vec<&HashJoiner> = run.joiners.iter().collect();
        HashJoiner::probe_star(&joiners, probe_schema, probes, &run.keys)
    }

    /// End the run in the sink: fold the join of every probe batch.
    pub(crate) fn fold(self, sink: &mut JoinAggregator, probes: &[Batch]) -> Result<()> {
        let joiners: Vec<&HashJoiner> = self.joiners.iter().collect();
        probes
            .iter()
            .try_for_each(|p| sink.probe_star(&joiners, p, &self.keys))
    }
}

/// Uniform data-movement meters every multiway shuffle send reports
/// (cross-network only — local pieces never count). `bench_baseline`
/// compares planners on exactly these counters.
pub(crate) fn meter_shuffle(sys: &HybridSystem, rows: u64, bytes: u64) {
    sys.metrics.add("multiway.shuffle.tuples", rows);
    sys.metrics.add("multiway.shuffle.bytes", bytes);
}

/// Per-axis heavy-hitter foreign keys of the filtered fact table, from the
/// same sampler as the two-table [`crate::skew::SaltRouter::detect`].
/// Empty sets mean "no salting on this axis".
pub(crate) fn detect_hot_fact_keys(
    sys: &HybridSystem,
    star: &StarQuery,
) -> Result<Vec<HashSet<i64>>> {
    let (table, pred, proj) = (&star.fact_table, &star.fact_pred, &star.fact_proj);
    Ok(
        sample_hot_keys(sys, "multiway.salt", table, pred, proj, &star.fact_keys)?
            .unwrap_or_else(|| vec![HashSet::new(); star.dims.len()]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_common::ops::AggSpec;

    fn star(k: usize) -> StarQuery {
        StarQuery {
            fact_table: "L".into(),
            fact_pred: Expr::col_le(1, 10),
            fact_proj: (0..=k).collect(),
            fact_keys: (0..k).collect(),
            dims: (0..k)
                .map(|i| DimQuery {
                    table: format!("D{i}"),
                    pred: Expr::col_le(1, 5),
                    proj: vec![0, 2],
                    key: 0,
                })
                .collect(),
            post_predicate: None,
            group_expr: Expr::col(k),
            aggs: vec![AggSpec::Count],
        }
    }

    #[test]
    fn validation_guards_shape() {
        star(2).validate().unwrap();
        let mut q = star(2);
        q.dims.clear();
        q.fact_keys.clear();
        assert!(q.validate().is_err(), "no dimensions");
        let mut q = star(2);
        q.fact_keys = vec![0];
        assert!(q.validate().is_err(), "key/dim count mismatch");
        let mut q = star(2);
        q.fact_keys[1] = 99;
        assert!(q.validate().is_err(), "fact key out of bounds");
        let mut q = star(2);
        q.dims[0].key = 7;
        assert!(q.validate().is_err(), "dim key out of bounds");
        let mut q = star(2);
        q.group_expr = Expr::col(q.joined_width());
        assert!(q.validate().is_err(), "group expr out of bounds");
        let mut q = star(2);
        q.aggs = vec![AggSpec::SumI64(q.joined_width())];
        assert!(q.validate().is_err(), "agg column out of bounds");
    }

    #[test]
    fn planner_parses_and_defaults() {
        assert_eq!(
            MultiwayPlanner::parse("Cascade"),
            Some(MultiwayPlanner::Cascade)
        );
        assert_eq!(
            MultiwayPlanner::parse(" hypercube "),
            Some(MultiwayPlanner::Hypercube)
        );
        assert_eq!(MultiwayPlanner::parse("auto"), Some(MultiwayPlanner::Auto));
        assert_eq!(MultiwayPlanner::parse("nope"), None);
        assert_eq!(MultiwayPlanner::Hypercube.name(), "hypercube");
    }

    #[test]
    fn physical_map_inverts_the_prefix_stack() {
        // k = 2, fact width 3 (2 FKs + group), dim width 2. Join order
        // [1, 0] → physical layout dim0' ++ dim1' ++ fact'.
        let q = star(2);
        let map = physical_map(&q, &[1, 0]);
        // canonical fact cols 0..3 → physical 4..7
        assert_eq!(&map[0..3], &[4, 5, 6]);
        // canonical dim0 cols → physical 0..2 (joined last, so outermost)
        assert_eq!(&map[3..5], &[0, 1]);
        // canonical dim1 cols → physical 2..4
        assert_eq!(&map[5..7], &[2, 3]);
        // identity order stacks the other way round
        let map = physical_map(&q, &[0, 1]);
        assert_eq!(&map[0..3], &[4, 5, 6]);
        assert_eq!(&map[3..5], &[2, 3]);
        assert_eq!(&map[5..7], &[0, 1]);
        // a map is a permutation of the joined width
        let mut sorted = map.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..q.joined_width()).collect::<Vec<_>>());
    }

    #[test]
    fn remapped_aggs_follow_the_map() {
        let q = StarQuery {
            aggs: vec![AggSpec::Count, AggSpec::SumI64(4)],
            ..star(2)
        };
        let map = physical_map(&q, &[1, 0]);
        assert_eq!(
            physical_exprs(&q, &[1, 0]).2,
            vec![AggSpec::Count, AggSpec::SumI64(map[4])]
        );
    }
}
