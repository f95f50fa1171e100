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
//! Only the routing is star-specific. Every row a star plan moves goes
//! through the binary plans' two send helpers, each given a stream tag
//! and a route (a batch → one selection per JEN worker):
//! `jen_shuffle_share` for the cascade's re-shuffle and the hypercube's
//! fact route, `db_route_to_jen` for every dimension send (hash-routed,
//! broadcast, or replicated along a grid axis). The rest is the binary
//! plans' code in [`crate::algorithms`] too: the worker states
//! (`JenTask`/`DbTask`), the prologue and the aggregation epilogue, the DB
//! scan, the local joiner, the post-join tail (`partial_aggregate` over a
//! `JoinAggregator` sink), the query bounds check, and the hot-key sampler
//! (`skew::sample_hot_keys`).
//!
//! [`run_star`] samples the tables, lets the advisor price the best
//! cascade order against the best share vector
//! ([`crate::advisor::advise_multiway`]), and executes the winner — or a
//! forced family via [`MultiwayPlanner`].
//!
//! Expressions about joined rows (`post_predicate`, `group_expr`, `aggs`)
//! are written against the **canonical joined layout** `fact' ++ dim_0' ++
//! … ++ dim_{k-1}'`. An intermediate's columns are described by one
//! `Layout`, the canonical ids it carries in physical order: each local
//! join prepends its build side, and each exchange keeps only the live
//! columns — the foreign keys still to be joined and the columns the
//! expressions read. Both executors find foreign keys and remap the
//! expressions through it, so every plan computes the same answer.
//!
//! **Determinism.** Each receive step orders incoming batches by sender
//! endpoint (stable, per-sender FIFO preserved, own piece first) before
//! building or probing, so hash-table iteration order, salted round-robin
//! cursors, and therefore results and row orders are identical at any
//! thread count.

pub mod cascade;
pub mod hypercube;

use crate::advisor::{advise_multiway, MultiwayPlan};
use crate::algorithms::{
    db_schema, finish_run, jen_shuffle_share, local_joiner, partial_aggregate, prepare_run, Driver,
    JenTask, StreamData,
};
use crate::estimation::sample_star_stats;
use crate::query::{check_joined_exprs, remap_agg_columns};
use crate::skew::sample_hot_keys;
use crate::stats::RunOutput;
use crate::system::HybridSystem;
use hybrid_common::batch::{Batch, SelectionVector};
use hybrid_common::error::{HybridError, Result};
use hybrid_common::expr::Expr;
use hybrid_common::ops::{AggSpec, HashJoiner, JoinAggregator};
use hybrid_common::schema::Schema;
use hybrid_common::trace::Stage;
use hybrid_jen::coordinator::ScanPlan;
use hybrid_jen::pipeline::scan_blocks_batched;
use hybrid_jen::{LocalJoiner, ScanSpec};
use hybrid_net::{Endpoint, StreamTag};
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

/// What both executors derive from the query before registering a step:
/// the fact scan, the canonical joined schema `fact' ++ dim_0' ++ …`, every
/// `dim_i'` schema, and the per-axis heavy-hitter foreign keys (both
/// clusters must route from the same hot sets, so detection happens once,
/// up front; empty sets mean "no salting on this axis").
struct StarInputs<'a> {
    star: &'a StarQuery,
    plan: ScanPlan,
    spec: ScanSpec,
    canonical: Schema,
    dim_schemas: Vec<Schema>,
    hot: Vec<HashSet<i64>>,
}

impl<'a> StarInputs<'a> {
    fn new(sys: &HybridSystem, star: &'a StarQuery) -> Result<StarInputs<'a>> {
        let plan = sys.coordinator.plan_scan(&star.fact_table)?;
        let dim_schemas: Vec<Schema> = star
            .dims
            .iter()
            .map(|d| db_schema(sys, &d.table, &d.proj))
            .collect::<Result<_>>()?;
        let fact_schema = plan.table.schema.project(&star.fact_proj)?;
        let canonical = dim_schemas.iter().fold(fact_schema, |s, d| s.join(d));
        let (table, pred, proj) = (&star.fact_table, &star.fact_pred, &star.fact_proj);
        let hot = sample_hot_keys(sys, "multiway.salt", table, pred, proj, &star.fact_keys)?
            .unwrap_or_else(|| vec![HashSet::new(); star.dims.len()]);
        let spec = ScanSpec {
            pred: star.fact_pred.clone(),
            proj: star.fact_proj.clone(),
            bloom_key: None,
        };
        Ok(StarInputs {
            star,
            plan,
            spec,
            canonical,
            dim_schemas,
            hot,
        })
    }

    /// The physical schema of an intermediate in `layout`.
    fn schema(&self, layout: &Layout) -> Result<Schema> {
        self.canonical.project(&layout.0)
    }

    /// Worker `w`'s filtered fact share, block-framed, as its first
    /// intermediate (under a compute permit).
    fn scan_fact(&self, sys: &HybridSystem, driver: &Driver, w: usize) -> Result<StarRun> {
        let _permit = driver.compute_permit();
        let (plan, worker) = (&self.plan, &sys.jen_workers[w]);
        let (blocks, _) =
            scan_blocks_batched(worker, &plan.table, &plan.blocks[w], &self.spec, None)?;
        Ok(StarRun::new(blocks, Layout::fact(self.star)))
    }

    /// Ship worker `w`'s intermediate among the JEN workers on `stream`:
    /// its live columns while dimensions `pending` are still to be joined
    /// ([`Layout::live`]), routed by `route` over their layout. The piece
    /// the worker routes to itself stays as its intermediate; the rest
    /// reaches the receivers' next step.
    fn exchange<R>(
        &self,
        sys: &HybridSystem,
        st: &mut JenTask,
        w: usize,
        pending: &[usize],
        stream: StreamTag,
        route: impl FnOnce(&Layout) -> R,
    ) -> Result<()>
    where
        R: FnMut(&Batch) -> Result<Vec<SelectionVector>>,
    {
        let run = std::mem::take(&mut st.star_run);
        debug_assert!(run.joiners.is_empty(), "a run ends before an exchange");
        let (keep, layout) = run.layout.live(self.star, pending);
        let blocks = if keep.len() == run.layout.0.len() {
            run.blocks
        } else {
            run.blocks
                .iter()
                .map(|b| b.project(&keep))
                .collect::<Result<_>>()?
        };
        let schema = self.schema(&layout)?;
        let (own, rows, bytes) =
            jen_shuffle_share(sys, st, w, stream, &schema, &blocks, route(&layout))?;
        meter_shuffle(sys, rows, bytes);
        st.star_run = StarRun::new(vec![own], layout);
        Ok(())
    }
}

/// The columns an intermediate carries, in physical order: entry `p` is
/// the canonical joined-layout column at position `p`. A local join
/// prepends its build side ([`Layout::join`]); an exchange keeps only the
/// live columns ([`Layout::live`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Layout(Vec<usize>);

impl Layout {
    /// The fact projection `fact'`: canonical columns `0..fact width`.
    fn fact(star: &StarQuery) -> Layout {
        Layout((0..star.fact_proj.len()).collect())
    }

    /// This layout after a local join building on dimension `d`:
    /// `dim_d' ++ self`.
    fn join(&self, star: &StarQuery, d: usize) -> Layout {
        let widths = star.dims.iter().map(|q| q.proj.len());
        let start = star.fact_proj.len() + widths.take(d).sum::<usize>();
        let dim = start..start + star.dims[d].proj.len();
        Layout(dim.chain(self.0.iter().copied()).collect())
    }

    /// The physical position of canonical column `c`, if carried.
    fn position(&self, c: usize) -> Option<usize> {
        self.0.iter().position(|&x| x == c)
    }

    /// The position of dimension `d`'s foreign key.
    fn fk(&self, star: &StarQuery, d: usize) -> usize {
        self.position(star.fact_keys[d])
            .expect("a foreign key stays live until its dimension joins")
    }

    /// The live columns while dimensions `pending` are still to be joined:
    /// their foreign keys, plus every column the post-predicate, group key
    /// and aggregates read. Returns their positions here and the layout
    /// they form.
    fn live(&self, star: &StarQuery, pending: &[usize]) -> (Vec<usize>, Layout) {
        let mut live = star.group_expr.referenced_columns();
        if let Some(p) = &star.post_predicate {
            live.extend(p.referenced_columns());
        }
        live.extend(star.aggs.iter().filter_map(|a| a.column()));
        live.extend(pending.iter().map(|&d| star.fact_keys[d]));
        let keep: Vec<usize> = (0..self.0.len())
            .filter(|&p| live.contains(&self.0[p]))
            .collect();
        let layout = Layout(keep.iter().map(|&p| self.0[p]).collect());
        (keep, layout)
    }

    /// The query's residual predicate, group key and aggregates, rewritten
    /// from the canonical joined layout to this one.
    fn exprs(&self, star: &StarQuery) -> (Option<Expr>, Expr, Vec<AggSpec>) {
        let remap = |e: &Expr| {
            e.remap_columns(&|c| self.position(c))
                .expect("expression columns stay live")
        };
        (
            star.post_predicate.as_ref().map(remap),
            remap(&star.group_expr),
            remap_agg_columns(&star.aggs, |c| {
                self.position(c).expect("aggregate columns stay live")
            }),
        )
    }
}

/// A star plan's running intermediate on one worker: `blocks` in
/// `layout`, plus the in-memory dimension tables waiting to probe them in
/// one k-way pass — a run of consecutive local joins whose intermediates
/// are never materialised. Table `i` (dimension `dims[i]`) is probed by
/// foreign key `keys[i]` of the blocks; the joined layout is the prefix
/// stack `dim_last' ++ … ++ dim_first' ++ layout`, exactly what joining
/// them one at a time builds.
#[derive(Default)]
pub(crate) struct StarRun {
    blocks: Vec<Batch>,
    layout: Layout,
    joiners: Vec<HashJoiner>,
    keys: Vec<usize>,
    dims: Vec<usize>,
}

impl StarRun {
    fn new(blocks: Vec<Batch>, layout: Layout) -> StarRun {
        StarRun {
            blocks,
            layout,
            ..StarRun::default()
        }
    }

    fn rows(&self) -> u64 {
        self.blocks.iter().map(|b| b.num_rows() as u64).sum()
    }

    /// Build dimension `d` from `batches` and join it next: an in-memory
    /// table joins the run; a spilling one ends it — the run is
    /// materialised, and the spilling table probes that on its own.
    fn build_next(
        &mut self,
        sys: &HybridSystem,
        label: &str,
        inputs: &StarInputs,
        d: usize,
        batches: Vec<Batch>,
    ) -> Result<()> {
        let star = inputs.star;
        let built: u64 = batches.iter().map(|b| b.num_rows() as u64).sum();
        let build_span = sys.tracer.start(label.to_string(), Stage::HashBuild);
        let mut joiner = local_joiner(sys, inputs.dim_schemas[d].clone(), star.dims[d].key)?;
        for b in batches {
            joiner.build(b)?;
        }
        build_span.done(0, built);
        let spilling = match joiner {
            LocalJoiner::InMemory(j) => {
                self.joiners.push(j);
                self.keys.push(self.layout.fk(star, d));
                self.dims.push(d);
                return Ok(());
            }
            spilling => spilling,
        };
        self.materialise(sys, label, inputs)?;
        let probe_span = sys.tracer.start(label.to_string(), Stage::Probe);
        let rows = self.rows();
        let (schema, key) = (inputs.schema(&self.layout)?, self.layout.fk(star, d));
        let joined = spilling.probe_all(&schema, std::mem::take(&mut self.blocks), key)?;
        probe_span.done(0, rows);
        *self = StarRun::new(vec![joined], self.layout.join(star, d));
        Ok(())
    }

    /// End the run where its rows must exist: the blocks become their join
    /// through every table, one batch with every column gathered once.
    fn materialise(&mut self, sys: &HybridSystem, label: &str, inputs: &StarInputs) -> Result<()> {
        if self.joiners.is_empty() {
            return Ok(());
        }
        let probe_span = sys.tracer.start(label.to_string(), Stage::Probe);
        let schema = inputs.schema(&self.layout)?;
        let joiners: Vec<&HashJoiner> = self.joiners.iter().collect();
        let joined = HashJoiner::probe_star(&joiners, &schema, &self.blocks, &self.keys)?;
        probe_span.done(0, self.rows());
        *self = StarRun::new(vec![joined], self.joined_layout(inputs.star));
        Ok(())
    }

    fn joined_layout(&self, star: &StarQuery) -> Layout {
        self.dims
            .iter()
            .fold(self.layout.clone(), |l, &d| l.join(star, d))
    }

    /// End the star on this worker: the join folds into the query's
    /// join-aggregate sink — the run's tables probe there, or materialised
    /// blocks pass through it — and becomes the worker's partial aggregate.
    fn finish(self, sys: &HybridSystem, label: String, star: &StarQuery) -> Result<Batch> {
        let (post_predicate, group_expr, aggs) = self.joined_layout(star).exprs(star);
        let mut sink = JoinAggregator::new(post_predicate.as_ref(), &group_expr, &aggs);
        if self.joiners.is_empty() {
            return partial_aggregate(sys, label, sink, &self.blocks);
        }
        let probe_span = sys.tracer.start(label.clone(), Stage::Probe);
        let joiners: Vec<&HashJoiner> = self.joiners.iter().collect();
        for p in &self.blocks {
            sink.probe_star(&joiners, p, &self.keys)?;
        }
        probe_span.done(0, self.rows());
        drop(joiners);
        drop(self);
        partial_aggregate(sys, label, sink, &[])
    }
}

/// Uniform data-movement meters every multiway shuffle send reports
/// (cross-network only — local pieces never count). `bench_baseline`
/// compares planners on exactly these counters.
pub(crate) fn meter_shuffle(sys: &HybridSystem, rows: u64, bytes: u64) {
    sys.metrics.add("multiway.shuffle.tuples", rows);
    sys.metrics.add("multiway.shuffle.bytes", bytes);
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
    fn layout_inverts_the_prefix_stack() {
        // k = 2, fact width 3 (2 FKs + group), dim width 2. Join order
        // [1, 0] → physical layout dim0' ++ dim1' ++ fact'.
        let q = star(2);
        let positions = |l: &Layout| -> Vec<usize> {
            (0..q.joined_width())
                .map(|c| l.position(c).unwrap())
                .collect()
        };
        let map = positions(&Layout::fact(&q).join(&q, 1).join(&q, 0));
        // canonical fact cols 0..3 → physical 4..7
        assert_eq!(&map[0..3], &[4, 5, 6]);
        // canonical dim0 cols → physical 0..2 (joined last, so outermost)
        assert_eq!(&map[3..5], &[0, 1]);
        // canonical dim1 cols → physical 2..4
        assert_eq!(&map[5..7], &[2, 3]);
        // identity order stacks the other way round
        let map = positions(&Layout::fact(&q).join(&q, 0).join(&q, 1));
        assert_eq!(&map[0..3], &[4, 5, 6]);
        assert_eq!(&map[3..5], &[2, 3]);
        assert_eq!(&map[5..7], &[0, 1]);
        // a full layout is a permutation of the joined width
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
        let layout = Layout::fact(&q).join(&q, 1).join(&q, 0);
        assert_eq!(
            layout.exprs(&q).2,
            vec![AggSpec::Count, AggSpec::SumI64(layout.position(4).unwrap())]
        );
    }

    #[test]
    fn live_columns_drop_consumed_keys_and_unread_dimension_columns() {
        // canonical: fact fk0 0, fk1 1, group 2 | dim0 key 3, col 4 | dim1
        // key 5, col 6. The group key reads 2, a sum reads dim1's key 5.
        let q = StarQuery {
            aggs: vec![AggSpec::SumI64(5)],
            ..star(2)
        };
        let fact = Layout::fact(&q);
        // nothing joined yet: both foreign keys and the group are live
        assert_eq!(fact.live(&q, &[1, 0]).1, fact);
        // after dim 1: fk1 is consumed, dim1's unread column 6 goes, its
        // read key 5 stays; fk0 is still to be joined
        let after = fact.join(&q, 1);
        let (keep, live) = after.live(&q, &[0]);
        assert_eq!(live, Layout(vec![5, 0, 2]));
        assert_eq!(keep, vec![0, 2, 4]);
        assert_eq!(live.fk(&q, 0), 1);
        // a column an expression reads outlives its foreign key
        let q = StarQuery {
            aggs: vec![AggSpec::SumI64(1)],
            ..q
        };
        assert_eq!(after.live(&q, &[0]).1, Layout(vec![0, 1, 2]));
    }
}
