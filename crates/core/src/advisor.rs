//! Algorithm advisor — the decision rules of the paper's discussion (§5.5).
//!
//! "Broadcast join only works for very limited cases … the DB-side join
//! works well only when the HDFS table after predicates and projection is
//! relatively small … for a large HDFS table without highly selective
//! predicates, zigzag join is the most reliable join method."
//!
//! The advisor prices every paper variant with the one cost model the
//! figures use ([`crate::costmodel`]): it predicts the volumes each
//! algorithm would move from the query's estimates and picks the plan the
//! model finds fastest. Its rules are therefore the model's — in
//! particular the model prices Fig. 13(b)'s ingestion at one flat rate,
//! so at σT = 0.1 it prefers db(BF) where the paper prefers zigzag
//! (EXPERIMENTS.md §5.5).
//!
//! Star queries are still priced in weighted bytes ([`advise_multiway`]).

use crate::algorithms::JoinAlgorithm;
use crate::costmodel::{predict, CostBreakdown, CostModel, ScaleFactors};

/// Pre-execution estimates about one query (from catalog statistics in a
/// real system; the experiment harness derives them from the generator's
/// ground truth, the service from a sample).
#[derive(Debug, Clone, Copy)]
pub struct QueryEstimates {
    /// Bytes of the database table after local predicates + projection.
    pub t_prime_bytes: u64,
    /// Bytes of the HDFS table after local predicates + projection.
    pub l_prime_bytes: u64,
    /// Rows of `T'`.
    pub t_prime_rows: u64,
    /// Rows of `L'`.
    pub l_prime_rows: u64,
    /// Rows of `L` the scan reads, before its predicate.
    pub l_rows: u64,
    /// Bytes the `L` scan reads from storage (only the columns it needs,
    /// on the columnar format).
    pub l_bytes_read: u64,
    /// Bytes the database reads to produce `T'` (index or table access).
    pub db_prep_bytes: u64,
    /// Join-key selectivity on `T'` (fraction of `T'` join keys that appear
    /// in `L'` — `S_T'` in the paper). 1.0 when unknown.
    pub st: f64,
    /// Join-key selectivity on `L'` (`S_L'`). 1.0 when unknown.
    pub sl: f64,
    /// JEN worker count (broadcast fan-out).
    pub num_jen_workers: usize,
    /// Wire size of one Bloom filter.
    pub bloom_bytes: u64,
    /// Estimated shuffle imbalance: max JEN worker's share of the `L'`
    /// shuffle over the mean (1.0 = uniform keys, `num_jen_workers` =
    /// a single hot key). The straggler bounds every pipelined shuffle
    /// phase, so shuffle-based strategies scale with it; broadcast (which
    /// replicates `T'` everywhere and keeps `L` local) is immune.
    pub shuffle_skew: f64,
    /// The same imbalance over only the `L'` rows whose key joins `T'` —
    /// what the shuffle of a `BF_DB`-filtered `L'` routes. Few surviving
    /// keys spread less evenly over the workers than many.
    pub joined_shuffle_skew: f64,
    /// Build-side memory budget *per JEN worker*, bytes (`None` =
    /// unbounded). When a strategy's per-worker hash build exceeds it, the
    /// hybrid hash join evicts the excess to local spill runs and re-reads
    /// it at probe time — a real cost the model charges, so a tight budget
    /// can flip the advice toward a plan that builds less (or not at all)
    /// on the JEN side.
    pub mem_budget_per_worker: Option<u64>,
    /// Rows per fabric data message (`SystemConfig::batch_rows`).
    pub batch_rows: u64,
}

/// The model's estimate for running `algorithm` on a query with estimates
/// `est`, at the estimates' own scale; `None` for the strategies the
/// advisor does not price (semi-join and PERF baselines).
pub fn predicted_cost(est: &QueryEstimates, algorithm: JoinAlgorithm) -> Option<CostBreakdown> {
    let summary = predict(est, algorithm);
    let priced = JoinAlgorithm::paper_variants().contains(&algorithm);
    priced.then(|| CostModel::paper().estimate(algorithm, &summary, &ScaleFactors::identity()))
}

/// Pick the paper variant the cost model finds fastest (the first of
/// [`JoinAlgorithm::paper_variants`] on a tie).
pub fn advise(est: &QueryEstimates) -> JoinAlgorithm {
    let total = |alg| predicted_cost(est, alg).map_or(f64::INFINITY, |c| c.total_s);
    JoinAlgorithm::paper_variants()
        .into_iter()
        .map(|alg| (alg, total(alg)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("six paper variants")
        .0
}

// ---------------------------------------------------------------------------
// multiway (star-schema) pricing
// ---------------------------------------------------------------------------

/// Relative cost of an intra-HDFS byte vs a cross-cluster byte. The paper's
/// testbed has 30 × 1 GbE inside the HDFS cluster vs a 20 Gbit switch
/// between clusters — aggregate intra bandwidth is moderately higher.
const INTRA_WEIGHT: f64 = 0.7;

/// Per-byte penalty for data *leaving* the database: the paper exports
/// tuples through C UDFs writing to sockets row by row — far more expensive
/// than raw link bandwidth.
const DB_EXPORT_WEIGHT: f64 = 3.0;

/// Pre-execution estimates for one dimension of a star query.
#[derive(Debug, Clone, Copy)]
pub struct DimEstimates {
    /// Bytes of the dimension after its local predicate + projection.
    pub dim_prime_bytes: u64,
    /// Rows of the dimension after its local predicate + projection.
    pub dim_prime_rows: u64,
    /// Fraction of fact rows that survive the join with this dimension
    /// (FK hits a selected dimension key). Shrinks the intermediate a
    /// cascade re-shuffles at every later step — the quantity that makes
    /// *uncorrelated* dimensions favor cascades and *correlated* ones
    /// (pass fraction ≈ 1, nothing shrinks) favor the one-shot hypercube.
    pub pass_fraction: f64,
}

/// Pre-execution estimates for a whole star query.
#[derive(Debug, Clone)]
pub struct StarEstimates {
    /// Bytes of the fact table after local predicates + projection.
    pub fact_prime_bytes: u64,
    /// Rows of the fact table after local predicates + projection.
    pub fact_prime_rows: u64,
    /// One entry per dimension, in query order.
    pub dims: Vec<DimEstimates>,
    pub num_jen_workers: usize,
}

/// One step of a left-deep cascade plan: which dimension joins next and
/// whether it is broadcast to every JEN worker (fact stays put) or
/// hash-routed (the intermediate re-shuffles to meet it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CascadeStep {
    pub dim: usize,
    pub broadcast: bool,
}

/// A priced multiway execution strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum MultiwayPlan {
    /// Left-deep cascade of binary joins, in step order.
    Cascade(Vec<CascadeStep>),
    /// One-shot hypercube (Shares) shuffle with this share vector.
    Hypercube(Vec<usize>),
}

/// The advisor's full multiway deliberation: the winner plus both priced
/// alternatives, so a forced planner can still run the *best* plan of its
/// family and callers can audit the margin.
#[derive(Debug, Clone)]
pub struct MultiwayChoice {
    pub plan: MultiwayPlan,
    pub cascade: (Vec<CascadeStep>, f64),
    pub hypercube: (Vec<usize>, f64),
}

/// Price one cascade order: per step the cheaper of broadcasting the
/// dimension (`DB_EXPORT · dim · n`, fact untouched) or re-shuffling the
/// intermediate to meet a hash-routed dimension (`DB_EXPORT · dim +
/// INTRA · cur`). The intermediate decays by the dimension's pass
/// fraction after each step. Step modes are independent, so the greedy
/// per-step choice is the optimum for a fixed order.
fn price_cascade(est: &StarEstimates, order: &[usize]) -> (Vec<CascadeStep>, f64) {
    let n = est.num_jen_workers.max(1) as f64;
    let mut cur = est.fact_prime_bytes as f64;
    let mut total = 0.0;
    let mut steps = Vec::with_capacity(order.len());
    for &d in order {
        let dim = est.dims[d].dim_prime_bytes as f64;
        let broadcast_cost = DB_EXPORT_WEIGHT * dim * n;
        let repartition_cost = DB_EXPORT_WEIGHT * dim + INTRA_WEIGHT * cur;
        let broadcast = broadcast_cost <= repartition_cost;
        total += broadcast_cost.min(repartition_cost);
        steps.push(CascadeStep { dim: d, broadcast });
        cur *= est.dims[d].pass_fraction.clamp(0.0, 1.0);
    }
    (steps, total)
}

/// All permutations of `0..k` (k ≤ 3 under the dimension cap, so at most
/// six), in lexicographic order for a deterministic tie-break.
fn permutations(k: usize) -> Vec<Vec<usize>> {
    fn rec(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            prefix.push(x);
            rec(prefix, rest, out);
            prefix.pop();
            rest.insert(i, x);
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut (0..k).collect(), &mut out);
    out
}

/// The cheapest left-deep cascade over every dimension order.
pub fn best_cascade(est: &StarEstimates) -> (Vec<CascadeStep>, f64) {
    permutations(est.dims.len())
        .iter()
        .map(|order| price_cascade(est, order))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are finite"))
        .expect("at least one dimension order")
}

/// Every share vector `s` with `Π sᵢ ≤ n` (one worker per grid cell, the
/// rest idle), each component in `1..=n`.
fn share_vectors(k: usize, n: usize) -> Vec<Vec<usize>> {
    fn rec(k: usize, budget: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if prefix.len() == k {
            out.push(prefix.clone());
            return;
        }
        for s in 1..=budget {
            prefix.push(s);
            rec(k, budget / s, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    rec(k, n.max(1), &mut Vec::new(), &mut out);
    out
}

/// Price one hypercube share vector: the fact shuffles once (every row to
/// exactly one grid cell) and dimension `i` replicates to the `cells/sᵢ`
/// workers of each cell along its axis (Afrati & Ullman's Shares).
fn price_hypercube(est: &StarEstimates, shares: &[usize]) -> f64 {
    let cells: usize = shares.iter().product();
    let dim_export: f64 = est
        .dims
        .iter()
        .zip(shares)
        .map(|(d, &s)| d.dim_prime_bytes as f64 * (cells / s) as f64)
        .sum();
    INTRA_WEIGHT * est.fact_prime_bytes as f64 + DB_EXPORT_WEIGHT * dim_export
}

/// The cheapest hypercube share vector. Only *full* grids are priced —
/// `Π sᵢ = n`, following Afrati & Ullman, who fix the cell count at the
/// worker count and optimise the shares: a smaller grid always ships
/// fewer replicated dimension bytes, but idles workers and concentrates
/// the entire fact probe on the cells that remain, which the byte-level
/// model cannot see. (`[n, 1, …, 1]` keeps the set non-empty for any
/// `n`.) Cost ties prefer more grid cells, then the lexicographically
/// smallest vector — fully deterministic.
pub fn best_hypercube(est: &StarEstimates) -> (Vec<usize>, f64) {
    let n = est.num_jen_workers.max(1);
    share_vectors(est.dims.len(), n)
        .into_iter()
        .filter(|s| s.iter().product::<usize>() == n)
        .map(|s| {
            let c = price_hypercube(est, &s);
            (s, c)
        })
        .min_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("costs are finite")
                .then_with(|| {
                    let (ca, cb) = (a.0.iter().product::<usize>(), b.0.iter().product::<usize>());
                    cb.cmp(&ca).then_with(|| a.0.cmp(&b.0))
                })
        })
        .expect("at least the all-ones share vector")
}

/// Price the best cascade against the best hypercube and pick the winner.
/// Ties go to the cascade: with one dimension the hypercube with share
/// vector `[n]` *is* a repartition cascade, and the simpler plan wins.
pub fn advise_multiway(est: &StarEstimates) -> MultiwayChoice {
    let cascade = best_cascade(est);
    let hypercube = best_hypercube(est);
    let plan = if hypercube.1 < cascade.1 {
        MultiwayPlan::Hypercube(hypercube.0.clone())
    } else {
        MultiwayPlan::Cascade(cascade.0.clone())
    };
    MultiwayChoice {
        plan,
        cascade,
        hypercube,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Paper-scale sizes: T = 1.6 B rows, L = 15 B rows read as 170 GB of
    /// projected Parquet, 30+30 workers, 16 MB Bloom filters. A `T'` row
    /// is 8 wire bytes and an `L'` row 48, as the generated query's are;
    /// the database reads `T'` through a 12-byte index entry per row.
    fn paper_estimates(sigma_t: f64, sigma_l: f64, st: f64, sl: f64) -> QueryEstimates {
        let t_rows = (1.6e9 * sigma_t) as u64;
        let l_rows = (15e9 * sigma_l) as u64;
        QueryEstimates {
            t_prime_bytes: t_rows * 8,
            l_prime_bytes: l_rows * 48,
            t_prime_rows: t_rows,
            l_prime_rows: l_rows,
            l_rows: 15_000_000_000,
            l_bytes_read: 170_000_000_000,
            db_prep_bytes: t_rows * 12,
            st,
            sl,
            num_jen_workers: 30,
            bloom_bytes: 16 << 20,
            shuffle_skew: 1.0,
            joined_shuffle_skew: 1.0,
            mem_budget_per_worker: None,
            batch_rows: 4096,
        }
    }

    /// Every paper variant's estimated seconds, in `paper_variants` order.
    fn priced(est: &QueryEstimates) -> Vec<(JoinAlgorithm, f64)> {
        let price = |alg| predicted_cost(est, alg).expect("a paper variant").total_s;
        JoinAlgorithm::paper_variants()
            .into_iter()
            .map(|alg| (alg, price(alg)))
            .collect()
    }

    #[test]
    fn tiny_db_predicate_means_broadcast() {
        // σT = 0.001 → T' ≈ 13 MB: the paper's broadcast regime (§5.1.2)
        let est = paper_estimates(0.001, 0.2, 1.0, 1.0);
        assert_eq!(advise(&est), JoinAlgorithm::Broadcast);
    }

    #[test]
    fn tiny_hdfs_predicate_means_db_side() {
        // σL = 0.001 → L' ≈ 720 MB: DB-side wins (§5.3), and with such a
        // small L' the plain variant beats paying for the Bloom filter
        // (§5.2: "the overhead … can cancel out or even outweigh its benefit")
        let est = paper_estimates(0.1, 0.001, 1.0, 1.0);
        assert_eq!(advise(&est), JoinAlgorithm::DbSide { bloom: false });
    }

    #[test]
    fn moderate_hdfs_predicate_with_selective_join_means_db_bloom() {
        // σL = 0.1 with a selective join: DB-side with Bloom (§5.2). (At
        // σL = 0.01 the 100 s scan floor already hides the ingestion the
        // filter saves, and the model keeps the plain DB-side join.)
        let est = paper_estimates(0.1, 0.1, 0.5, 0.1);
        assert_eq!(advise(&est), JoinAlgorithm::DbSide { bloom: true });
    }

    #[test]
    fn common_case_means_zigzag() {
        // No highly selective predicate anywhere, selective join keys: the
        // paper's robust choice is zigzag (§5.5). The model prefers db(BF)
        // here, as it does in Fig. 13(b) at every σL — the recorded
        // deviation `fig13b.hdfs_wins_from_0_1`: ingestion is priced at one
        // flat rate, so once BF_DB has cut L' to a tenth, shipping it into
        // the database undercuts zigzag's BF_H round trip.
        let est = paper_estimates(0.1, 0.4, 0.2, 0.1);
        assert_eq!(advise(&est), JoinAlgorithm::DbSide { bloom: true });
    }

    #[test]
    fn unselective_join_keys_fall_back_to_repartition_family() {
        // join-key predicates filter nothing (st = sl = 1): zigzag's two
        // Bloom exchanges are pure overhead
        let est = paper_estimates(0.1, 0.4, 1.0, 1.0);
        let choice = advise(&est);
        assert_eq!(choice, JoinAlgorithm::Repartition { bloom: false });
    }

    #[test]
    fn extreme_skew_flips_repartition_to_broadcast() {
        // Modest T', unselective join keys: repartition is the uniform-key
        // choice. A single hot key (skew = worker count) inflates its
        // straggler-bound shuffle 30×, while broadcast — which never
        // shuffles L' — is untouched and takes over. (At σT = 0.01 the 30
        // copies of T' would cost more than ingesting L' into the database.)
        let mut est = paper_estimates(0.005, 0.2, 1.0, 1.0);
        assert_eq!(advise(&est), JoinAlgorithm::Repartition { bloom: false });
        est.shuffle_skew = 30.0;
        est.joined_shuffle_skew = 30.0;
        assert_eq!(advise(&est), JoinAlgorithm::Broadcast);
    }

    #[test]
    fn tight_memory_budget_flips_repartition_to_db_side() {
        // Unselective join keys and a small T' make plain repartition the
        // uniform choice, a few seconds ahead of the DB-side join that
        // ingests L' — but its per-worker build (L'/30 ≈ 480 MB here)
        // dwarfs a 64 MB budget, so most of it would spill and re-read. The
        // DB-side join builds nothing on JEN, pays no spill, and takes over.
        let mut est = paper_estimates(0.01, 0.02, 1.0, 1.0);
        assert_eq!(advise(&est), JoinAlgorithm::Repartition { bloom: false });
        est.mem_budget_per_worker = Some(64 << 20);
        assert_eq!(advise(&est), JoinAlgorithm::DbSide { bloom: false });
    }

    #[test]
    fn generous_memory_budget_changes_nothing() {
        // A budget the build fits under must leave every estimate
        // byte-identical to the unbounded advisor.
        let mut est = paper_estimates(0.1, 0.4, 0.2, 0.1);
        let unbounded = priced(&est);
        let advised = advise(&est);
        est.mem_budget_per_worker = Some(1 << 40);
        assert_eq!(priced(&est), unbounded);
        assert_eq!(advise(&est), advised);
    }

    #[test]
    fn db_side_costs_never_carry_a_memory_term() {
        let mut est = paper_estimates(0.1, 0.4, 0.5, 0.5);
        let unbounded = priced(&est);
        est.mem_budget_per_worker = Some(1); // brutally tight
        let tight = priced(&est);
        for ((alg, before), (alg2, after)) in unbounded.iter().zip(tight.iter()) {
            assert_eq!(alg, alg2);
            match alg {
                JoinAlgorithm::DbSide { .. } => assert_eq!(before, after, "{alg:?}"),
                _ => assert!(after > before, "{alg:?} must pay a spill penalty"),
            }
        }
    }

    #[test]
    fn skew_is_clamped_to_sane_range() {
        let mut est = paper_estimates(0.1, 0.4, 0.2, 0.1);
        est.shuffle_skew = 0.0; // nonsense below 1.0 treated as uniform
        est.joined_shuffle_skew = 0.0;
        let base = priced(&est);
        est.shuffle_skew = 1.0;
        est.joined_shuffle_skew = 1.0;
        assert_eq!(priced(&est), base);
    }

    #[test]
    fn cost_of_matches_the_cost_table() {
        // every paper variant is priced on its own predicted volumes; the
        // semi-join and PERF baselines are not priced at all
        let est = paper_estimates(0.1, 0.4, 0.2, 0.1);
        let model = CostModel::paper();
        for (alg, c) in priced(&est) {
            let direct = model.estimate(alg, &predict(&est, alg), &ScaleFactors::identity());
            assert_eq!(direct.total_s, c, "{alg:?}");
        }
        assert!(predicted_cost(&est, JoinAlgorithm::SemiJoin).is_none());
        assert!(predicted_cost(&est, JoinAlgorithm::PerfJoin).is_none());
    }

    /// The decision does not depend on the scale the estimates are given
    /// at: every volume × 10⁴ (row counts, bytes, the Bloom filter) leaves
    /// the pick unchanged, because every phase but the fixed overhead —
    /// which every plan pays alike — is linear in the volumes.
    #[test]
    fn advice_is_invariant_to_the_volume_scale() {
        let grid = [
            (0.001, 0.2, 1.0, 1.0),
            (0.01, 0.2, 0.2, 0.1),
            (0.05, 0.001, 0.2, 0.1),
            (0.1, 0.001, 1.0, 1.0),
            (0.1, 0.01, 0.5, 0.1),
            (0.1, 0.4, 0.2, 0.1),
            (0.1, 0.4, 1.0, 1.0),
            (0.2, 0.8, 0.05, 0.9),
        ];
        for (t, l, st, sl) in grid {
            // the paper's volumes shrunk 10⁴×, then grown back
            let paper = paper_estimates(t, l, st, sl);
            let small = scaled(&paper, 1e-4);
            let big = scaled(&small, 1e4);
            assert_eq!(advise(&small), advise(&big), "({t}, {l}, {st}, {sl})");
            assert_eq!(advise(&small), advise(&paper), "({t}, {l}, {st}, {sl})");
        }
    }

    /// `est` with every volume multiplied by `f`.
    pub(crate) fn scaled(est: &QueryEstimates, f: f64) -> QueryEstimates {
        let x = |v: u64| (v as f64 * f).round() as u64;
        QueryEstimates {
            t_prime_bytes: x(est.t_prime_bytes),
            l_prime_bytes: x(est.l_prime_bytes),
            t_prime_rows: x(est.t_prime_rows),
            l_prime_rows: x(est.l_prime_rows),
            l_rows: x(est.l_rows),
            l_bytes_read: x(est.l_bytes_read),
            db_prep_bytes: x(est.db_prep_bytes),
            bloom_bytes: x(est.bloom_bytes),
            mem_budget_per_worker: est.mem_budget_per_worker.map(x),
            ..*est
        }
    }

    fn star(fact_bytes: u64, dim_bytes: u64, pass: f64, n: usize) -> StarEstimates {
        StarEstimates {
            fact_prime_bytes: fact_bytes,
            fact_prime_rows: fact_bytes / 50,
            dims: (0..3)
                .map(|_| DimEstimates {
                    dim_prime_bytes: dim_bytes,
                    dim_prime_rows: dim_bytes / 12,
                    pass_fraction: pass,
                })
                .collect(),
            num_jen_workers: n,
        }
    }

    /// The documented advisor flip (DESIGN.md §16): tiny dimensions are
    /// cheapest broadcast one after another — the fact table never moves —
    /// while large *correlated* dimensions (pass fraction ≈ 1, so a cascade
    /// re-shuffles an undiminished intermediate at every step) flip the
    /// choice to the one-shot hypercube, which moves the fact exactly once.
    #[test]
    fn multiway_flips_from_broadcast_cascade_to_hypercube() {
        // 1 MB fact, 1 kB dimensions: cascade of three broadcasts.
        let small = star(1_000_000, 1_000, 0.9, 8);
        let choice = advise_multiway(&small);
        match &choice.plan {
            MultiwayPlan::Cascade(steps) => {
                assert_eq!(steps.len(), 3);
                assert!(steps.iter().all(|s| s.broadcast), "{steps:?}");
            }
            other => panic!("small dims should cascade, got {other:?}"),
        }

        // 2 MB fact, 67 kB correlated dimensions: broadcast pays 3·n·Σdim,
        // a repartition cascade re-ships the (unshrinking) fact three
        // times, and the hypercube undercuts both.
        let large = star(2_000_000, 67_000, 0.95, 8);
        let choice = advise_multiway(&large);
        match &choice.plan {
            MultiwayPlan::Hypercube(shares) => {
                assert_eq!(shares.len(), 3);
                let cells: usize = shares.iter().product();
                assert!(cells > 1 && cells <= 8, "{shares:?}");
            }
            other => panic!("large correlated dims should hypercube, got {other:?}"),
        }
        assert!(choice.hypercube.1 < choice.cascade.1);
    }

    #[test]
    fn share_vectors_respect_the_worker_budget() {
        for s in super::share_vectors(3, 8) {
            assert!(s.iter().product::<usize>() <= 8, "{s:?}");
            assert!(s.iter().all(|&x| x >= 1));
        }
        // the symmetric cube is among the candidates
        assert!(super::share_vectors(3, 8).contains(&vec![2, 2, 2]));
        assert_eq!(super::share_vectors(1, 4).len(), 4);
    }

    #[test]
    fn single_dimension_tie_goes_to_the_cascade() {
        // With one dimension, hypercube [n] prices identically to the
        // repartition cascade; the simpler cascade must win the tie.
        let est = StarEstimates {
            fact_prime_bytes: 1_000_000,
            fact_prime_rows: 20_000,
            dims: vec![DimEstimates {
                dim_prime_bytes: 500_000,
                dim_prime_rows: 40_000,
                pass_fraction: 1.0,
            }],
            num_jen_workers: 4,
        };
        let choice = advise_multiway(&est);
        assert!(matches!(choice.plan, MultiwayPlan::Cascade(_)));
        assert_eq!(choice.cascade.1, choice.hypercube.1);
    }

    #[test]
    fn uncorrelated_dims_favor_the_cascade() {
        // Same sizes as the hypercube case above, but pass fractions of
        // 0.2 shrink the intermediate 5× per step — the cascade's later
        // re-shuffles become nearly free and it wins back.
        let est = star(2_000_000, 67_000, 0.2, 8);
        let choice = advise_multiway(&est);
        assert!(matches!(choice.plan, MultiwayPlan::Cascade(_)));
    }

    #[test]
    fn costs_cover_all_paper_variants() {
        let est = paper_estimates(0.1, 0.1, 0.5, 0.5);
        let costs = priced(&est);
        assert_eq!(costs.len(), 6);
        for (_, c) in costs {
            assert!(c.is_finite() && c >= 0.0);
        }
    }
}
