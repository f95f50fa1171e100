//! Tour of the algorithm advisor (§5.5 rules): which join strategy to pick
//! as the predicate selectivities change. The advisor prices every plan
//! with the cost model the figures use, so each candidate's price below is
//! its estimated time on the paper's cluster.
//!
//! ```sh
//! cargo run --release --example advisor_tour
//! ```

use hybrid_core::advisor::{advise, predicted_cost, QueryEstimates};
use hybrid_core::JoinAlgorithm;

/// The paper's dataset: T = 1.6 B rows, L = 15 B rows read as 170 GB of
/// projected Parquet, 30 + 30 workers, 16 MB Bloom filters. A `T'` row is
/// 8 wire bytes and an `L'` row 48; the database reads `T'` through a
/// 12-byte index entry per row.
fn paper(sigma_t: f64, sigma_l: f64, st: f64, sl: f64) -> QueryEstimates {
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

fn main() {
    println!("advisor decisions across the selectivity space (paper-scale sizes):\n");
    println!(
        "{:>8} {:>8} {:>6} {:>6}   {:<16} fastest three plans (model seconds)",
        "sigma_T", "sigma_L", "ST'", "SL'", "advice"
    );
    for (sigma_t, sigma_l, st, sl) in [
        (0.001, 0.2, 1.0, 1.0), // tiny T' -> broadcast
        (0.01, 0.2, 1.0, 1.0),  // T' 10x bigger -> repartition family
        (0.1, 0.001, 1.0, 1.0), // tiny L' -> fetch into the DB
        (0.1, 0.1, 0.5, 0.1),   // selective join -> db(BF)
        (0.1, 0.4, 0.2, 0.1),   // the paper's common case -> db(BF) here
        (0.1, 0.4, 1.0, 1.0),   // join keys filter nothing -> plain repartition
        (0.1, 0.4, 0.05, 0.4),  // very selective T-side join keys -> zigzag
    ] {
        let est = paper(sigma_t, sigma_l, st, sl);
        let mut costs: Vec<(JoinAlgorithm, f64)> = JoinAlgorithm::paper_variants()
            .into_iter()
            .filter_map(|alg| predicted_cost(&est, alg).map(|c| (alg, c.total_s)))
            .collect();
        costs.sort_by(|a, b| a.1.total_cmp(&b.1));
        let ranking: Vec<String> = costs
            .iter()
            .take(3)
            .map(|(alg, s)| format!("{alg} ({s:.0} s)"))
            .collect();
        println!(
            "{sigma_t:>8} {sigma_l:>8} {st:>6} {sl:>6}   {:<16} {}",
            advise(&est).name(),
            ranking.join("  <  ")
        );
    }
    println!(
        "\nthe paper's conclusions fall out of the model: broadcast only for\n\
         very selective sigma_T, DB-side only while L' is cheap to ingest, and\n\
         the repartition family once the join keys filter. One known deviation\n\
         (EXPERIMENTS.md, Fig. 13(b)): ingestion is priced at one flat rate, so\n\
         once BF_DB has cut L' the DB side undercuts zigzag at sigma_T = 0.1."
    );

    // Skewed join keys change the picture: the hot worker bounds every
    // shuffle phase, so repartition's estimate inflates while broadcast
    // (no L' shuffle at all) is untouched.
    println!("\nsame query under join-key skew (sigma_T=0.005, sigma_L=0.2):");
    for skew in [1.0, 4.0, 30.0] {
        let est = QueryEstimates {
            shuffle_skew: skew,
            joined_shuffle_skew: skew,
            ..paper(0.005, 0.2, 1.0, 1.0)
        };
        println!(
            "  max/mean shuffle load {skew:>5.1}  ->  {}",
            advise(&est).name()
        );
    }

    // A memory budget changes it again: repartition's per-worker hash
    // build (L'/30) no longer fits, so the governor would spill and
    // re-read most of it — the model charges that round trip and the
    // build-free DB-side join takes over under the tightest budgets.
    println!("\nsame query under a per-worker memory budget (sigma_T=0.01, sigma_L=0.02):");
    for budget in [None, Some(4u64 << 30), Some(64 << 20)] {
        let est = QueryEstimates {
            mem_budget_per_worker: budget,
            ..paper(0.01, 0.02, 1.0, 1.0)
        };
        let label = match budget {
            None => "unbounded".to_string(),
            Some(b) => format!("{} MB/worker", b >> 20),
        };
        println!("  budget {label:>16}  ->  {}", advise(&est).name());
    }
}
