//! Cross-crate correctness: every join algorithm, on every storage format,
//! over a generated workload, must produce exactly the single-node
//! reference result — the paper's implicit contract that all five
//! strategies compute the same query.

mod util;

use hybrid_core::reference::run_reference;
use hybrid_core::{run, JoinAlgorithm};
use hybrid_datagen::WorkloadSpec;
use hybrid_storage::FileFormat;
use util::{all_algorithms, loaded_system, test_config};

#[test]
fn every_algorithm_matches_reference_on_both_formats() {
    let workload = WorkloadSpec::tiny().generate().unwrap();
    let query = workload.query();
    let expected = run_reference(&workload.t, &workload.l, &query).unwrap();
    assert!(expected.num_rows() > 0);

    for format in [FileFormat::Columnar, FileFormat::Text] {
        let mut sys = loaded_system(test_config(3, 5), &workload, format);
        for alg in all_algorithms() {
            let out = run(&mut sys, &query, alg).unwrap();
            assert_eq!(out.result, expected, "{alg} diverged on {format}");
        }
    }
}

#[test]
fn selectivity_extremes_still_agree() {
    // very selective predicates on both sides → near-empty intermediates
    for (sigma_t, sigma_l, st, sl) in [(0.01, 0.01, 0.05, 0.05), (1.0, 1.0, 1.0, 1.0)] {
        let spec = WorkloadSpec {
            sigma_t,
            sigma_l,
            st,
            sl,
            ..WorkloadSpec::tiny()
        };
        let workload = spec.generate().unwrap();
        let query = workload.query();
        let expected = run_reference(&workload.t, &workload.l, &query).unwrap();
        let mut sys = loaded_system(test_config(2, 3), &workload, FileFormat::Columnar);
        for alg in all_algorithms() {
            let out = run(&mut sys, &query, alg).unwrap();
            assert_eq!(
                out.result, expected,
                "{alg} diverged at sigma=({sigma_t},{sigma_l})"
            );
        }
    }
}

#[test]
fn asymmetric_cluster_sizes_agree() {
    // more DB workers than JEN workers and vice versa
    let workload = WorkloadSpec::tiny().generate().unwrap();
    let query = workload.query();
    let expected = run_reference(&workload.t, &workload.l, &query).unwrap();
    for (db, jen) in [(7, 2), (2, 7)] {
        let mut cfg = test_config(db, jen);
        cfg.rows_per_block = 700;
        let mut sys = loaded_system(cfg, &workload, FileFormat::Columnar);
        for alg in all_algorithms() {
            let out = run(&mut sys, &query, alg).unwrap();
            assert_eq!(out.result, expected, "{alg} diverged on {db}x{jen}");
        }
    }
}

#[test]
fn multi_aggregate_queries_agree() {
    // beyond the paper's count(*): sum/min/max over the joined date column
    use hybrid_common::ops::AggSpec;
    let workload = WorkloadSpec::tiny().generate().unwrap();
    let mut query = workload.query();
    query.aggs = vec![
        AggSpec::Count,
        AggSpec::SumI64(1), // sum of T'.date over joined rows
        AggSpec::MinI64(3), // min of L'.date
        AggSpec::MaxI64(3),
    ];
    let expected = run_reference(&workload.t, &workload.l, &query).unwrap();
    assert_eq!(expected.schema().len(), 5);
    let mut sys = loaded_system(test_config(3, 4), &workload, FileFormat::Columnar);
    for alg in all_algorithms() {
        let out = run(&mut sys, &query, alg).unwrap();
        assert_eq!(
            out.result, expected,
            "{alg} diverged on multi-aggregate query"
        );
    }
}

#[test]
fn zigzag_reaccess_strategies_agree() {
    // §3.4: materializing T' and re-accessing it via the covering index
    // must be pure plan alternatives — same answer, different access paths.
    use hybrid_core::ZigzagReaccess;
    let workload = WorkloadSpec::tiny().generate().unwrap();
    let query = workload.query();
    let expected = run_reference(&workload.t, &workload.l, &query).unwrap();

    let mut results = Vec::new();
    for strategy in [ZigzagReaccess::Materialize, ZigzagReaccess::IndexReaccess] {
        let mut cfg = test_config(3, 4);
        cfg.zigzag_reaccess = strategy;
        let mut sys = loaded_system(cfg, &workload, FileFormat::Columnar);
        let out = run(&mut sys, &query, JoinAlgorithm::Zigzag).unwrap();
        assert_eq!(out.result, expected, "{strategy:?} diverged");
        results.push(out);
    }
    // re-access touches the database storage again (the workload's date
    // projection is not index-covered, so the second access is a base-table
    // scan); the materialized plan does not
    let touched = |s: &hybrid_core::JoinSummary| s.db_rows_scanned + s.db_index_rows;
    assert!(
        touched(&results[1].summary) > touched(&results[0].summary),
        "re-access should touch T again: {} vs {}",
        touched(&results[1].summary),
        touched(&results[0].summary)
    );
    // and network volumes are identical either way
    assert_eq!(
        results[0].summary.db_tuples_sent,
        results[1].summary.db_tuples_sent
    );
}

#[test]
fn repeated_runs_are_deterministic() {
    let workload = WorkloadSpec::tiny().generate().unwrap();
    let query = workload.query();
    let mut sys = loaded_system(test_config(3, 4), &workload, FileFormat::Columnar);
    let a = run(&mut sys, &query, JoinAlgorithm::Zigzag).unwrap();
    let b = run(&mut sys, &query, JoinAlgorithm::Zigzag).unwrap();
    assert_eq!(a.result, b.result);
    assert_eq!(
        a.summary, b.summary,
        "volume counters must be deterministic"
    );
}

#[test]
fn column_free_tail_counts_every_joined_row() {
    // A literal group, a literal-only post-join predicate and count(*) read
    // no joined column at all: every plan's tail, which gathers only the
    // columns its expressions read, must still count one row per match.
    use hybrid_common::batch::Batch;
    use hybrid_common::datum::Datum;
    use hybrid_common::expr::Expr;
    use hybrid_common::metrics::Metrics;
    use hybrid_common::ops::AggSpec;
    use hybrid_edw::{DbCluster, DbJoinSpec};
    let workload = WorkloadSpec::tiny().generate().unwrap();
    let mut query = workload.query();
    query.group_expr = Expr::ExtractGroup(Box::new(Expr::Lit(Datum::Utf8("g7".into()))));
    query.post_predicate = Some(Expr::lit_i64(0).le(Expr::lit_i64(1)));
    query.aggs = vec![AggSpec::Count];
    let expected = run_reference(&workload.t, &workload.l, &query).unwrap();
    assert_eq!(expected.num_rows(), 1);
    assert!(expected.column(1).unwrap().as_i64().unwrap()[0] > 0);

    let mut sys = loaded_system(test_config(3, 4), &workload, FileFormat::Columnar);
    let algorithms = all_algorithms();
    assert_eq!(algorithms.len(), 8);
    for alg in algorithms {
        let out = run(&mut sys, &query, alg).unwrap();
        assert_eq!(out.result, expected, "{alg} lost column-free rows");
    }

    // the EDW's own join, on T' and L' dealt round-robin to its workers
    let filtered = |table: &Batch, pred: &Expr, proj: &[usize]| {
        table
            .filter(&pred.eval_predicate(table).unwrap())
            .unwrap()
            .project(proj)
            .unwrap()
    };
    let t_prime = filtered(&workload.t, &query.db_pred, &query.db_proj);
    let l_prime = filtered(&workload.l, &query.hdfs_pred, &query.hdfs_proj);
    let db = DbCluster::new(3, Metrics::new()).unwrap();
    let deal = |b: &Batch| -> Vec<Batch> {
        (0..3u32)
            .map(|w| {
                let rows: Vec<u32> = (w..b.num_rows() as u32).step_by(3).collect();
                b.take(&rows)
            })
            .collect()
    };
    let spec = DbJoinSpec {
        left_key: query.db_key,
        right_key: query.hdfs_key,
        post_predicate: query.post_predicate.clone(),
        group_expr: query.group_expr.clone(),
        aggs: query.aggs.clone(),
    };
    let (result, _) = db
        .join_and_aggregate(&deal(&t_prime), &deal(&l_prime), &spec)
        .unwrap();
    assert_eq!(result, expected, "join_and_aggregate lost column-free rows");
}

#[test]
fn column_free_scan_predicate_keeps_all_or_no_rows() {
    // A local predicate that reads no column of L evaluates to a constant:
    // the late-materialising scan must expand it to every row of a block
    // (or none), on both formats and under every plan.
    use hybrid_common::expr::Expr;
    let workload = WorkloadSpec::tiny().generate().unwrap();
    for (bound, keeps_rows) in [(1, true), (-1, false)] {
        let mut query = workload.query();
        query.hdfs_pred = Expr::lit_i64(0).le(Expr::lit_i64(bound));
        let expected = run_reference(&workload.t, &workload.l, &query).unwrap();
        assert_eq!(expected.num_rows() > 0, keeps_rows);
        for format in [FileFormat::Columnar, FileFormat::Text] {
            let mut sys = loaded_system(test_config(3, 4), &workload, format);
            let algorithms = all_algorithms();
            assert_eq!(algorithms.len(), 8);
            for alg in algorithms {
                let out = run(&mut sys, &query, alg).unwrap();
                assert_eq!(out.result, expected, "{alg} on {format}, hdfs_pred {bound}");
            }
        }
    }
}
