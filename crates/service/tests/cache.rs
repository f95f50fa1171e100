//! Cross-query cache behavior through the service API: hits are
//! bit-identical to cold runs, eviction is LRU-consistent, and table
//! rewrites force re-execution (all asserted via the hit/miss counters).

use hybrid_core::reference::run_reference;
use hybrid_core::{HybridQuery, HybridSystem, JoinAlgorithm, SystemConfig};
use hybrid_datagen::tables::l_cols;
use hybrid_datagen::{Workload, WorkloadSpec};
use hybrid_service::{QueryRequest, QueryService, ServiceConfig};
use hybrid_storage::FileFormat;

fn service(cfg: ServiceConfig) -> (QueryService, Workload) {
    let w = WorkloadSpec::tiny().generate().unwrap();
    let mut syscfg = SystemConfig::paper_shape(2, 3);
    syscfg.rows_per_block = 1000;
    let mut sys = HybridSystem::new(syscfg).unwrap();
    w.load_into(&mut sys, FileFormat::Columnar).unwrap();
    (QueryService::new(sys, cfg), w)
}

/// The workload query with a different HDFS-side correlated threshold —
/// same database side (same `BF_DB`), different result.
fn variant(w: &Workload, l_cor: i64) -> HybridQuery {
    use hybrid_common::expr::Expr;
    let mut q = w.query();
    q.hdfs_pred = Expr::col_le(l_cols::COR_PRED, l_cor)
        .and(Expr::col_le(l_cols::IND_PRED, w.thresholds.l_ind));
    q
}

#[test]
fn result_cache_hit_is_bit_identical_to_cold_run() {
    let (svc, w) = service(ServiceConfig::default());
    let req = QueryRequest::new(w.query());
    let expected = run_reference(&w.t, &w.l, &w.query()).unwrap();

    let cold = svc.submit(&req).unwrap();
    assert!(!cold.from_cache);
    assert_eq!(*cold.result, expected);
    assert!(cold.snapshot.is_some() && cold.summary.is_some());

    let hit = svc.submit(&req).unwrap();
    assert!(hit.from_cache);
    assert_eq!(*hit.result, expected, "hit must be bit-identical");
    assert_eq!(hit.plan, cold.plan);
    assert!(hit.snapshot.is_none(), "nothing executed on a hit");

    let m = svc.metrics();
    assert_eq!(m.get("svc.cache.result.hits"), 1);
    assert_eq!(m.get("svc.cache.result.misses"), 1);
    assert_eq!(m.get("svc.completed"), 2);
    assert_eq!(svc.latency_histogram().count(), 2);
}

#[test]
fn result_cache_eviction_is_lru_consistent() {
    let cfg = ServiceConfig {
        result_cache_capacity: 2,
        ..ServiceConfig::default()
    };
    let (svc, w) = service(cfg);
    let th = w.thresholds.l_cor;
    let v1 = variant(&w, th);
    let q1 = QueryRequest::new(v1.clone());
    let q2 = QueryRequest::new(variant(&w, th - 1));
    let q3 = QueryRequest::new(variant(&w, th - 2));
    let m = svc.metrics().clone();

    svc.submit(&q1).unwrap();
    svc.submit(&q2).unwrap();
    assert_eq!(m.get("svc.cache.result.evictions"), 0);
    svc.submit(&q3).unwrap(); // capacity 2: q1 is the LRU victim
    assert_eq!(m.get("svc.cache.result.evictions"), 1);

    assert!(svc.submit(&q3).unwrap().from_cache, "q3 is resident");
    assert!(svc.submit(&q2).unwrap().from_cache, "q2 is resident");
    let r1 = svc.submit(&q1).unwrap();
    assert!(!r1.from_cache, "evicted entry must re-execute");
    // re-inserting q1 evicts the then-LRU entry (q3)
    assert_eq!(m.get("svc.cache.result.evictions"), 2);
    assert!(!svc.submit(&q3).unwrap().from_cache);
    // every re-execution still returns the exact answer
    assert_eq!(*r1.result, run_reference(&w.t, &w.l, &v1).unwrap());
}

#[test]
fn bloom_cache_shared_across_distinct_queries() {
    let (svc, w) = service(ServiceConfig::default());
    let alg = JoinAlgorithm::Repartition { bloom: true };
    let th = w.thresholds.l_cor;
    let (v1, v2) = (variant(&w, th), variant(&w, th - 1));
    let q1 = QueryRequest::with_algorithm(v1.clone(), alg);
    let q2 = QueryRequest::with_algorithm(v2.clone(), alg);

    let r1 = svc.submit(&q1).unwrap();
    let m = svc.metrics();
    assert_eq!(m.get("svc.cache.bloom.misses"), 1);
    assert_eq!(m.get("svc.cache.bloom.insertions"), 1);

    let r2 = svc.submit(&q2).unwrap();
    assert!(!r2.from_cache, "different query: not a result-cache hit");
    assert_eq!(
        m.get("svc.cache.bloom.hits"),
        1,
        "same database side: BF_DB must be reused"
    );
    assert_eq!(*r1.result, run_reference(&w.t, &w.l, &v1).unwrap());
    assert_eq!(*r2.result, run_reference(&w.t, &w.l, &v2).unwrap());
}

#[test]
fn table_rewrite_invalidates_both_caches_and_forces_reexecution() {
    let (svc, w) = service(ServiceConfig::default());
    let alg = JoinAlgorithm::Repartition { bloom: true };
    let req = QueryRequest::with_algorithm(w.query(), alg);
    let expected = run_reference(&w.t, &w.l, &w.query()).unwrap();

    svc.submit(&req).unwrap();
    assert!(svc.submit(&req).unwrap().from_cache);

    // Rewrite T (same data): every cached artifact over T is stale.
    svc.load_db_table("T", hybrid_datagen::tables::t_cols::UNIQ_KEY, w.t.clone())
        .unwrap();
    let m = svc.metrics();
    assert!(m.get("svc.cache.result.invalidations") >= 1);
    assert!(m.get("svc.cache.bloom.invalidations") >= 1);

    let after = svc.submit(&req).unwrap();
    assert!(!after.from_cache, "invalidation must force re-execution");
    assert_eq!(m.get("svc.cache.result.misses"), 2);
    assert_eq!(
        m.get("svc.cache.bloom.misses"),
        2,
        "BF_DB rebuilt after rewrite"
    );
    assert_eq!(*after.result, expected, "same data: same answer");
}

#[test]
fn hdfs_rewrite_invalidates_results_but_keeps_bloom() {
    let (svc, w) = service(ServiceConfig::default());
    let alg = JoinAlgorithm::Repartition { bloom: true };
    let req = QueryRequest::with_algorithm(w.query(), alg);

    svc.submit(&req).unwrap();
    svc.load_hdfs_table(
        "L",
        FileFormat::Columnar,
        hybrid_datagen::tables::l_schema(),
        &w.l,
    )
    .unwrap();
    let m = svc.metrics();
    assert!(m.get("svc.cache.result.invalidations") >= 1);
    assert_eq!(
        m.get("svc.cache.bloom.invalidations"),
        0,
        "BF_DB only depends on the database table"
    );
    let after = svc.submit(&req).unwrap();
    assert!(!after.from_cache);
    assert_eq!(
        m.get("svc.cache.bloom.hits"),
        1,
        "filter survives an L rewrite"
    );
}

#[test]
fn stale_result_insert_is_dropped_after_rewrite() {
    use hybrid_common::cache::TableGenerations;
    use hybrid_common::metrics::Metrics;
    use hybrid_service::{CachedResult, ResultCache};
    use std::sync::Arc;

    let m = Metrics::new();
    let gens = TableGenerations::new();
    let cache = ResultCache::new(4, m.clone(), gens.clone());
    let w = WorkloadSpec::tiny().generate().unwrap();
    let q = w.query();
    let entry = || CachedResult {
        result: Arc::new(w.t.clone()),
        algorithm: JoinAlgorithm::Repartition { bloom: true },
    };

    // A query snapshots the generations, then T is rewritten while it
    // executes: its insert must be dropped, not land post-invalidation.
    let snap = cache.generations(&q);
    gens.bump(&q.db_table);
    assert!(!cache.insert(&q, entry(), snap));
    assert!(cache.get(&q).is_none());
    assert_eq!(m.get("svc.cache.result.stale_inserts"), 1);

    // A fresh snapshot inserts fine; a rewrite of the *HDFS* side also
    // stales in-flight snapshots.
    let snap = cache.generations(&q);
    assert!(cache.insert(&q, entry(), snap));
    gens.bump(&q.hdfs_table);
    assert!(!cache.insert(&q, entry(), snap));
    assert_eq!(m.get("svc.cache.result.stale_inserts"), 2);
}

/// End-to-end TOCTOU regression: rewrites race in-flight executions, and
/// the *last* rewrite deliberately lands while queries are still running.
/// A straggler that read pre-rewrite data (sessions pin the old partitions
/// via `Arc`) finishes after that rewrite's invalidation; without the
/// generation check its insert would poison the result/Bloom caches and
/// every later identical query would be served the pre-rewrite answer.
#[test]
fn concurrent_rewrite_never_poisons_the_caches() {
    use std::sync::Arc;

    let (svc, w) = service(ServiceConfig::default());
    let w2 = {
        let mut spec = WorkloadSpec::tiny();
        spec.seed ^= 0xDEAD_BEEF;
        spec.generate().unwrap()
    };
    let svc = Arc::new(svc);
    let req = QueryRequest::with_algorithm(w.query(), JoinAlgorithm::Repartition { bloom: true });
    let dist = hybrid_datagen::tables::t_cols::UNIQ_KEY;

    let submitter = {
        let svc = Arc::clone(&svc);
        let req = req.clone();
        std::thread::spawn(move || {
            // Mid-rewrite executions may fail or see a torn table; only
            // the post-quiesce answers below are asserted.
            for _ in 0..10 {
                let _ = svc.submit(&req);
            }
        })
    };
    for i in 0..6 {
        let t = if i % 2 == 0 { &w.t } else { &w2.t };
        svc.load_db_table("T", dist, t.clone()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    // The final rewrite races the submitter's in-flight queries.
    svc.load_db_table("T", dist, w2.t.clone()).unwrap();
    submitter.join().unwrap();

    // Whatever straggler inserts happened after that last rewrite carried
    // a stale generation and were dropped, so the service must now serve
    // the post-rewrite answer — first from execution, then from cache.
    let expected = run_reference(&w2.t, &w.l, &w.query()).unwrap();
    let first = svc.submit(&req).unwrap();
    assert_eq!(*first.result, expected, "post-rewrite execution answer");
    let second = svc.submit(&req).unwrap();
    assert_eq!(
        *second.result, expected,
        "a cached answer must be post-rewrite"
    );
}

#[test]
fn disabled_caches_always_execute() {
    let cfg = ServiceConfig {
        result_cache_capacity: 0,
        bloom_cache_capacity: 0,
        ..ServiceConfig::default()
    };
    let (svc, w) = service(cfg);
    let req = QueryRequest::new(w.query());
    assert!(!svc.submit(&req).unwrap().from_cache);
    assert!(!svc.submit(&req).unwrap().from_cache);
    let m = svc.metrics();
    assert_eq!(m.get("svc.cache.result.hits"), 0);
    assert_eq!(m.get("svc.cache.result.insertions"), 0);
}
