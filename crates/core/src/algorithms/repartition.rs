//! HDFS-side repartition join (±Bloom filter) — paper §3.3, Figure 3.
//!
//! The database and JEN agree on a hash function over the join key. DB
//! workers ship `T'` directly to the owning JEN worker (no second shuffle on
//! arrival); JEN workers scan `L`, optionally apply `BF_DB`, and shuffle the
//! survivors among themselves with the same hash. Each JEN worker then joins
//! its partition locally (hash table built on the HDFS side, as in §4.4),
//! aggregates partially, and the designated worker returns the final result.

use crate::algorithms::{
    add_final_aggregation_steps, db_route_to_jen, first_phase, jen_probe_aggregate, jen_recv_build,
    jen_shuffle_l, run_to_result, salted_replicate_route, Driver, Input,
};
use crate::query::HybridQuery;
use crate::skew::SaltRouter;
use crate::system::HybridSystem;
use hybrid_common::batch::Batch;
use hybrid_common::error::Result;
use hybrid_net::StreamTag;

pub(crate) fn execute(
    sys: &HybridSystem,
    query: &HybridQuery,
    use_bloom: bool,
    input: Input,
) -> Result<Batch> {
    let driver = &Driver::from_config(&sys.config);
    // Heavy-hitter detection (None unless `salt_buckets` is configured and
    // a hot key clears the threshold) — both sides must agree on it.
    let salt = SaltRouter::detect(sys, query)?;
    let salt = salt.as_ref();

    // Step 1: T' per DB worker (+ global BF_DB multicast from worker 0).
    let (l_src, mut db, mut jen) = first_phase(sys, query, driver, input, use_bloom.then_some(12))?;
    let (l_src, l_schema) = (&l_src, &l_src.schema);

    // Step 2: DB workers route T' with the agreed hash — data lands on the
    // JEN worker that will join it, no re-shuffle needed (§3.3).
    db.step(14, move |w, st| {
        let part = st.part.take().expect("T' scanned in step 10 or parked");
        let route = salted_replicate_route(sys.config.jen_workers, query.db_key, salt);
        db_route_to_jen(sys, st, w, &part, StreamTag::DbData, route)?;
        Ok(())
    });

    // Step 3: JEN workers scan (applying BF_DB if present) and shuffle the
    // filtered HDFS data with the same hash, one block batch at a time —
    // the share is never concatenated. The local partition stays put.
    jen.step(20, move |w, st| {
        let bloom = l_src.take_bloom(st)?;
        let l_blocks = {
            let _permit = driver.compute_permit();
            l_src.blocks(sys, query, st, w, bloom.as_ref())?
        };
        jen_shuffle_l(sys, query, st, w, &l_blocks, l_schema, salt)
    });

    // Step 4: each JEN worker builds its hash table from the shuffled HDFS
    // data (local + received), then probes with the database tuples. Two
    // driver steps, so a fault plan can kill a worker at the build/probe
    // boundary — after a grace join has spilled partitions to disk but
    // before it reads them back.
    jen.step(30, move |w, st| {
        jen_recv_build(sys, query, driver, st, w, l_schema)
    });
    jen.step(32, move |w, st| {
        jen_probe_aggregate(sys, query, driver, st, w)
    });

    // Steps 5–6: final aggregation + return to the database.
    add_final_aggregation_steps(sys, &query.aggs, &mut jen, &mut db, 40)?;

    run_to_result(driver, db, jen)
}
