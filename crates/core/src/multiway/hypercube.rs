//! One-shot hypercube (Shares) star join.
//!
//! The cost-chosen share vector `s` arranges the first `cells = Π s_i` JEN
//! workers as a k-dimensional grid; worker `w < cells` owns the cell with
//! mixed-radix coordinates `c_i(w) = (w / stride_i) mod s_i`, `stride_i =
//! Π_{j<i} s_j`. Every fact tuple routes to exactly **one** cell — one
//! independent seeded hash per axis picks each coordinate — while every
//! dimension-`i` tuple replicates to the `cells / s_i` cells sharing its
//! hashed coordinate on axis `i`. Each cell then holds everything its local
//! k-way join needs, so the whole star completes in a single shuffle pass:
//! the fact table (the big side) moves once, no matter how many dimensions
//! there are — the Shares trade-off of fact movement against dimension
//! replication that [`crate::advisor::advise_multiway`] prices.
//!
//! Workers `w >= cells` own no cell: they still participate in every
//! send/receive barrier (EOS to and from all peers) so the step structure
//! is uniform, but carry no rows.
//!
//! Skew: a fact key hot on axis `i` would flood the one coordinate it
//! hashes to. Hot fact rows instead *round-robin* their axis-`i` coordinate
//! (a per-(axis, key) cursor over `0..s_i`), and dimension-`i` rows with a
//! hot key replicate along the **entire** axis — every (fact, dim) pair
//! still meets exactly once, in the unique cell the fact row landed in.

use super::{
    detect_hot_fact_keys, meter_shuffle, ordered_batches, physical_exprs, StarQuery, StarRun,
    AXIS_SEED,
};
use crate::algorithms::{
    add_final_aggregation_steps, db_scan, db_schema, db_tasks, jen_tasks, local_joiner,
    partial_aggregate, run_to_result, Driver, TaskSet,
};
use crate::system::HybridSystem;
use hybrid_common::batch::{Batch, BatchBuilder};
use hybrid_common::error::Result;
use hybrid_common::hash::hash_key_seeded;
use hybrid_common::ops::JoinAggregator;
use hybrid_common::schema::Schema;
use hybrid_common::trace::Stage;
use hybrid_jen::pipeline::scan_blocks_batched;
use hybrid_jen::{LocalJoiner, ScanSpec};
use hybrid_net::StreamTag;
use std::collections::HashMap;

/// The grid geometry: share vector, mixed-radix strides, and cell count.
struct Grid {
    shares: Vec<usize>,
    strides: Vec<usize>,
    cells: usize,
}

impl Grid {
    fn new(shares: &[usize]) -> Grid {
        let mut strides = Vec::with_capacity(shares.len());
        let mut acc = 1usize;
        for &s in shares {
            strides.push(acc);
            acc *= s;
        }
        Grid {
            shares: shares.to_vec(),
            strides,
            cells: acc,
        }
    }

    /// Worker `w`'s coordinate on `axis` (callers guarantee `w < cells`).
    fn coord(&self, w: usize, axis: usize) -> usize {
        (w / self.strides[axis]) % self.shares[axis]
    }

    /// The cold route of `key` on `axis`.
    fn axis_coord(&self, key: i64, axis: usize) -> usize {
        (hash_key_seeded(key, AXIS_SEED ^ axis as u64) % self.shares[axis] as u64) as usize
    }

    /// Entry `c`: the workers whose axis-`axis` coordinate is `c`, in
    /// ascending order — where a dimension-`axis` tuple hashing to `c` must
    /// replicate.
    fn axis_slices(&self, axis: usize) -> Vec<Vec<usize>> {
        let mut slices = vec![Vec::new(); self.shares[axis]];
        for w in 0..self.cells {
            slices[self.coord(w, axis)].push(w);
        }
        slices
    }
}

pub(crate) fn execute(sys: &mut HybridSystem, star: &StarQuery, shares: &[usize]) -> Result<Batch> {
    let sys = &*sys;
    let driver = &Driver::from_config(&sys.config);
    let num_jen = sys.config.jen_workers;
    let num_db = sys.config.db_workers;
    let k = star.dims.len();
    let grid = &Grid::new(shares);
    debug_assert!(grid.cells <= num_jen, "share vector exceeds the cluster");

    let plan = &sys.coordinator.plan_scan(&star.fact_table)?;
    let scan_spec = &ScanSpec {
        pred: star.fact_pred.clone(),
        proj: star.fact_proj.clone(),
        bloom_key: None,
    };
    let fact_schema = &plan.table.schema.project(&star.fact_proj)?;
    let dim_schemas: &Vec<Schema> = &star
        .dims
        .iter()
        .map(|d| db_schema(sys, &d.table, &d.proj))
        .collect::<Result<_>>()?;
    // cells probe the dimensions in identity order
    let (post_predicate, group_expr, aggs) = &physical_exprs(star, &(0..k).collect::<Vec<_>>());

    let hot = &detect_hot_fact_keys(sys, star)?;

    let mut db = TaskSet::new("db", db_tasks(sys, driver)?);
    let mut jen = TaskSet::new("jen", jen_tasks(sys, driver)?);

    // Step 1: every JEN worker scans its fact share and routes each row to
    // the one cell its k axis hashes name. Every worker sends EOS to every
    // peer — including cell-less workers past the grid — so the receive
    // barrier is uniform.
    jen.step(10, move |w, st| {
        let blocks = {
            let _permit = driver.compute_permit();
            scan_blocks_batched(
                &sys.jen_workers[w],
                &plan.table,
                &plan.blocks[w],
                scan_spec,
                None,
            )?
            .0
        };
        let span = sys
            .tracer
            .start(sys.jen_workers[w].span_label(), Stage::ShuffleSend);
        // per-(axis, hot key) round-robin cursors — deterministic because
        // blocks arrive in scan order and rows are routed row-at-a-time
        let mut cursors: Vec<HashMap<i64, usize>> = vec![HashMap::new(); k];
        let mut builders: Vec<BatchBuilder> = (0..num_jen)
            .map(|_| BatchBuilder::new(fact_schema.clone()))
            .collect();
        for block in blocks {
            if block.is_empty() {
                continue;
            }
            let keys: Vec<_> = (0..k)
                .map(|axis| {
                    block
                        .column(star.fact_keys[axis])
                        .and_then(|c| c.keys_i64())
                })
                .collect::<Result<_>>()?;
            let mut dest_rows: Vec<Vec<u32>> = vec![Vec::new(); num_jen];
            let mut row_cells = vec![0usize; block.num_rows()];
            for axis in 0..k {
                for (cell, &key) in row_cells.iter_mut().zip(keys[axis].iter()) {
                    let c = if hot[axis].contains(&key) {
                        let cur = cursors[axis].entry(key).or_insert(0);
                        let c = *cur;
                        *cur = (*cur + 1) % grid.shares[axis];
                        c
                    } else {
                        grid.axis_coord(key, axis)
                    };
                    *cell += c * grid.strides[axis];
                }
            }
            for (row, &cell) in row_cells.iter().enumerate() {
                dest_rows[cell].push(row as u32);
            }
            for (dst, rows) in dest_rows.iter().enumerate() {
                if !rows.is_empty() {
                    builders[dst].append_rows(&block, rows)?;
                }
            }
        }
        let (mut rows, mut bytes) = (0u64, 0u64);
        for (dst, builder) in builders.into_iter().enumerate() {
            let piece = builder.finish();
            if dst == w {
                st.blocks = Some(vec![piece]); // own cell: no network traffic
            } else {
                rows += piece.num_rows() as u64;
                bytes += piece.serialized_bytes() as u64;
                let to = sys.fabric.jen_endpoints()[dst];
                st.mailbox.send_data(to, StreamTag::HdfsShuffle, &piece)?;
                st.mailbox.send_eos(to, StreamTag::HdfsShuffle)?;
            }
        }
        meter_shuffle(sys, rows, bytes);
        span.done(bytes, rows);
        Ok(())
    });

    // Step 2: DB workers filter each dimension and replicate every row
    // along its axis: to all grid cells sharing the row's hashed
    // coordinate (hot keys: the whole axis). Each dimension flows on its
    // own stream tag; EOS goes to all JEN workers, cell-less ones included.
    db.step(12, move |w, st| {
        for (axis, dq) in star.dims.iter().enumerate() {
            let part = db_scan(sys, driver, w, &dq.table, &dq.pred, &dq.proj)?;
            let slices = grid.axis_slices(axis);
            let span = sys.tracer.start(format!("db-{w}"), Stage::ShuffleSend);
            let mut dest_rows: Vec<Vec<u32>> = vec![Vec::new(); num_jen];
            if !part.is_empty() {
                let keys = part.column(dq.key)?.keys_i64()?;
                for (row, &key) in keys.iter().enumerate() {
                    if hot[axis].contains(&key) {
                        // hot key: the matching fact rows round-robin over
                        // the whole axis, so the dimension row must reach
                        // every coordinate of it
                        for cell_rows in &mut dest_rows[..grid.cells] {
                            cell_rows.push(row as u32);
                        }
                    } else {
                        for &dst in &slices[grid.axis_coord(key, axis)] {
                            dest_rows[dst].push(row as u32);
                        }
                    }
                }
            }
            let (mut rows, mut bytes) = (0u64, 0u64);
            for (dst, sel) in dest_rows.iter().enumerate() {
                let piece = part.take(sel);
                rows += piece.num_rows() as u64;
                bytes += piece.serialized_bytes() as u64;
                let to = sys.fabric.jen_endpoints()[dst];
                st.mailbox
                    .send_data(to, StreamTag::dim_data(axis), &piece)?;
                st.mailbox.send_eos(to, StreamTag::dim_data(axis))?;
            }
            meter_shuffle(sys, rows, bytes);
            span.done(bytes, rows);
        }
        Ok(())
    });

    // Step 3: each cell receives its fact slice and its k dimension
    // slices, builds k hash tables, and probes them all at once into the
    // sink, in identity order — the joined layout is dim_{k-1}' ++ … ++
    // dim_0' ++ fact', the same prefix stack a cascade in identity order
    // produces. A spilling table ends the run of in-memory tables before
    // it: their join is materialised, and the spilling table probes it on
    // its own.
    jen.step(20, move |w, st| {
        let label = sys.jen_workers[w].span_label();
        let recv_span = sys.tracer.start(label.clone(), Stage::ShuffleRecv);
        let mut probes = st.blocks.take().unwrap_or_default();
        probes.extend(ordered_batches(
            st.mailbox
                .take_stream(StreamTag::HdfsShuffle, num_jen - 1)?,
        ));
        let dims: Vec<Vec<Batch>> = (0..k)
            .map(|axis| {
                Ok(ordered_batches(
                    st.mailbox.take_stream(StreamTag::dim_data(axis), num_db)?,
                ))
            })
            .collect::<Result<_>>()?;
        let fact_rows: u64 = probes.iter().map(|b| b.num_rows() as u64).sum();
        let dim_rows: u64 = dims.iter().flatten().map(|b| b.num_rows() as u64).sum();
        recv_span.done(0, fact_rows + dim_rows);
        sys.metrics
            .add(&format!("net.shuffle.rows.jen-{w}"), dim_rows);
        let _permit = driver.compute_permit();
        let mut sink = JoinAggregator::new(post_predicate.as_ref(), group_expr, aggs);
        let mut run = StarRun::default();
        // `probes` has the layout `cur_schema`, fact columns from `fact_off`
        let mut cur_schema = fact_schema.clone();
        let mut fact_off = 0usize;
        for (axis, dim_batches) in dims.into_iter().enumerate() {
            let dq = &star.dims[axis];
            let build_span = sys.tracer.start(label.clone(), Stage::HashBuild);
            let built: u64 = dim_batches.iter().map(|b| b.num_rows() as u64).sum();
            let mut joiner = local_joiner(sys, dim_schemas[axis].clone(), dq.key)?;
            for b in dim_batches {
                joiner.build(b)?;
            }
            build_span.done(0, built);
            if let LocalJoiner::InMemory(j) = joiner {
                run.push(j, fact_off + star.fact_keys[axis]);
                continue;
            }
            let probe_rows: u64 = probes.iter().map(|b| b.num_rows() as u64).sum();
            let probe_span = sys.tracer.start(label.clone(), Stage::Probe);
            if !run.is_empty() {
                fact_off += run.width();
                let joined = run.materialise(&cur_schema, &probes)?;
                cur_schema = joined.schema().clone();
                probes = vec![joined];
            }
            let key = fact_off + star.fact_keys[axis];
            let probes_in = std::mem::take(&mut probes);
            if axis + 1 == k {
                joiner.probe_into(probes_in, key, |j, p, key| sink.probe(j, p, key))?;
            } else {
                let joined = joiner.probe_all(&cur_schema, probes_in, key)?;
                cur_schema = joined.schema().clone();
                fact_off += dq.proj.len();
                probes = vec![joined];
            }
            probe_span.done(0, probe_rows);
        }
        // the last axis either joined the run or probed into the sink
        if !run.is_empty() {
            let probe_rows: u64 = probes.iter().map(|b| b.num_rows() as u64).sum();
            let probe_span = sys.tracer.start(label.clone(), Stage::Probe);
            run.fold(&mut sink, &probes)?;
            drop(probes);
            probe_span.done(0, probe_rows);
        }
        st.partial = Some(partial_aggregate(sys, label, sink, &[])?);
        Ok(())
    });

    add_final_aggregation_steps(sys, &star.aggs, &mut jen, &mut db, 30)?;

    run_to_result(driver, db, jen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn grid_coordinates_roundtrip() {
        let g = Grid::new(&[2, 2, 2]);
        assert_eq!(g.cells, 8);
        for w in 0..8 {
            let recon: usize = (0..3).map(|a| g.coord(w, a) * g.strides[a]).sum();
            assert_eq!(recon, w);
        }
    }

    #[test]
    fn axis_workers_partition_the_grid() {
        let g = Grid::new(&[3, 2]);
        for axis in 0..2 {
            let mut seen = HashSet::new();
            let slices = g.axis_slices(axis);
            assert_eq!(slices.len(), g.shares[axis]);
            for (c, ws) in slices.into_iter().enumerate() {
                assert_eq!(ws.len(), g.cells / g.shares[axis]);
                assert_eq!(
                    ws,
                    (0..g.cells)
                        .filter(|&w| g.coord(w, axis) == c)
                        .collect::<Vec<_>>(),
                    "slice {c} of axis {axis}: every worker on it, ascending"
                );
                seen.extend(ws);
            }
            assert_eq!(seen.len(), g.cells, "axis {axis} slices cover the grid");
        }
    }

    #[test]
    fn fact_route_meets_its_dimension_rows() {
        // the cell a (cold) fact row lands in is on the replication slice
        // of each of its keys
        let g = Grid::new(&[2, 3]);
        for key0 in 0..20i64 {
            for key1 in 20..40i64 {
                let cell =
                    g.axis_coord(key0, 0) * g.strides[0] + g.axis_coord(key1, 1) * g.strides[1];
                assert!(g.axis_slices(0)[g.axis_coord(key0, 0)].contains(&cell));
                assert!(g.axis_slices(1)[g.axis_coord(key1, 1)].contains(&cell));
            }
        }
    }
}
