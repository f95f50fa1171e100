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

use super::{meter_shuffle, ordered_batches, StarInputs, StarQuery, AXIS_SEED};
use crate::algorithms::{
    add_final_aggregation_steps, db_route_to_jen, db_scan, db_tasks, jen_tasks, run_to_result,
    Driver, TaskSet,
};
use crate::system::HybridSystem;
use hybrid_common::batch::{Batch, SelectionVector};
use hybrid_common::error::Result;
use hybrid_common::hash::hash_key_seeded;
use hybrid_common::trace::Stage;
use hybrid_net::StreamTag;
use std::collections::{HashMap, HashSet};

/// The grid geometry: share vector, mixed-radix strides, and cell count.
struct Grid {
    shares: Vec<usize>,
    strides: Vec<usize>,
    cells: usize,
    num_jen: usize,
}

impl Grid {
    fn new(shares: &[usize], num_jen: usize) -> Grid {
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
            num_jen,
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

    /// The fact route: each row to the one cell its foreign keys (at
    /// `fks`, one per axis) name. A key hot on an axis round-robins that
    /// coordinate through a per-(axis, key) cursor, threaded across the
    /// sender's blocks in scan order.
    fn fact_route<'a>(
        &'a self,
        fks: Vec<usize>,
        hot: &'a [HashSet<i64>],
    ) -> impl FnMut(&Batch) -> Result<Vec<SelectionVector>> + 'a {
        let mut cursors: Vec<HashMap<i64, usize>> = vec![HashMap::new(); fks.len()];
        move |block| {
            let mut cells = vec![0usize; block.num_rows()];
            for (axis, &fk) in fks.iter().enumerate() {
                let keys = block.column(fk)?.keys_i64()?;
                for (cell, &key) in cells.iter_mut().zip(keys.iter()) {
                    let c = if hot[axis].contains(&key) {
                        let cur = cursors[axis].entry(key).or_insert(0);
                        let c = *cur;
                        *cur = (*cur + 1) % self.shares[axis];
                        c
                    } else {
                        self.axis_coord(key, axis)
                    };
                    *cell += c * self.strides[axis];
                }
            }
            let mut sel = vec![Vec::new(); self.num_jen];
            for (row, &cell) in cells.iter().enumerate() {
                sel[cell].push(row as u32);
            }
            Ok(sel.into_iter().map(SelectionVector::from_indexes).collect())
        }
    }

    /// Dimension `axis`'s route: each row (keyed at `key`) to every cell
    /// sharing its hashed coordinate; a hot key's fact rows round-robin
    /// the whole axis, so its dimension rows reach every cell.
    fn dim_route<'a>(
        &'a self,
        axis: usize,
        key: usize,
        hot: &'a HashSet<i64>,
    ) -> impl FnOnce(&Batch) -> Result<Vec<SelectionVector>> + 'a {
        move |part| {
            let slices = self.axis_slices(axis);
            let every: Vec<usize> = (0..self.cells).collect();
            let mut sel = vec![Vec::new(); self.num_jen];
            for (row, &k) in part.column(key)?.keys_i64()?.iter().enumerate() {
                let cells = if hot.contains(&k) {
                    &every
                } else {
                    &slices[self.axis_coord(k, axis)]
                };
                for &w in cells {
                    sel[w].push(row as u32);
                }
            }
            Ok(sel.into_iter().map(SelectionVector::from_indexes).collect())
        }
    }
}

pub(crate) fn execute(sys: &mut HybridSystem, star: &StarQuery, shares: &[usize]) -> Result<Batch> {
    let sys = &*sys;
    let driver = &Driver::from_config(&sys.config);
    let num_jen = sys.config.jen_workers;
    let num_db = sys.config.db_workers;
    let k = star.dims.len();
    let grid = &Grid::new(shares, num_jen);
    debug_assert!(grid.cells <= num_jen, "share vector exceeds the cluster");
    let inputs = &StarInputs::new(sys, star)?;
    let axes: &Vec<usize> = &(0..k).collect();

    let mut db = TaskSet::new("db", db_tasks(sys, driver)?);
    let mut jen = TaskSet::new("jen", jen_tasks(sys, driver)?);

    // Step 1: every JEN worker scans its fact share and routes each row's
    // live columns to the one cell its k axis hashes name. Every worker
    // sends EOS to every peer — including cell-less workers past the grid —
    // so the receive barrier is uniform.
    jen.step(10, move |w, st| {
        st.star_run = inputs.scan_fact(sys, driver, w)?;
        inputs.exchange(sys, st, w, axes, StreamTag::HdfsShuffle, |layout| {
            let fks = axes.iter().map(|&d| layout.fk(star, d)).collect();
            grid.fact_route(fks, &inputs.hot)
        })
    });

    // Step 2: DB workers filter each dimension and replicate every row
    // along its axis. Each dimension flows on its own stream tag; EOS goes
    // to all JEN workers, cell-less ones included.
    db.step(12, move |w, st| {
        for (axis, dq) in star.dims.iter().enumerate() {
            let part = db_scan(sys, driver, w, &dq.table, &dq.pred, &dq.proj)?;
            let route = grid.dim_route(axis, dq.key, &inputs.hot[axis]);
            let stream = StreamTag::dim_data(axis);
            let (rows, bytes) = db_route_to_jen(sys, st, w, &part, stream, route)?;
            meter_shuffle(sys, rows, bytes);
        }
        Ok(())
    });

    // Step 3: each cell receives its fact slice and its k dimension
    // slices, builds k hash tables in identity order, and probes them all
    // at once into the sink — the joined layout is dim_{k-1}' ++ … ++
    // dim_0' ++ fact', the same prefix stack a cascade in identity order
    // produces.
    jen.step(20, move |w, st| {
        let label = sys.jen_workers[w].span_label();
        let recv_span = sys.tracer.start(label.clone(), Stage::ShuffleRecv);
        let got = st
            .mailbox
            .take_stream(StreamTag::HdfsShuffle, num_jen - 1)?;
        let mut run = std::mem::take(&mut st.star_run);
        run.blocks.extend(ordered_batches(got));
        let dims: Vec<Vec<Batch>> = (0..k)
            .map(|axis| {
                Ok(ordered_batches(
                    st.mailbox.take_stream(StreamTag::dim_data(axis), num_db)?,
                ))
            })
            .collect::<Result<_>>()?;
        let dim_rows: u64 = dims.iter().flatten().map(|b| b.num_rows() as u64).sum();
        recv_span.done(0, run.rows() + dim_rows);
        sys.metrics
            .add(&format!("net.shuffle.rows.jen-{w}"), dim_rows);
        let _permit = driver.compute_permit();
        for (axis, batches) in dims.into_iter().enumerate() {
            run.build_next(sys, &label, inputs, axis, batches)?;
        }
        st.partial = Some(run.finish(sys, label, star)?);
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
        let g = Grid::new(&[2, 2, 2], 8);
        assert_eq!(g.cells, 8);
        for w in 0..8 {
            let recon: usize = (0..3).map(|a| g.coord(w, a) * g.strides[a]).sum();
            assert_eq!(recon, w);
        }
    }

    #[test]
    fn axis_workers_partition_the_grid() {
        let g = Grid::new(&[3, 2], 6);
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
        let g = Grid::new(&[2, 3], 6);
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
