//! Predicted shuffle volume of a multiway star-join plan.
//!
//! Mirrors the executors' `multiway.shuffle.bytes` metering semantics
//! exactly: only cross-network traffic counts. A DB-exported dimension
//! always crosses (broadcast ships one copy per JEN worker, a hash route
//! or axis replication ships each copy once), while an intra-JEN
//! re-shuffle of `n` evenly spread pieces keeps `1/n` local — the same
//! exclusion the engine applies to a worker's own partition. The
//! prediction is an expectation over uniform routing; `bench_baseline`
//! prints it next to the measured meters so drift is visible.

use crate::advisor::{CascadeStep, StarEstimates};

/// Expected bytes a plan moves across the network, split by source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarShuffleVolume {
    /// Fact-table (and fact-derived intermediate) bytes shuffled inside JEN.
    pub fact_bytes: u64,
    /// Dimension bytes exported from the database.
    pub dim_bytes: u64,
}

impl StarShuffleVolume {
    pub fn total_bytes(&self) -> u64 {
        self.fact_bytes + self.dim_bytes
    }
}

/// Expected shuffle volume of a left-deep cascade: per step, either the
/// dimension broadcasts (`dim · n`, the intermediate stays put) or the
/// dimension exports once and the intermediate re-shuffles with `(n-1)/n`
/// of it crossing the network. The intermediate decays by each step's
/// pass fraction.
pub fn cascade_shuffle_bytes(est: &StarEstimates, steps: &[CascadeStep]) -> StarShuffleVolume {
    let n = est.num_jen_workers.max(1) as u64;
    let mut cur = est.fact_prime_bytes as f64;
    let mut fact = 0.0;
    let mut dim = 0u64;
    for step in steps {
        let d = est.dims[step.dim].dim_prime_bytes;
        if step.broadcast {
            dim += d * n;
        } else {
            dim += d;
            fact += cur * (n - 1) as f64 / n as f64;
        }
        cur *= est.dims[step.dim].pass_fraction.clamp(0.0, 1.0);
    }
    StarShuffleVolume {
        fact_bytes: fact.round() as u64,
        dim_bytes: dim,
    }
}

/// Expected shuffle volume of a one-shot hypercube: the fact routes once
/// into the grid (`(cells-1)/cells` of it crossing, each row owns one
/// cell) and dimension `i` replicates to the `cells / sᵢ` workers along
/// its axis.
pub fn hypercube_shuffle_bytes(est: &StarEstimates, shares: &[usize]) -> StarShuffleVolume {
    let cells: u64 = shares.iter().map(|&s| s as u64).product::<u64>().max(1);
    let fact = est.fact_prime_bytes as f64 * (cells - 1) as f64 / cells as f64;
    let dim = est
        .dims
        .iter()
        .zip(shares)
        .map(|(d, &s)| d.dim_prime_bytes * (cells / s.max(1) as u64))
        .sum();
    StarShuffleVolume {
        fact_bytes: fact.round() as u64,
        dim_bytes: dim,
    }
}
