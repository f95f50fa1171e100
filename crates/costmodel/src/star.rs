//! Unit tests of [`hybrid_core::costmodel::star`].

use hybrid_core::advisor::{CascadeStep, StarEstimates};
use hybrid_core::costmodel::{cascade_shuffle_bytes, hypercube_shuffle_bytes};

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_core::advisor::DimEstimates;

    fn est(fact: u64, dims: &[u64], n: usize) -> StarEstimates {
        StarEstimates {
            fact_prime_bytes: fact,
            fact_prime_rows: fact / 40,
            dims: dims
                .iter()
                .map(|&b| DimEstimates {
                    dim_prime_bytes: b,
                    dim_prime_rows: b / 12,
                    pass_fraction: 1.0,
                })
                .collect(),
            num_jen_workers: n,
        }
    }

    #[test]
    fn broadcast_cascade_never_moves_the_fact() {
        let e = est(1_000_000, &[1_000, 2_000], 8);
        let steps = [
            CascadeStep {
                dim: 0,
                broadcast: true,
            },
            CascadeStep {
                dim: 1,
                broadcast: true,
            },
        ];
        let v = cascade_shuffle_bytes(&e, &steps);
        assert_eq!(v.fact_bytes, 0);
        assert_eq!(v.dim_bytes, (1_000 + 2_000) * 8);
    }

    #[test]
    fn repartition_cascade_reships_the_decaying_intermediate() {
        let mut e = est(1_000_000, &[10_000, 10_000], 4);
        e.dims[0].pass_fraction = 0.5;
        let steps = [
            CascadeStep {
                dim: 0,
                broadcast: false,
            },
            CascadeStep {
                dim: 1,
                broadcast: false,
            },
        ];
        let v = cascade_shuffle_bytes(&e, &steps);
        // step 1: 3/4 of 1 MB; step 2: 3/4 of the halved intermediate
        assert_eq!(v.fact_bytes, 750_000 + 375_000);
        assert_eq!(v.dim_bytes, 20_000);
    }

    #[test]
    fn hypercube_replicates_each_dimension_along_its_axis() {
        let e = est(2_000_000, &[5_000, 5_000, 5_000], 8);
        let v = hypercube_shuffle_bytes(&e, &[2, 2, 2]);
        // 7/8 of the fact crosses; each dim lands on 8/2 = 4 workers
        assert_eq!(v.fact_bytes, 1_750_000);
        assert_eq!(v.dim_bytes, 3 * 5_000 * 4);
        assert_eq!(v.total_bytes(), 1_750_000 + 60_000);
    }

    #[test]
    fn degenerate_single_cell_grid_moves_no_fact() {
        let e = est(1_000_000, &[1_000], 4);
        let v = hypercube_shuffle_bytes(&e, &[1]);
        assert_eq!(v.fact_bytes, 0);
        assert_eq!(v.dim_bytes, 1_000);
    }
}
