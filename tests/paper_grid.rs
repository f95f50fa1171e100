//! The full §5 selectivity grid: every (σT, σL, ST′, SL′) combination the
//! paper evaluates must be (a) realizable by the generator and (b) answered
//! identically by the zigzag join and the single-node reference. This is
//! the broad-coverage safety net behind the figure harnesses.

use hybrid_bench::ExpSystem;
use hybrid_core::advisor::advise;
use hybrid_core::reference::run_reference;
use hybrid_core::{run, HybridSystem, JoinAlgorithm, SystemConfig};
use hybrid_datagen::WorkloadSpec;
use hybrid_storage::FileFormat;

/// Every selectivity combination appearing in Figures 8–15 / Table 1.
fn paper_grid() -> Vec<(f64, f64, f64, f64)> {
    let mut grid = vec![
        // Fig 8(a) and 8(b)
        (0.1, 0.1, 0.05, 0.1),
        (0.1, 0.2, 0.1, 0.1),
        (0.1, 0.4, 0.2, 0.1),
        (0.2, 0.1, 0.05, 0.2),
        (0.2, 0.2, 0.1, 0.2),
        (0.2, 0.4, 0.2, 0.2),
        // Fig 9(a)/(b)
        (0.1, 0.4, 0.5, 0.8),
        (0.1, 0.4, 0.5, 0.4),
        (0.1, 0.4, 0.5, 0.1),
        (0.1, 0.4, 0.35, 0.4),
        (0.1, 0.4, 0.2, 0.4),
    ];
    // Figs 10-15 default-S grids
    for sigma_t in [0.001, 0.01, 0.05, 0.1, 0.2] {
        for sigma_l in [0.001, 0.01, 0.2] {
            grid.push((sigma_t, sigma_l, 0.2, 0.1));
        }
    }
    grid
}

#[test]
fn zigzag_matches_reference_on_every_paper_config() {
    for (sigma_t, sigma_l, st, sl) in paper_grid() {
        let spec = WorkloadSpec {
            sigma_t,
            sigma_l,
            st,
            sl,
            t_rows: 4_000,
            l_rows: 16_000,
            num_keys: 200,
            ..WorkloadSpec::tiny()
        };
        let workload = spec
            .generate()
            .unwrap_or_else(|e| panic!("infeasible config ({sigma_t},{sigma_l},{st},{sl}): {e}"));
        let query = workload.query();
        let expected = run_reference(&workload.t, &workload.l, &query).unwrap();

        let mut cfg = SystemConfig::paper_shape(3, 4);
        cfg.rows_per_block = 1_000;
        let mut sys = HybridSystem::new(cfg).unwrap();
        workload.load_into(&mut sys, FileFormat::Columnar).unwrap();
        let out = run(&mut sys, &query, JoinAlgorithm::Zigzag).unwrap();
        assert_eq!(
            out.result, expected,
            "zigzag diverged at (sigma_T={sigma_t}, sigma_L={sigma_l}, ST'={st}, SL'={sl})"
        );
    }
}

#[test]
fn bloom_variants_never_lose_rows_on_the_grid() {
    // Bloom filters must be one-sided: for a sample of grid points, the
    // BF'd variants produce the same aggregate as the plain repartition.
    for (sigma_t, sigma_l, st, sl) in [
        (0.1, 0.4, 0.2, 0.1),
        (0.2, 0.2, 0.1, 0.2),
        (0.1, 0.4, 0.5, 0.8),
    ] {
        let spec = WorkloadSpec {
            sigma_t,
            sigma_l,
            st,
            sl,
            t_rows: 4_000,
            l_rows: 16_000,
            num_keys: 200,
            ..WorkloadSpec::tiny()
        };
        let workload = spec.generate().unwrap();
        let query = workload.query();
        let mut cfg = SystemConfig::paper_shape(3, 4);
        cfg.rows_per_block = 1_000;
        let mut sys = HybridSystem::new(cfg).unwrap();
        workload.load_into(&mut sys, FileFormat::Columnar).unwrap();
        let plain = run(
            &mut sys,
            &query,
            JoinAlgorithm::Repartition { bloom: false },
        )
        .unwrap();
        let bf = run(&mut sys, &query, JoinAlgorithm::Repartition { bloom: true }).unwrap();
        assert_eq!(plain.result, bf.result);
    }
}

/// §5.5's advisor grid (σT, σL at ST' = 0.2, SL' = 0.1) on the paper's
/// 30 + 30 topology at `tiny` scale: the plan `advise` picks from the
/// workload's ground-truth estimates, priced by the cost model on its own
/// *measured* run, is within 1.25× of the cheapest measured plan. The
/// advisor predicts the volumes it prices, so this bounds the prediction
/// error where it matters: in which plan comes first.
#[test]
fn advised_plan_is_within_25pct_of_the_measured_best_on_the_s5_5_grid() {
    let grid = [
        (0.001, 0.2),
        (0.01, 0.2),
        (0.05, 0.001),
        (0.05, 0.01),
        (0.05, 0.2),
        (0.1, 0.001),
        (0.1, 0.1),
        (0.1, 0.4),
    ];
    for (sigma_t, sigma_l) in grid {
        let spec = WorkloadSpec {
            sigma_t,
            sigma_l,
            st: 0.2,
            sl: 0.1,
            ..WorkloadSpec::tiny()
        };
        let mut exp = ExpSystem::build(spec, FileFormat::Columnar).unwrap();
        let advised = advise(&exp.workload.estimates(&exp.system).unwrap());
        let mut best = f64::INFINITY;
        let mut advised_s = f64::NAN;
        for alg in JoinAlgorithm::paper_variants() {
            let seconds = exp.run(alg).unwrap().cost.total_s;
            best = best.min(seconds);
            if alg == advised {
                advised_s = seconds;
            }
        }
        assert!(
            advised_s <= best * 1.25,
            "sigma_T={sigma_t} sigma_L={sigma_l}: advised {advised} at {advised_s:.0}s \
             against the best {best:.0}s"
        );
    }
}
