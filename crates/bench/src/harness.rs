//! Shared experiment machinery.

use hybrid_common::error::Result;
use hybrid_common::trace::Timeline;
use hybrid_core::{
    run, run_adaptive, sample_stats, HybridSystem, JoinAlgorithm, JoinSummary, SystemConfig,
};
use hybrid_costmodel::{CostBreakdown, CostModel, OverlapProfile, ScaleFactors};
use hybrid_datagen::{Workload, WorkloadSpec};
use hybrid_storage::FileFormat;

/// The paper's topology: 30 DB2 workers and 30 JEN workers. Experiments run
/// with the *same worker counts* so fan-out-dependent volumes (broadcast
/// copies, the (n−1)/n shuffle fraction) extrapolate 1:1.
pub fn default_system_config() -> SystemConfig {
    let mut cfg = SystemConfig::paper_shape(30, 30);
    cfg.rows_per_block = 5_000;
    cfg
}

/// Base workload spec, selectable via `HYBRID_BENCH_SCALE`:
/// `default` = 160 k × 1.5 M rows (1/10 000 of the paper), `small` = 1/4 of
/// that, `tiny` = the test-sized workload.
pub fn spec_from_env() -> WorkloadSpec {
    match std::env::var("HYBRID_BENCH_SCALE").as_deref() {
        Ok("tiny") => WorkloadSpec::tiny(),
        Ok("small") => WorkloadSpec {
            t_rows: 40_000,
            l_rows: 375_000,
            num_keys: 400,
            ..WorkloadSpec::scaled_default()
        },
        _ => WorkloadSpec::scaled_default(),
    }
}

/// One measured + modeled algorithm run.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub algorithm: JoinAlgorithm,
    pub summary: JoinSummary,
    /// Assumed-overlap estimate (concurrent phases perfectly overlapped).
    pub cost: CostBreakdown,
    /// Measured-overlap estimate: same volumes, but concurrent phases
    /// combine with the overlap fractions actually observed in the run's
    /// [`Timeline`]. `cost_measured.total_s >= cost.total_s` always.
    pub cost_measured: CostBreakdown,
    /// Phase spans of the run plus per-link `net.*` byte totals —
    /// serialize with [`Timeline::to_json`] and render with the
    /// `timeline_report` binary.
    pub timeline: Timeline,
    pub result_rows: usize,
    /// Wall-clock time of the join itself (excludes workload generation
    /// and loading) — the number the `--threads` comparison is about.
    pub elapsed: std::time::Duration,
    /// Mid-query replans taken (`advisor.replans`). Always 0 unless the
    /// system was built with `replan_threshold` set.
    pub replans: u64,
}

/// A loaded system for one experiment configuration.
pub struct ExpSystem {
    pub system: HybridSystem,
    pub workload: Workload,
    pub format: FileFormat,
    model: CostModel,
}

impl ExpSystem {
    /// Generate the workload for `spec` and load it in `format`.
    pub fn build(spec: WorkloadSpec, format: FileFormat) -> Result<ExpSystem> {
        ExpSystem::build_with(spec, format, default_system_config())
    }

    /// Like [`ExpSystem::build`], with an explicit system configuration
    /// (worker threads, spill budget, …).
    pub fn build_with(
        spec: WorkloadSpec,
        format: FileFormat,
        config: SystemConfig,
    ) -> Result<ExpSystem> {
        let workload = spec.generate()?;
        let mut system = HybridSystem::new(config)?;
        workload.load_into(&mut system, format)?;
        Ok(ExpSystem {
            system,
            workload,
            format,
            model: CostModel::paper(),
        })
    }

    /// Scale factors mapping this workload to the paper's dataset.
    pub fn scale(&self) -> ScaleFactors {
        let s = &self.workload.spec;
        ScaleFactors::to_paper(s.t_rows, s.l_rows, s.num_keys)
    }

    /// Run one algorithm, returning measured volumes + modeled time.
    ///
    /// With `replan_threshold` set on the system config the run goes
    /// through the adaptive controller: a sampling pass derives the
    /// estimates that arm the observation point, and the run may switch
    /// strategies mid-query (counted in [`Measurement::replans`]). The
    /// sampling pass happens *before* the timed region so `elapsed`
    /// stays comparable to a plain run.
    pub fn run(&mut self, algorithm: JoinAlgorithm) -> Result<Measurement> {
        let query = self.workload.query();
        let adaptive = self
            .system
            .config
            .replan_threshold
            .map(|_| -> Result<_> {
                let stats = sample_stats(&self.system, &query, 8)?;
                Ok(stats.to_estimates(
                    &query,
                    self.system.config.jen_workers,
                    self.system.mem_budget_per_worker(),
                ))
            })
            .transpose()?;
        let started = std::time::Instant::now();
        let out = match &adaptive {
            Some(est) => run_adaptive(&mut self.system, &query, algorithm, est)?,
            None => run(&mut self.system, &query, algorithm)?,
        };
        let elapsed = started.elapsed();
        let replans = self.system.metrics.get("advisor.replans");
        let scale = self.scale();
        let cost = self.model.estimate(algorithm, &out.summary, &scale);
        let profile = OverlapProfile::from_timeline(&out.timeline);
        let cost_measured = self
            .model
            .estimate_measured(algorithm, &out.summary, &scale, &profile);
        Ok(Measurement {
            algorithm,
            summary: out.summary,
            cost,
            cost_measured,
            timeline: out.timeline,
            result_rows: out.result.num_rows(),
            elapsed,
            replans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_experiment_runs_and_models() {
        let mut exp = ExpSystem::build(WorkloadSpec::tiny(), FileFormat::Columnar).unwrap();
        let ms = [
            JoinAlgorithm::Repartition { bloom: true },
            JoinAlgorithm::Zigzag,
        ]
        .map(|a| exp.run(a).unwrap());
        for m in &ms {
            assert!(m.cost.total_s > 0.0);
            assert!(m.result_rows > 0);
            // the run carried a timeline, and measured overlap can only
            // add time relative to the assumed-perfect-overlap estimate
            assert!(!m.timeline.spans.is_empty());
            assert!(m.cost_measured.total_s >= m.cost.total_s - 1e-9);
            // per-link totals rode along for timeline_report
            assert!(m.timeline.totals.keys().any(|k| k.starts_with("net.")));
            // and the JSON artifact round-trips
            let back = hybrid_common::trace::Timeline::from_json(&m.timeline.to_json()).unwrap();
            assert_eq!(back.spans.len(), m.timeline.spans.len());
        }
        // same query, same answer
        assert_eq!(ms[0].result_rows, ms[1].result_rows);
        // zigzag ships no more DB tuples than repartition(BF)
        assert!(ms[1].summary.db_tuples_sent <= ms[0].summary.db_tuples_sent);
    }

    #[test]
    fn env_scale_selection() {
        // no env → default spec
        std::env::remove_var("HYBRID_BENCH_SCALE");
        assert_eq!(spec_from_env().t_rows, 160_000);
    }
}
