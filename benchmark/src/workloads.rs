//! The seven workloads: what each runs, at which size, and the checks that
//! keep it from silently measuring something else.

#[cfg(test)]
use crate::adapter;
use crate::adapter::{
    DimSpec, FileFormat, JoinAlgorithm, KeySkew, MultiwayPlanner, OpStats, WorkloadSpec,
};
use crate::sys;

/// Input size. `Smoke` is `WorkloadSpec::tiny()`-sized: same code paths and
/// checks in a fraction of a second per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// The paper's Table 1 setting (σT .1, σL .4, ST′ .2, SL′ .1, ~100 T
    /// rows per key) at a quarter of `scaled_default()`: T 40 k, L 375 k.
    Paper,
    /// Same row counts with one T row per key and σT .5, σL .8: the join
    /// output is tiny, so shuffle, build and probe lookups carry the work.
    Wide,
    /// A 3-dimension star over a 400 k-row fact table.
    Star3,
    /// `tiny_star(3)`: the service workloads' data.
    TinyStar,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Plan {
    Binary(JoinAlgorithm),
    Star(MultiwayPlanner),
    /// Closed-loop clients over the TCP front door.
    Svc {
        cached: bool,
    },
}

#[derive(Clone)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub data: Data,
    pub format: FileFormat,
    pub plan: Plan,
    /// Run the engine at `max(N, 2)` threads instead of 1.
    pub parallel: bool,
    /// `SystemConfig::mem_budget_bytes` at (full, smoke) size.
    pub mem_budget: Option<(u64, u64)>,
    /// The percentile `latency_ms_tail` reports: the highest the workload's
    /// sample count supports.
    pub tail_pct: f64,
}

impl WorkloadDef {
    pub fn is_svc(&self) -> bool {
        matches!(self.plan, Plan::Svc { .. })
    }

    pub fn threads(&self) -> usize {
        if self.parallel {
            sys::parallelism().max(2)
        } else {
            1
        }
    }

    pub fn mem_budget_bytes(&self, size: Size) -> Option<u64> {
        self.mem_budget.map(|(full, smoke)| match size {
            Size::Full => full,
            Size::Smoke => smoke,
        })
    }

    pub fn spec(&self, size: Size, seed: u64) -> WorkloadSpec {
        self.data.spec(size, seed)
    }

    pub fn rows_per_block(&self, size: Size) -> usize {
        self.data.rows_per_block(size)
    }
}

impl Data {
    /// Rows per HDFS block: 5 000 on the big tables, 200 on the 12 000-row
    /// `L` of the tiny ones, so that each of the 30 JEN workers has two or
    /// more blocks to scan at either size.
    pub fn rows_per_block(self, size: Size) -> usize {
        match (self, size) {
            (Data::TinyStar, _) | (_, Size::Smoke) => 200,
            (_, Size::Full) => 5_000,
        }
    }

    pub fn spec(self, size: Size, seed: u64) -> WorkloadSpec {
        let base = match size {
            Size::Full => WorkloadSpec {
                t_rows: 40_000,
                l_rows: 375_000,
                num_keys: 400,
                ..WorkloadSpec::scaled_default()
            },
            Size::Smoke => WorkloadSpec::tiny(),
        };
        let mut spec = match self {
            Data::Paper => base,
            Data::Wide => WorkloadSpec {
                num_keys: base.t_rows,
                sigma_t: 0.5,
                sigma_l: 0.8,
                ..base
            },
            Data::Star3 if size == Size::Full => WorkloadSpec {
                t_rows: 20_000,
                l_rows: 400_000,
                num_keys: 200,
                dimensions: vec![
                    DimSpec {
                        rows: 14_000,
                        sigma: 0.5,
                        fk_correlation: 0.85,
                        skew: KeySkew::Uniform,
                    };
                    3
                ],
                ..base
            },
            Data::Star3 | Data::TinyStar => WorkloadSpec::tiny_star(3),
        };
        spec.seed = seed;
        spec
    }
}

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "paper_zigzag_col",
        why: "The paper's headline: Table 1 selectivities, columnar, zigzag, 1 thread. Time is scan plus join-output materialisation in probe; Bloom, shuffle and build are under 5%.",
        data: Data::Paper,
        format: FileFormat::Columnar,
        plan: Plan::Binary(JoinAlgorithm::Zigzag),
        parallel: false,
        mem_budget: None,
        tail_pct: 75.0,
    },
    WorkloadDef {
        name: "paper_repart_text",
        why: "Same data as text, repartition without Bloom: the only workload where text decode dominates the scan and no Bloom filter exists.",
        data: Data::Paper,
        format: FileFormat::Text,
        plan: Plan::Binary(JoinAlgorithm::Repartition { bloom: false }),
        parallel: false,
        mem_budget: None,
        tail_pct: 75.0,
    },
    WorkloadDef {
        name: "wide_repart_mt",
        why: "One row per key, so join output is tiny and shuffle, hash build and probe lookups carry the work; the only workload through the parallel Driver and bounded fabric.",
        data: Data::Wide,
        format: FileFormat::Columnar,
        plan: Plan::Binary(JoinAlgorithm::Repartition { bloom: false }),
        parallel: true,
        mem_budget: None,
        tail_pct: 75.0,
    },
    WorkloadDef {
        name: "wide_repart_spill",
        why: "Same join under a memory budget that evicts most partitions and keeps some: the hybrid hash joiner spilling and grace-joining instead of staying resident.",
        data: Data::Wide,
        format: FileFormat::Columnar,
        plan: Plan::Binary(JoinAlgorithm::Repartition { bloom: false }),
        parallel: false,
        mem_budget: Some((4 << 20, 96 << 10)),
        tail_pct: 75.0,
    },
    WorkloadDef {
        name: "star3_auto",
        why: "3-dimension star through run_star with the Auto planner: sampling, advise_multiway, then cascade or hypercube in the separate multiway executor.",
        data: Data::Star3,
        format: FileFormat::Columnar,
        plan: Plan::Star(MultiwayPlanner::Auto),
        parallel: false,
        mem_budget: None,
        tail_pct: 75.0,
    },
    WorkloadDef {
        name: "svc_tcp_uncached",
        why: "Closed-loop TCP clients, caches off, 90% binary over 8 algorithm choices and 10% star: per-query fixed cost (session, sampling, admission) dominates per-row kernels.",
        data: Data::TinyStar,
        format: FileFormat::Columnar,
        plan: Plan::Svc { cached: false },
        parallel: false,
        mem_budget: None,
        tail_pct: 95.0,
    },
    WorkloadDef {
        name: "svc_tcp_cached",
        why: "Same server with default caches and a working set that fits, with periodic reloads of T: wire codec, thread hand-off and result-cache lookup are all of a hit.",
        data: Data::TinyStar,
        format: FileFormat::Columnar,
        plan: Plan::Svc { cached: true },
        parallel: false,
        mem_budget: None,
        tail_pct: 95.0,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Non-vacuity guards over the engine operations of one run: a workload
/// that no longer exercises what it exists for fails instead of reporting a
/// number for something else.
pub fn engine_guards(def: &WorkloadDef, ops: &[OpStats]) -> Vec<String> {
    let mut broken = Vec::new();
    if ops.is_empty() {
        broken.push("no operation completed".to_string());
    }
    if def.parallel && def.threads() < 2 {
        broken.push(format!(
            "parallel workload ran with {} thread",
            def.threads()
        ));
    }
    for (i, op) in ops.iter().enumerate() {
        if def.mem_budget.is_some() {
            if op.evictions == 0 || op.partitions_resident == 0 {
                broken.push(format!(
                    "op {i}: spill workload saw {} evictions and {} resident partitions; needs both > 0",
                    op.evictions, op.partitions_resident
                ));
                break;
            }
        } else if op.spill_bytes_written > 0 {
            broken.push(format!(
                "op {i}: {} spill bytes written without a memory budget",
                op.spill_bytes_written
            ));
            break;
        }
    }
    broken
}

/// Non-vacuity guards of the service workloads.
pub fn svc_guards(cached: bool, completed: usize, from_cache: usize) -> Vec<String> {
    let mut broken = Vec::new();
    if completed == 0 {
        broken.push("no request completed".to_string());
    } else if cached && (from_cache as f64) < 0.99 * completed as f64 {
        broken.push(format!(
            "cached workload: only {from_cache} of {completed} replies came from the cache (< 99%)"
        ));
    } else if !cached && from_cache > 0 {
        broken.push(format!(
            "uncached workload: {from_cache} replies came from a cache that should be off"
        ));
    }
    broken
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_is_feasible_at_both_sizes() {
        for def in &WORKLOADS {
            for size in [Size::Full, Size::Smoke] {
                let spec = def.spec(size, 42);
                spec.key_plan()
                    .unwrap_or_else(|e| panic!("{} {size:?}: {e}", def.name));
                assert_eq!(spec.seed, 42);
                assert_eq!(
                    spec.dimensions.len() == 3,
                    def.is_svc() || def.data == Data::Star3
                );
            }
        }
        assert!(find("star3_auto").is_some() && find("nope").is_none());
    }

    #[test]
    fn same_seed_same_tables_and_another_seed_other_tables() {
        let checksums = |seed| {
            let w = Data::TinyStar.spec(Size::Smoke, seed).generate().unwrap();
            [&w.t, &w.l]
                .into_iter()
                .chain(&w.dims)
                .map(adapter::table_checksum)
                .collect::<Vec<u64>>()
        };
        assert_eq!(checksums(9), checksums(9));
        assert_ne!(checksums(9), checksums(10));
        assert!(checksums(9).iter().zip(checksums(10)).all(|(a, b)| *a != b));
    }

    #[test]
    fn engine_guards_fire_on_what_a_workload_must_not_do() {
        let plain = find("paper_zigzag_col").unwrap();
        let spill = find("wide_repart_spill").unwrap();
        let resident = OpStats {
            partitions_resident: 8,
            ..OpStats::default()
        };
        let spilled = OpStats {
            evictions: 6,
            partitions_resident: 2,
            spill_bytes_written: 1 << 20,
            ..OpStats::default()
        };
        let all_out = OpStats {
            evictions: 8,
            spill_bytes_written: 1 << 20,
            ..OpStats::default()
        };
        assert!(engine_guards(plain, std::slice::from_ref(&resident)).is_empty());
        assert!(
            !engine_guards(plain, std::slice::from_ref(&spilled)).is_empty(),
            "spilled without a budget"
        );
        assert!(engine_guards(spill, &[spilled]).is_empty());
        assert!(
            !engine_guards(spill, &[resident]).is_empty(),
            "budget never bit"
        );
        assert!(
            !engine_guards(spill, &[all_out]).is_empty(),
            "nothing stayed resident"
        );
        assert!(!engine_guards(plain, &[]).is_empty(), "no operation at all");
    }

    #[test]
    fn svc_guards_fire() {
        assert!(svc_guards(true, 1000, 995).is_empty());
        assert!(!svc_guards(true, 1000, 900).is_empty());
        assert!(svc_guards(false, 1000, 0).is_empty());
        assert!(!svc_guards(false, 1000, 1).is_empty());
        assert!(!svc_guards(false, 0, 0).is_empty());
    }
}
