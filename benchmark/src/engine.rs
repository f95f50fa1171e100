//! The engine workloads: one analyst runs one hybrid join over a loaded
//! warehouse, again and again, and every result is compared with the
//! sequential reference.

use crate::adapter::{
    self, Batch, HybridQuery, HybridSystem, JoinAlgorithm, MultiwayPlanner, OpStats, Result,
    StarQuery, Workload,
};
use crate::sys;
use crate::trace::Recorder;
use crate::workloads::{Plan, Size, WorkloadDef};
use std::time::{Duration, Instant};

/// Untimed repetitions that end set-up: the first run of a system spawns
/// threads and faults in memory the later ones reuse.
const WARMUPS: u64 = 2;

pub enum Job {
    Binary {
        query: HybridQuery,
        algorithm: JoinAlgorithm,
    },
    Star {
        star: StarQuery,
        planner: MultiwayPlanner,
    },
}

pub struct Fixture {
    pub workload: Workload,
    pub system: HybridSystem,
    pub job: Job,
    pub reference: Batch,
}

/// What a timed region of operations produced.
#[derive(Default)]
pub struct Outcome {
    /// One entry per completed and correct operation.
    pub ops: Vec<OpStats>,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
    pub cpu: Duration,
    pub errors: Vec<String>,
}

impl Fixture {
    /// Everything before the first timed operation: generate, load (encode,
    /// distribute, index), compute the reference result, warm up.
    pub fn setup(def: &WorkloadDef, size: Size, seed: u64, rec: &mut Recorder) -> Result<Fixture> {
        let spec = def.spec(size, seed);
        let (workload, _) = rec.call("datagen.generate", 0, || spec.generate());
        let workload = workload?;
        let (system, _) = rec.call("core.load", 0, || {
            adapter::load_system(
                &workload,
                def.format,
                def.rows_per_block(size),
                def.threads(),
                def.mem_budget_bytes(size),
            )
        });
        let system = system?;
        let job = match def.plan {
            Plan::Binary(algorithm) => Job::Binary {
                query: workload.query(),
                algorithm,
            },
            Plan::Star(planner) => Job::Star {
                star: workload.star_query(),
                planner,
            },
            Plan::Svc { .. } => unreachable!("service workloads are set up by svc::Fixture"),
        };
        let (reference, _) = rec.call("core.reference", 0, || match &job {
            Job::Binary { query, .. } => adapter::reference_binary(&workload, query),
            Job::Star { star, .. } => adapter::reference_star(&workload, star),
        });
        let mut fixture = Fixture {
            workload,
            system,
            job,
            reference: reference?,
        };
        let warm = rec.open("harness.warmup", 0);
        for _ in 0..WARMUPS {
            let (_, correct) = fixture.op(rec, 0)?;
            if !correct {
                return Err("warm-up result differs from the sequential reference".into());
            }
        }
        rec.close(warm);
        Ok(fixture)
    }

    pub fn op(&mut self, rec: &mut Recorder, id: u64) -> Result<(OpStats, bool)> {
        run_job(&mut self.system, &self.job, &self.reference, rec, id)
    }

    /// Repeat the operation until `budget` has passed (and at least
    /// `min_ops` times).
    pub fn timed_ops(&mut self, rec: &mut Recorder, budget: Duration, min_ops: u64) -> Outcome {
        let mut outcome = Outcome::default();
        let cpu_before = sys::cpu_time();
        let start = Instant::now();
        while outcome.attempted < min_ops || start.elapsed() < budget {
            outcome.attempted += 1;
            match self.op(rec, outcome.attempted) {
                Ok((stats, true)) => outcome.ops.push(stats),
                Ok((_, false)) => {
                    outcome.failed += 1;
                    outcome
                        .errors
                        .push("result differs from the sequential reference".into());
                }
                Err(e) => {
                    outcome.failed += 1;
                    outcome.errors.push(e.to_string());
                }
            }
        }
        outcome.wall = start.elapsed();
        outcome.cpu = sys::cpu_time() - cpu_before;
        outcome
    }
}

/// One operation on `system`: the `run` / `run_star` call (its wall is the
/// sample) and, outside that wall, the bit-for-bit check against the
/// sequential reference.
pub fn run_job(
    system: &mut HybridSystem,
    job: &Job,
    reference: &Batch,
    rec: &mut Recorder,
    id: u64,
) -> Result<(OpStats, bool)> {
    let open = rec.open("harness.op", id);
    let (out, wall) = match job {
        Job::Binary { query, algorithm } => rec.call("core.run", id, || {
            adapter::run_binary(system, query, *algorithm)
        }),
        Job::Star { star, planner } => rec.call("core.run_star", id, || {
            adapter::run_star(system, star, *planner)
        }),
    };
    let checked = out.map(|out| {
        let (correct, _) = rec.call("harness.verify", id, || out.result == *reference);
        (OpStats::of(&out, wall), correct)
    });
    rec.close(open);
    checked
}
