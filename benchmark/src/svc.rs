//! The service workloads: `N` tenants, one closed-loop TCP connection each,
//! submit a seeded stream of queries to a `JoinServer` in this process.
//! A client sends its next request only after the previous reply is
//! complete, so a slower server receives less load.

use crate::adapter::{
    self, Batch, HybridQuery, JoinAlgorithm, JoinClient, JoinServer, MultiwayPlanner, QueryService,
    Result, StarQuery, Workload, ALGORITHMS, VARIANTS,
};
use crate::sys;
use crate::trace::Recorder;
use crate::workloads::{Plan, Size, WorkloadDef};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client 0 rewrites `T` through the service as a cached region starts and
/// again after every such period, so invalidation and refill run beside the
/// reads and every region has executed queries to time: four reloads and
/// ~200 refills in the benchmark's 8 s. One refill of the 48 variants costs
/// as much as ~10 000 hits, so the count per region is fixed by the clock
/// instead of falling out of the request rate.
const RELOAD_PERIOD: Duration = Duration::from_secs(2);

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Job {
    Binary {
        variant: usize,
        /// `None`: the advisor chooses from sampled estimates.
        algorithm: Option<JoinAlgorithm>,
    },
    Star {
        planner: MultiwayPlanner,
    },
}

/// Request `i` of the stream `seed` defines. Uncached: 10 % star (planner
/// drawn from auto / cascade / hypercube), 90 % binary over 48 predicate
/// variants × {7 forced algorithms, advisor}. Cached: advisor-routed binary
/// only — star results are not cached today.
pub fn job_at(seed: u64, i: u64, cached: bool) -> Job {
    let h = adapter::splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let variant = ((h >> 16) % VARIANTS as u64) as usize;
    if cached {
        return Job::Binary {
            variant,
            algorithm: None,
        };
    }
    if h.is_multiple_of(10) {
        let planner = [
            MultiwayPlanner::Auto,
            MultiwayPlanner::Cascade,
            MultiwayPlanner::Hypercube,
        ][((h >> 8) % 3) as usize];
        return Job::Star { planner };
    }
    // the first seven strategies forced, the eighth slot left to the advisor
    let algorithm = ALGORITHMS[..7].get(((h >> 40) % 8) as usize).copied();
    Job::Binary { variant, algorithm }
}

/// The distinct queries of the mix with their reference results.
pub struct Mix {
    binaries: Vec<HybridQuery>,
    binary_refs: Vec<Batch>,
    star: StarQuery,
    star_ref: Batch,
}

/// One completed-and-correct request as its client saw it. Single
/// precision keeps a quarter of a million of these small next to the
/// server they share a process with (`peak_rss_mb`); 24 bits resolve a
/// nanosecond in a 50 µs hit and a microsecond in a 10 s query.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub star: bool,
    pub from_cache: bool,
    /// Client side: request sent → last result frame decoded.
    pub client_us: f32,
    /// `ClientReply`: submission → result inside the service.
    pub server_us: f32,
    pub queue_us: f32,
    pub exec_us: f32,
}

#[derive(Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub reloads: u64,
    pub wall: Duration,
    pub cpu: Duration,
    pub errors: Vec<String>,
}

pub struct Fixture {
    pub workload: Workload,
    pub service: Arc<QueryService>,
    server: JoinServer,
    clients: Vec<JoinClient>,
    mix: Mix,
    pub cached: bool,
    seed: u64,
    /// Next index of the request stream; regions continue where the last
    /// one stopped instead of replaying its prefix.
    next: u64,
}

impl Fixture {
    /// Generate, load, compute every reference result, bind the server,
    /// connect and authenticate the clients, and pass once over the
    /// distinct queries (which also fills the caches when they are on).
    pub fn setup(def: &WorkloadDef, size: Size, seed: u64, rec: &mut Recorder) -> Result<Fixture> {
        let Plan::Svc { cached } = def.plan else {
            unreachable!("engine workloads are set up by engine::Fixture")
        };
        let spec = def.spec(size, seed);
        let (workload, _) = rec.call("datagen.generate", 0, || spec.generate());
        let workload = workload?;
        let (system, _) = rec.call("core.load", 0, || {
            adapter::load_system(
                &workload,
                def.format,
                def.rows_per_block(size),
                def.threads(),
                None,
            )
        });
        let system = system?;
        let (mix, _) = rec.call("core.reference", 0, || -> Result<Mix> {
            let binaries: Vec<HybridQuery> = (0..VARIANTS)
                .map(|i| adapter::variant(&workload, i))
                .collect();
            let binary_refs = binaries
                .iter()
                .map(|q| adapter::reference_binary(&workload, q))
                .collect::<Result<_>>()?;
            let star = workload.star_query();
            let star_ref = adapter::reference_star(&workload, &star)?;
            Ok(Mix {
                binaries,
                binary_refs,
                star,
                star_ref,
            })
        });
        let n = sys::parallelism();
        let (served, _) = rec.call("server.bind", 0, || adapter::serve(system, n, cached, n));
        let (service, server) = served?;
        let mut clients = Vec::with_capacity(n);
        for tenant in 0..n {
            let (client, _) = rec.call("server.connect_hello", 0, || {
                adapter::connect(&server, tenant)
            });
            clients.push(client?);
        }
        let mut fixture = Fixture {
            workload,
            service,
            server,
            clients,
            mix: mix?,
            cached,
            seed,
            next: 0,
        };
        let warm = rec.open("harness.warmup", 0);
        fixture.warm_up(rec)?;
        rec.close(warm);
        Ok(fixture)
    }

    fn warm_up(&mut self, rec: &mut Recorder) -> Result<()> {
        let mut jobs: Vec<Job> = (0..VARIANTS)
            .map(|variant| Job::Binary {
                variant,
                algorithm: if self.cached {
                    None
                } else {
                    ALGORITHMS[..7].get(variant % 8).copied()
                },
            })
            .collect();
        if !self.cached {
            jobs.extend(
                [
                    MultiwayPlanner::Auto,
                    MultiwayPlanner::Cascade,
                    MultiwayPlanner::Hypercube,
                ]
                .map(|planner| Job::Star { planner }),
            );
        }
        let n = self.clients.len();
        for (i, job) in jobs.into_iter().enumerate() {
            request(&mut self.clients[i % n], &self.mix, job, rec, 0)
                .map_err(|e| format!("warm-up request {i}: {e}"))?;
        }
        Ok(())
    }

    /// One more authenticated connection (the traced run times a few).
    pub fn connect(&self, tenant: usize) -> Result<JoinClient> {
        adapter::connect(&self.server, tenant)
    }

    /// The closed-loop region: every client pulls the next request index,
    /// sends, waits for the whole reply, checks it against the reference,
    /// until `budget` has passed (and at least `min_requests` were sent).
    pub fn timed_requests(
        &mut self,
        rec: &mut Recorder,
        budget: Duration,
        min_requests: u64,
    ) -> Outcome {
        let first = self.next;
        let next = AtomicU64::new(first);
        let (mix, workload, service) = (&self.mix, &self.workload, &*self.service);
        let (seed, cached, epoch, traced) = (self.seed, self.cached, rec.epoch(), rec.enabled());
        let cpu_before = sys::cpu_time();
        let start = Instant::now();
        let deadline = start + budget;
        let per_client: Vec<(Outcome, Recorder)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut rec = Recorder::with_epoch(traced, epoch);
                        let mut out = Outcome::default();
                        let mut reload_due = start;
                        loop {
                            if Instant::now() >= deadline
                                && next.load(Ordering::Relaxed) >= first + min_requests
                            {
                                break;
                            }
                            if cached && c == 0 && Instant::now() >= reload_due {
                                reload_due += RELOAD_PERIOD;
                                let (reloaded, _) = rec.call("service.reload", out.reloads, || {
                                    adapter::reload_t(service, workload)
                                });
                                match reloaded {
                                    Ok(()) => out.reloads += 1,
                                    Err(e) => out.errors.push(format!("reload: {e}")),
                                }
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            out.attempted += 1;
                            match request(client, mix, job_at(seed, i, cached), &mut rec, i) {
                                Ok(sample) => out.samples.push(sample),
                                Err(e) => {
                                    out.failed += 1;
                                    out.errors.push(format!("request {i}: {e}"));
                                }
                            }
                        }
                        (out, rec)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut outcome = Outcome {
            wall: start.elapsed(),
            cpu: sys::cpu_time() - cpu_before,
            ..Outcome::default()
        };
        for (part, thread_rec) in per_client {
            outcome.samples.extend(part.samples);
            outcome.attempted += part.attempted;
            outcome.failed += part.failed;
            outcome.reloads += part.reloads;
            outcome.errors.extend(part.errors);
            rec.absorb(thread_rec);
        }
        self.next = next.into_inner();
        outcome
    }
}

/// Send one request, wait for the complete reply, and check its rows
/// bit-for-bit against the reference. An error, a refusal and a wrong
/// result are all failures.
fn request(
    client: &mut JoinClient,
    mix: &Mix,
    job: Job,
    rec: &mut Recorder,
    id: u64,
) -> Result<Sample> {
    let open = rec.open("harness.request", id);
    let (reply, latency, expected) = match job {
        Job::Binary { variant, algorithm } => {
            let query = mix.binaries[variant].clone();
            let (reply, latency) = rec.call("server.client_query", id, || {
                client.query(query, algorithm, None)
            });
            (reply, latency, &mix.binary_refs[variant])
        }
        Job::Star { planner } => {
            let star = mix.star.clone();
            let (reply, latency) = rec.call("server.client_star", id, || {
                client.star(star, planner, None)
            });
            (reply, latency, &mix.star_ref)
        }
    };
    let checked = reply.map_err(Into::into).and_then(|reply| {
        let (correct, _) = rec.call("harness.verify", id, || reply.rows == *expected);
        if !correct {
            return Err(format!("{job:?}: rows differ from the sequential reference").into());
        }
        Ok(Sample {
            star: matches!(job, Job::Star { .. }),
            from_cache: reply.from_cache,
            client_us: latency.as_secs_f32() * 1e6,
            server_us: reply.latency.as_secs_f32() * 1e6,
            queue_us: reply.queue_wait.as_secs_f32() * 1e6,
            exec_us: reply.exec_time.as_secs_f32() * 1e6,
        })
    });
    rec.close(open);
    checked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_a_function_of_the_seed() {
        let stream = |seed, cached| {
            (0..2_000)
                .map(|i| job_at(seed, i, cached))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(7, false), stream(7, false));
        assert_ne!(stream(7, false), stream(8, false));
        assert_ne!(stream(7, true), stream(8, true));
    }

    #[test]
    fn uncached_mix_has_every_class_and_cached_mix_only_advisor_binaries() {
        let jobs: Vec<Job> = (0..20_000).map(|i| job_at(1, i, false)).collect();
        let stars = jobs
            .iter()
            .filter(|j| matches!(j, Job::Star { .. }))
            .count();
        assert!(
            (1_700..2_300).contains(&stars),
            "about a tenth are stars: {stars}"
        );
        for planner in [
            MultiwayPlanner::Auto,
            MultiwayPlanner::Cascade,
            MultiwayPlanner::Hypercube,
        ] {
            assert!(jobs.contains(&Job::Star { planner }));
        }
        for algorithm in ALGORITHMS[..7].iter().map(|a| Some(*a)).chain([None]) {
            assert!(jobs
                .iter()
                .any(|j| matches!(j, Job::Binary { algorithm: a, .. } if *a == algorithm)));
        }
        for variant in 0..VARIANTS {
            assert!(jobs
                .iter()
                .any(|j| matches!(j, Job::Binary { variant: v, .. } if *v == variant)));
        }
        assert!((0..5_000).all(|i| matches!(
            job_at(1, i, true),
            Job::Binary {
                algorithm: None,
                ..
            }
        )));
    }
}
