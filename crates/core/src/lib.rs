//! Joins for hybrid warehouses — the paper's primary contribution.
//!
//! This crate implements the five join strategies of *"Joins for Hybrid
//! Warehouses: Exploiting Massive Parallelism in Hadoop and Enterprise Data
//! Warehouses"* (EDBT 2015) over the substrate crates:
//!
//! | algorithm | paper | where the join runs |
//! |---|---|---|
//! | [`JoinAlgorithm::DbSide`] (± Bloom) | §3.1, Fig. 1 | database |
//! | [`JoinAlgorithm::Broadcast`] | §3.2, Fig. 2 | HDFS (JEN) |
//! | [`JoinAlgorithm::Repartition`] (± Bloom) | §3.3, Fig. 3 | HDFS (JEN) |
//! | [`JoinAlgorithm::Zigzag`] | §3.4, Fig. 4 | HDFS (JEN) |
//! | [`JoinAlgorithm::SemiJoin`] | §6 baseline | HDFS (JEN) |
//!
//! A [`system::HybridSystem`] wires together the parallel database
//! (`hybrid-edw`), the HDFS cluster (`hybrid-hdfs`), the JEN engine
//! (`hybrid-jen`) and the metered fabric (`hybrid-net`). A query is a
//! [`query::HybridQuery`] — local predicates on both tables, an equi-join,
//! a post-join predicate, and a group-by/aggregate — exactly the shape of
//! the paper's workload (§2, §5). [`algorithms::run`] executes any strategy
//! and returns the result **plus** a [`stats::JoinSummary`] with the
//! tuple/byte movement counters that reproduce Table 1 and feed the cost
//! model ([`costmodel`]), which also prices plans before and during a run.
//!
//! All strategies compute identical results; the integration tests verify
//! every algorithm against [`reference::run_reference`], a single-node
//! evaluation of the same query.

pub mod adapt;
pub mod advisor;
pub mod algorithms;
pub mod cache;
pub mod costmodel;
pub mod estimation;
pub mod multiway;
pub mod query;
pub mod reference;
pub mod skew;
pub mod stats;
pub mod system;

pub use adapt::{run_adaptive, Observation, ReplanController, REPLAN_HYSTERESIS, REPLAN_NS_OFFSET};
pub use advisor::{
    advise, advise_multiway, best_cascade, best_hypercube, predicted_cost, CascadeStep,
    DimEstimates, MultiwayChoice, MultiwayPlan, QueryEstimates, StarEstimates,
};
pub use algorithms::{run, CancelToken, Driver, JoinAlgorithm, TaskSet};
pub use cache::{query_fingerprint, BloomCache, BloomKey};
pub use estimation::{run_auto, sample_star_stats, sample_stats, SampledStats};
pub use hybrid_net::{FaultSpec, FaultTarget, RetryPolicy};
pub use multiway::{run_star, DimQuery, MultiwayPlanner, StarQuery, MAX_STAR_DIMENSIONS};
pub use query::HybridQuery;
pub use reference::{batch_checksum, run_star_reference};
pub use skew::{SaltCursors, SaltRouter};
pub use stats::{JoinSummary, RunOutput};
pub use system::{
    parse_mem_budget, parse_replan_threshold, HybridSystem, SystemConfig, ZigzagReaccess,
    DEFAULT_BATCH_ROWS,
};
