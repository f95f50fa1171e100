//! Analytic cost model: data volumes → paper-scale seconds. It is the one
//! model that prices a binary join plan: the advisor picks with it before a
//! query runs, the replan controller decides with it at the observation
//! point, the service prices admission with it, and the figures judge the
//! measured runs with it.
//!
//! The experiments in this repository run on a scaled-down workload; the
//! paper's evaluation ran on a 31-node HDFS cluster joined to a 5-server
//! DB2 DPF cluster over a 20 Gbit switch. This module turns per-run
//! volumes (a [`crate::JoinSummary`]) into estimated wall-clock seconds on
//! the paper's hardware, reproducing the *shape* of Figures 8–15: who
//! wins, by what factor, and where the crossovers fall. The volumes are
//! **measured** for a finished run, or **predicted** from a query's
//! estimates ([`predict()`]) for a plan that has not run yet.
//!
//! ## Structure
//!
//! * [`scale::ScaleFactors`] rescales each volume to paper size — `T`-derived
//!   volumes by the T-row ratio, `L`-derived by the L-row ratio, Bloom
//!   filters by the key-universe ratio;
//! * [`cluster::ClusterSpec`] holds the hardware rates. Two are anchored
//!   directly to numbers the paper reports (§5.4): the HDFS I/O bandwidth
//!   (1 TB text scan = 240 s warm) and the JEN per-record processing rate
//!   (projected Parquet scan = 38 s I/O, with observed end-to-end floors
//!   around 100 s). The per-tuple exchange rates are *fitted* so that the
//!   published qualitative results hold — zigzag ≤ repartition(BF) ≤
//!   repartition with the paper's ≈2× spread, DB-side deteriorating
//!   steeply in σL, broadcast winning only below σT ≈ 0.001 — and each
//!   constant is documented at its definition;
//! * [`model::CostModel::estimate`] composes per-phase times the way the
//!   real engines overlap them: scanning ∥ shuffling ∥ hash-building inside
//!   JEN (Fig. 7), pipelined sends, and the zigzag join's deliberately
//!   sequential `BF_H` round-trip;
//! * [`predict::predict`] builds the volumes an algorithm would move from
//!   a query's [`crate::advisor::QueryEstimates`];
//! * [`replan::SunkWork`] + [`model::CostModel::estimate_remaining`] price
//!   a mid-query restart: the same model over a residual summary with the
//!   aborted attempt's sunk work zeroed, and [`replan::replan_break_even`]
//!   decides whether the restart pays.
//!
//! Every phase is linear in the volumes, apart from the fixed per-query
//! overhead, which every plan pays alike. So the cheapest plan does not
//! depend on the scale the volumes are given at when the three scale
//! factors are equal, as they are at the experiments' default scale.

pub mod cluster;
pub mod model;
pub mod overlap;
pub mod predict;
pub mod replan;
pub mod scale;
pub mod star;

pub use cluster::ClusterSpec;
pub use model::{CostBreakdown, CostModel, Phase};
pub use overlap::OverlapProfile;
pub use predict::predict;
pub use replan::{consumes_bf_db, replan_break_even, SunkWork};
pub use scale::ScaleFactors;
pub use star::{cascade_shuffle_bytes, hypercube_shuffle_bytes, StarShuffleVolume};
