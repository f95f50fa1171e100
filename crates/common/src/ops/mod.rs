//! Vectorized relational operators shared by both engines.
//!
//! The EDW executor and JEN run the *same* physical operators — hash join,
//! hash group-by aggregation, and hash partitioning — differing only in
//! where the data comes from and which network the exchanges cross. Keeping
//! the operators here guarantees the two engines compute identical results,
//! which the integration tests exploit: every join algorithm of the paper
//! must produce the same answer.

pub mod aggregate;
pub mod hash_join;
pub mod join_aggregate;
pub mod partition;

pub use aggregate::{AggSpec, HashAggregator};
pub use hash_join::HashJoiner;
pub use join_aggregate::JoinAggregator;
pub use partition::{partition_by_key, partition_sel};
