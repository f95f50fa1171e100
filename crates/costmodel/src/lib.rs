//! The paper-scale cost model, re-exported from [`hybrid_core::costmodel`],
//! where it lives so that the advisor and the replan controller can price
//! plans with it. This crate keeps the name the experiment harnesses and
//! the benchmark depend on, and the model's unit tests: each test module
//! below sits at the path its tests have always had (`model::tests::…`),
//! and in test builds it hides the re-exported module of the same name,
//! which nothing in this crate uses.

pub use hybrid_core::costmodel::*;

#[cfg(test)]
#[allow(hidden_glob_reexports)]
mod cluster;
#[cfg(test)]
#[allow(hidden_glob_reexports)]
mod model;
#[cfg(test)]
#[allow(hidden_glob_reexports)]
mod overlap;
#[cfg(test)]
#[allow(hidden_glob_reexports)]
mod replan;
#[cfg(test)]
#[allow(hidden_glob_reexports)]
mod scale;
#[cfg(test)]
#[allow(hidden_glob_reexports)]
mod star;
