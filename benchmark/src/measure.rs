//! Named values on their way to the output: a metric's value and, for a
//! timing, the sample count and quartiles it was taken from.

use crate::json::Json;
use crate::stats::Summary;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    /// In the metric's own unit; `None` for counters and ratios.
    pub summary: Option<Summary>,
}

#[derive(Debug, Default)]
pub struct Measurements(BTreeMap<&'static str, Measured>);

impl Measurements {
    /// A counter or a derived number.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.insert(
            name,
            Measured {
                value,
                summary: None,
            },
        );
    }

    /// A timing: the metric is the median of `samples × factor`.
    pub fn put_median(&mut self, name: &'static str, samples: &[f64], factor: f64) {
        let summary = Summary::of(samples).scaled(factor);
        self.insert(
            name,
            Measured {
                value: summary.p50,
                summary: Some(summary),
            },
        );
    }

    /// A value computed elsewhere from `summary`'s samples (a percentile
    /// other than the median, a rate).
    pub fn put_with(&mut self, name: &'static str, value: f64, summary: Summary) {
        self.insert(
            name,
            Measured {
                value,
                summary: Some(summary),
            },
        );
    }

    fn insert(&mut self, name: &'static str, m: Measured) {
        assert!(self.0.insert(name, m).is_none(), "{name} measured twice");
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Measured)> {
        self.0.iter().map(|(k, v)| (*k, v))
    }

    /// `{"name": {"n": .., "p25": .., "p50": .., "p75": ..}}` for every
    /// timing.
    pub fn summaries_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .filter_map(|(k, m)| m.summary.map(|s| (k.to_string(), s.to_json())))
                .collect(),
        )
    }
}
