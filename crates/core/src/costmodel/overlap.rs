//! Measured stage-overlap fractions, extracted from a run's [`Timeline`].
//!
//! The assumed-overlap cost model ([`super::CostModel::estimate`]) treats
//! concurrent phases as perfectly overlapped: a `max(...)` over the
//! component times, the way Fig. 7 draws the JEN pipeline. Real runs
//! overlap imperfectly — the scan may drain before the shuffle starts, the
//! hash build may serialize behind the receive. This module measures how
//! much two stages *actually* ran concurrently and lets
//! [`super::CostModel::estimate_measured`] blend between `max` (full
//! overlap) and `sum` (no overlap) per component pair.
//!
//! The fraction for a stage pair `(a, b)` is
//! `overlap_us(a, b) / min(busy_us(a), busy_us(b))` — 1.0 when the shorter
//! stage ran entirely inside the longer one, 0.0 when they never
//! coexisted. Pairs absent from the profile (stage not traced, or an empty
//! profile) fall back to 1.0, so a profile with no data reproduces the
//! assumed-overlap estimate exactly — that property is what makes the A/B
//! comparison in `timeline_report` meaningful.

use hybrid_common::trace::{Stage, Timeline};
use std::collections::BTreeMap;

/// Symmetric table of measured overlap fractions between pipeline stages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverlapProfile {
    /// Keyed by stage-name pair in canonical (sorted) order.
    pairs: BTreeMap<(&'static str, &'static str), f64>,
}

impl OverlapProfile {
    /// The empty profile: every lookup misses, so every phase combines with
    /// `max` — identical to the assumed-overlap path. Exposed for A/B runs.
    pub fn assumed() -> OverlapProfile {
        OverlapProfile::default()
    }

    /// Measure every stage pair present in `timeline`.
    pub fn from_timeline(timeline: &Timeline) -> OverlapProfile {
        let mut pairs = BTreeMap::new();
        for (i, &a) in Stage::ALL.iter().enumerate() {
            for &b in &Stage::ALL[i + 1..] {
                if let Some(f) = timeline.overlap_fraction(a, b) {
                    pairs.insert(Self::key(a, b), f);
                }
            }
        }
        OverlapProfile { pairs }
    }

    fn key(a: Stage, b: Stage) -> (&'static str, &'static str) {
        let (x, y) = (a.name(), b.name());
        if x <= y {
            (x, y)
        } else {
            (y, x)
        }
    }

    /// Measured fraction for a pair, `None` when the pair was not observed.
    /// A stage trivially overlaps itself fully.
    pub fn fraction(&self, a: Stage, b: Stage) -> Option<f64> {
        if a == b {
            return Some(1.0);
        }
        self.pairs.get(&Self::key(a, b)).copied()
    }

    /// Fraction with the assumed-overlap fallback applied.
    pub fn fraction_or_assumed(&self, a: Stage, b: Stage) -> f64 {
        self.fraction(a, b).unwrap_or(1.0)
    }

    /// Number of measured pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterate `(stage_a, stage_b, fraction)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.pairs.iter().map(|(&(a, b), &f)| (a, b, f))
    }
}

/// Combine concurrent component times using measured overlap.
///
/// The dominant component anchors the phase; every other component
/// contributes the part of its time that did **not** overlap the anchor:
/// `total = max + Σ (1 − f(stage_i, anchor_stage)) · tᵢ`. With all
/// fractions 1 this is `max(...)` (the assumed model); with all fractions 0
/// it is the serial sum.
pub fn blend(parts: &[(f64, Option<Stage>)], profile: &OverlapProfile) -> f64 {
    let Some(anchor_idx) = (0..parts.len()).max_by(|&i, &j| parts[i].0.total_cmp(&parts[j].0))
    else {
        return 0.0;
    };
    let (anchor_secs, anchor_stage) = parts[anchor_idx];
    let mut total = anchor_secs;
    for (i, &(secs, stage)) in parts.iter().enumerate() {
        if i == anchor_idx {
            continue;
        }
        let f = match (stage, anchor_stage) {
            (Some(s), Some(a)) => profile.fraction_or_assumed(s, a),
            _ => 1.0, // untraced component: keep the assumed full overlap
        };
        total += (1.0 - f.clamp(0.0, 1.0)) * secs;
    }
    total
}
