//! Unit tests of [`hybrid_core::costmodel::overlap`].

use hybrid_common::trace::{Stage, Timeline};
use hybrid_core::costmodel::overlap::{blend, OverlapProfile};

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_common::trace::Span;

    fn span(worker: &str, stage: Stage, t0: u64, t1: u64) -> Span {
        Span {
            worker: worker.into(),
            stage,
            t_start: t0,
            t_end: t1,
            bytes: 0,
            tuples: 0,
        }
    }

    #[test]
    fn empty_profile_reproduces_assumed_max() {
        let p = OverlapProfile::assumed();
        let parts = [(10.0, Some(Stage::Scan)), (4.0, Some(Stage::HashBuild))];
        assert_eq!(blend(&parts, &p), 10.0);
    }

    #[test]
    fn zero_overlap_sums() {
        let t = Timeline {
            spans: vec![
                span("jen-0", Stage::Scan, 0, 100),
                span("jen-0", Stage::HashBuild, 100, 150),
            ],
            ..Default::default()
        };
        let p = OverlapProfile::from_timeline(&t);
        assert_eq!(p.fraction(Stage::Scan, Stage::HashBuild), Some(0.0));
        let parts = [(10.0, Some(Stage::Scan)), (4.0, Some(Stage::HashBuild))];
        assert!((blend(&parts, &p) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_blends() {
        // HashBuild busy 50us, 25 of them inside Scan → fraction 0.5
        let t = Timeline {
            spans: vec![
                span("jen-0", Stage::Scan, 0, 100),
                span("jen-0", Stage::HashBuild, 75, 125),
            ],
            ..Default::default()
        };
        let p = OverlapProfile::from_timeline(&t);
        assert_eq!(p.fraction(Stage::Scan, Stage::HashBuild), Some(0.5));
        let parts = [(10.0, Some(Stage::Scan)), (4.0, Some(Stage::HashBuild))];
        assert!((blend(&parts, &p) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_is_symmetric_and_reflexive() {
        let t = Timeline {
            spans: vec![
                span("jen-0", Stage::Scan, 0, 10),
                span("jen-1", Stage::Probe, 5, 15),
            ],
            ..Default::default()
        };
        let p = OverlapProfile::from_timeline(&t);
        assert_eq!(
            p.fraction(Stage::Scan, Stage::Probe),
            p.fraction(Stage::Probe, Stage::Scan)
        );
        assert_eq!(p.fraction(Stage::Scan, Stage::Scan), Some(1.0));
    }

    #[test]
    fn untraced_stage_keeps_assumed_overlap() {
        let t = Timeline {
            spans: vec![span("jen-0", Stage::Scan, 0, 10)],
            ..Default::default()
        };
        let p = OverlapProfile::from_timeline(&t);
        assert_eq!(p.fraction(Stage::Scan, Stage::Aggregate), None);
        let parts = [(10.0, Some(Stage::Scan)), (4.0, Some(Stage::Aggregate))];
        assert_eq!(blend(&parts, &p), 10.0);
    }
}
