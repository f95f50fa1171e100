//! Unit tests of [`hybrid_core::costmodel::scale`].

use hybrid_core::costmodel::ScaleFactors;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_one() {
        let s = ScaleFactors::identity();
        assert_eq!(
            s,
            ScaleFactors {
                t: 1.0,
                l: 1.0,
                keys: 1.0
            }
        );
    }

    #[test]
    fn to_paper_ratios() {
        let s = ScaleFactors::to_paper(160_000, 1_500_000, 1_600);
        assert!((s.t - 10_000.0).abs() < 1e-6);
        assert!((s.l - 10_000.0).abs() < 1e-6);
        assert!((s.keys - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn zero_guard() {
        let s = ScaleFactors::to_paper(0, 0, 0);
        assert!(s.t.is_finite() && s.l.is_finite() && s.keys.is_finite());
    }
}
