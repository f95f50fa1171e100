//! The standard Bloom filter.

use crate::params::BloomParams;
use crate::ApproxMembership;
use hybrid_common::error::{HybridError, Result};
use hybrid_common::hash::bloom_base_hashes;

/// An `m`-bit, `k`-hash Bloom filter over `i64` join keys.
///
/// ```
/// use hybrid_bloom::{ApproxMembership, BloomFilter, BloomParams};
///
/// // per-worker local filters, merged like the paper's combine_filter UDF
/// let params = BloomParams::new(1 << 12, 2).unwrap();
/// let mut worker_a = BloomFilter::new(params);
/// worker_a.insert_all(&[1, 2, 3]);
/// let mut worker_b = BloomFilter::new(params);
/// worker_b.insert_all(&[40, 50]);
///
/// let mut global = BloomFilter::new(params);
/// global.merge(&worker_a).unwrap();
/// global.merge(&worker_b).unwrap();
/// assert!(global.may_contain(2) && global.may_contain(50));
///
/// // ship it across the cluster and back
/// let wire = global.to_bytes();
/// let received = BloomFilter::from_bytes(&wire).unwrap();
/// assert!(received.may_contain(3));
/// ```
///
/// This is the structure built by the paper's `cal_filter`/`get_filter` UDFs
/// on each DB worker and merged into the global `BF_DB` by `combine_filter`
/// (§4.1.1), and symmetrically by JEN workers to form `BF_H` in the zigzag
/// join (§3.4). Merging is plain bitwise OR, which requires both sides to
/// use identical parameters — enforced by [`BloomFilter::merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    params: BloomParams,
    bits: Vec<u64>,
    /// Number of `insert` calls (not distinct keys); used for FPR estimation
    /// and diagnostics only.
    insertions: u64,
}

impl BloomFilter {
    pub fn new(params: BloomParams) -> BloomFilter {
        let words = params.bits.div_ceil(64);
        // Normalize to the allocated geometry so a wire roundtrip
        // (`to_bytes`/`from_bytes`) reports identical params and merges
        // with the original filter.
        let params = BloomParams {
            bits: words * 64,
            ..params
        };
        BloomFilter {
            params,
            bits: vec![0; words],
            insertions: 0,
        }
    }

    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// Total bits `m` (rounded up to the allocated word count).
    pub fn num_bits(&self) -> usize {
        self.bits.len() * 64
    }

    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Insert a join key.
    #[inline]
    pub fn insert(&mut self, key: i64) {
        let (h1, h2) = bloom_base_hashes(key);
        let m = self.num_bits() as u64;
        let mut h = h1;
        for _ in 0..self.params.hashes {
            let bit = h % m;
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
            h = h.wrapping_add(h2);
        }
        self.insertions += 1;
    }

    /// Insert every key of a slice (scan loop helper).
    pub fn insert_all(&mut self, keys: &[i64]) {
        for &k in keys {
            self.insert(k);
        }
    }

    /// Merge `other` into `self` by bitwise OR — the `combine_filter` UDF.
    ///
    /// Errors if the parameters differ: OR-ing filters of different geometry
    /// silently corrupts membership answers, so it is a hard error.
    pub fn merge(&mut self, other: &BloomFilter) -> Result<()> {
        if self.params != other.params {
            return Err(HybridError::config(format!(
                "cannot merge bloom filters with different params: {:?} vs {:?}",
                self.params, other.params
            )));
        }
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
        self.insertions += other.insertions;
        Ok(())
    }

    /// Fraction of set bits (diagnostic; ~`1 - e^{-kn/m}` for random keys).
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| u64::from(w.count_ones())).sum();
        set as f64 / self.num_bits() as f64
    }

    /// Observed-fill-based FPR estimate: `fill^k`.
    pub fn estimated_fpr(&self) -> f64 {
        self.fill_ratio().powf(f64::from(self.params.hashes))
    }

    /// Serialize to bytes (wire format: k, then the words little-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.bits.len() * 8);
        out.extend_from_slice(&u64::from(self.params.hashes).to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialize from [`BloomFilter::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<BloomFilter> {
        if bytes.len() < 16 || (bytes.len() - 8) % 8 != 0 {
            return Err(HybridError::Storage(format!(
                "bloom wire payload of {} bytes is malformed",
                bytes.len()
            )));
        }
        let hashes = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let words = (bytes.len() - 8) / 8;
        let mut bits = Vec::with_capacity(words);
        for i in 0..words {
            let s = 8 + i * 8;
            bits.push(u64::from_le_bytes(bytes[s..s + 8].try_into().unwrap()));
        }
        let params = BloomParams::new(
            words * 64,
            hashes
                .try_into()
                .map_err(|_| HybridError::Storage("bloom wire hash count overflow".into()))?,
        )?;
        Ok(BloomFilter {
            params,
            bits,
            insertions: 0,
        })
    }
}

impl ApproxMembership for BloomFilter {
    #[inline]
    fn may_contain(&self, key: i64) -> bool {
        let (h1, h2) = bloom_base_hashes(key);
        let m = self.num_bits() as u64;
        let mut h = h1;
        for _ in 0..self.params.hashes {
            let bit = h % m;
            if self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
            h = h.wrapping_add(h2);
        }
        true
    }

    fn wire_bytes(&self) -> usize {
        8 + self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter_with(keys: &[i64], bits: usize, k: u32) -> BloomFilter {
        let mut f = BloomFilter::new(BloomParams::new(bits, k).unwrap());
        f.insert_all(keys);
        f
    }

    #[test]
    fn no_false_negatives() {
        let keys: Vec<i64> = (0..5000).map(|i| i * 37 - 1000).collect();
        let f = filter_with(&keys, 64 * 1024, 3);
        for &k in &keys {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn fpr_close_to_prediction() {
        let n = 10_000usize;
        let params = BloomParams::new(8 * n, 2).unwrap();
        let mut f = BloomFilter::new(params);
        for i in 0..n as i64 {
            f.insert(i);
        }
        let predicted = params.expected_fpr(n);
        let trials = 100_000;
        let fp = (n as i64..n as i64 + trials)
            .filter(|&k| f.may_contain(k))
            .count();
        let observed = fp as f64 / trials as f64;
        assert!(
            (observed - predicted).abs() < 0.02,
            "observed {observed}, predicted {predicted}"
        );
    }

    #[test]
    fn merge_is_union() {
        let a_keys: Vec<i64> = (0..1000).collect();
        let b_keys: Vec<i64> = (500..1500).collect();
        let mut a = filter_with(&a_keys, 1 << 15, 2);
        let b = filter_with(&b_keys, 1 << 15, 2);
        a.merge(&b).unwrap();
        for k in 0..1500 {
            assert!(a.may_contain(k));
        }
        assert_eq!(a.insertions(), 2000);
    }

    #[test]
    fn merge_rejects_mismatched_params() {
        let mut a = BloomFilter::new(BloomParams::new(128, 2).unwrap());
        let b = BloomFilter::new(BloomParams::new(256, 2).unwrap());
        assert!(a.merge(&b).is_err());
        let c = BloomFilter::new(BloomParams::new(128, 3).unwrap());
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn serialization_roundtrip_preserves_membership() {
        let keys: Vec<i64> = (0..2000).map(|i| i * 13).collect();
        let f = filter_with(&keys, 1 << 14, 2);
        let g = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(f.params(), g.params());
        for &k in &keys {
            assert!(g.may_contain(k));
        }
        assert_eq!(f.fill_ratio(), g.fill_ratio());
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(BloomFilter::from_bytes(&[]).is_err());
        assert!(BloomFilter::from_bytes(&[0u8; 9]).is_err());
        assert!(BloomFilter::from_bytes(&[0u8; 15]).is_err());
    }

    #[test]
    fn fill_ratio_and_estimated_fpr() {
        let f = BloomFilter::new(BloomParams::new(1024, 2).unwrap());
        assert_eq!(f.fill_ratio(), 0.0);
        assert_eq!(f.estimated_fpr(), 0.0);
        let mut f = f;
        for i in 0..200 {
            f.insert(i);
        }
        assert!(f.fill_ratio() > 0.0 && f.fill_ratio() < 1.0);
        assert!(f.estimated_fpr() <= f.fill_ratio());
    }

    #[test]
    fn empty_filter_contains_nothing_probable() {
        let f = BloomFilter::new(BloomParams::new(1 << 12, 2).unwrap());
        assert!((0..1000i64).all(|k| !f.may_contain(k)));
    }

    #[test]
    fn wire_bytes_matches_serialized_len() {
        let f = BloomFilter::new(BloomParams::new(1000, 2).unwrap());
        assert_eq!(f.wire_bytes(), f.to_bytes().len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The one-sided-error contract: an inserted key is *always* found,
        /// for every geometry.
        #[test]
        fn never_false_negative(
            keys in proptest::collection::vec(any::<i64>(), 1..200),
            bits_pow in 7usize..16,
            k in 1u32..8,
        ) {
            let mut f = BloomFilter::new(BloomParams::new(1 << bits_pow, k).unwrap());
            f.insert_all(&keys);
            for &key in &keys {
                prop_assert!(f.may_contain(key));
            }
        }

        /// Merging never loses membership: anything in either input is in
        /// the union.
        #[test]
        fn merge_superset(
            a in proptest::collection::vec(any::<i64>(), 0..100),
            b in proptest::collection::vec(any::<i64>(), 0..100),
        ) {
            let params = BloomParams::new(1 << 12, 3).unwrap();
            let mut fa = BloomFilter::new(params);
            fa.insert_all(&a);
            let mut fb = BloomFilter::new(params);
            fb.insert_all(&b);
            fa.merge(&fb).unwrap();
            for &k in a.iter().chain(&b) {
                prop_assert!(fa.may_contain(k));
            }
        }

        /// `merge` is *exactly* the filter of the union of the inserts —
        /// bit-identical, not merely a membership superset — across random
        /// geometries. This is what makes the paper's per-worker
        /// build-then-combine plan equivalent to a single global build.
        #[test]
        fn merge_equals_filter_of_union(
            a in proptest::collection::vec(any::<i64>(), 0..150),
            b in proptest::collection::vec(any::<i64>(), 0..150),
            bits_pow in 7usize..14,
            k in 1u32..6,
        ) {
            let params = BloomParams::new(1 << bits_pow, k).unwrap();
            let mut merged = BloomFilter::new(params);
            merged.insert_all(&a);
            let mut fb = BloomFilter::new(params);
            fb.insert_all(&b);
            merged.merge(&fb).unwrap();
            let mut union = BloomFilter::new(params);
            union.insert_all(&a);
            union.insert_all(&b);
            prop_assert_eq!(&merged, &union);
        }

        /// The observed false-positive rate stays within 2× of the
        /// analytic [`BloomParams::expected_fpr`] across random
        /// `(m, k, n)`. Ranges keep the expected rate above ~1% so 8192
        /// probes measure it; the band gets a small binomial-noise slack.
        #[test]
        fn observed_fpr_within_2x_of_expected(
            bits_pow in 8usize..13,
            bits_per_key in 2usize..9,
            k in 1u32..5,
            seed in any::<i64>(),
        ) {
            let params = BloomParams::new(1 << bits_pow, k).unwrap();
            let mut f = BloomFilter::new(params);
            let n = (f.num_bits() / bits_per_key).max(8);
            let inserted: std::collections::HashSet<i64> = (0..n)
                .map(|i| {
                    seed.wrapping_add(
                        (i as i64).wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64),
                    )
                })
                .collect();
            for &key in &inserted {
                f.insert(key);
            }
            let expected = f.params().expected_fpr(inserted.len());

            const PROBES: usize = 8192;
            let mut fp = 0usize;
            let mut probes = 0usize;
            let mut p: i64 = seed ^ 0x0005_DEEC_E66D;
            while probes < PROBES {
                p = p
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                if inserted.contains(&p) {
                    continue; // only true negatives measure the FPR
                }
                probes += 1;
                if f.may_contain(p) {
                    fp += 1;
                }
            }
            let observed = fp as f64 / probes as f64;
            let noise = 4.0 * (expected / probes as f64).sqrt();
            prop_assert!(
                observed <= 2.0 * expected + noise,
                "observed {observed:.4} > 2x expected {expected:.4} (m={}, k={k}, n={n})",
                1usize << bits_pow,
            );
            prop_assert!(
                observed >= 0.5 * expected - noise,
                "observed {observed:.4} < 0.5x expected {expected:.4} (m={}, k={k}, n={n})",
                1usize << bits_pow,
            );
        }

        /// Batched evaluation over a whole key vector (`member_sel`, the
        /// scan loop's selection-vector path) selects exactly the rows
        /// where per-row `may_contain` answers true — for arbitrary key
        /// sets, probes, and geometries.
        #[test]
        fn batched_membership_equals_per_row(
            keys in proptest::collection::vec(any::<i64>(), 0..150),
            probes in proptest::collection::vec(any::<i64>(), 0..200),
            bits_pow in 7usize..14,
            k in 1u32..6,
        ) {
            let mut f = BloomFilter::new(BloomParams::new(1 << bits_pow, k).unwrap());
            f.insert_all(&keys);
            let sel = crate::apply::member_sel(&probes, &f);
            let expected: Vec<u32> = probes
                .iter()
                .enumerate()
                .filter(|(_, &p)| f.may_contain(p))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(sel.as_slice(), expected.as_slice());
        }

        /// Wire roundtrip answers identically on arbitrary probes.
        #[test]
        fn roundtrip_equivalent(
            keys in proptest::collection::vec(any::<i64>(), 0..100),
            probes in proptest::collection::vec(any::<i64>(), 0..100),
        ) {
            let mut f = BloomFilter::new(BloomParams::new(1 << 10, 2).unwrap());
            f.insert_all(&keys);
            let g = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
            for &p in &probes {
                prop_assert_eq!(f.may_contain(p), g.may_contain(p));
            }
        }
    }
}
