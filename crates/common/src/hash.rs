//! Hashing utilities.
//!
//! Three distinct hash roles appear in the paper, plus one of this
//! implementation's, and they must be kept separate so that correlated
//! hashes do not bias one another:
//!
//! 1. the **agreed shuffle hash** shared by the database and JEN to route
//!    tuples to the JEN worker that owns a join-key partition (§3.3, §4.3);
//! 2. the **database partitioning hash** used by the EDW to distribute table
//!    rows across DB workers (the paper notes the DB's internal function is
//!    *not* exposed to the HDFS side — we keep it a different function);
//! 3. the **Bloom filter hash family**, which derives `k` independent hashes
//!    from two base hashes (Kirsch–Mitzenmacher double hashing);
//! 4. the **join-table hash** that places a key in a local hash join's
//!    open-addressing index. Every key a JEN worker holds was routed there
//!    by role 1, so reusing role 1 would crowd those keys into correlated
//!    buckets; an independent seed spreads them.
//!
//! All functions are deterministic across runs and platforms so that the
//! experiment harness is reproducible.

/// 64-bit finalizer from SplitMix64 — excellent avalanche, cheap, stable.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash a join key with a seed (used to derive independent families).
#[inline]
pub fn hash_key_seeded(key: i64, seed: u64) -> u64 {
    splitmix64((key as u64) ^ seed.rotate_left(17))
}

/// The *agreed hash function* (role 1).
///
/// Both the EDW workers and the JEN workers call exactly this function when
/// deciding which JEN worker receives a tuple for the repartition-based and
/// zigzag joins; the tests in `hybrid-core` rely on DB-shipped and
/// HDFS-shuffled partitions landing on the same worker.
#[inline]
pub fn agreed_shuffle_partition(key: i64, num_workers: usize) -> usize {
    debug_assert!(num_workers > 0);
    (hash_key_seeded(key, 0xA9A9_EED0_0C0F_FEE5) % num_workers as u64) as usize
}

/// The database's internal partitioning hash (role 2) — deliberately a
/// different function from [`agreed_shuffle_partition`], since the paper's
/// DB2 hash is opaque to JEN.
#[inline]
pub fn db_partition(key: i64, num_workers: usize) -> usize {
    debug_assert!(num_workers > 0);
    (hash_key_seeded(key, 0xD82C_07CD_0000_DB2D) % num_workers as u64) as usize
}

/// Base hash pair for Bloom filters (role 3).
///
/// Returns `(h1, h2)`; the i-th Bloom hash is `h1 + i*h2` (Kirsch &
/// Mitzenmacher), giving `k` well-distributed probes from two evaluations.
#[inline]
pub fn bloom_base_hashes(key: i64) -> (u64, u64) {
    let h1 = hash_key_seeded(key, 0xB10F_0000_0000_0001);
    // Derive h2 from h1 so a single splitmix chain feeds both.
    let h2 = splitmix64(h1 ^ 0xB10F_0000_0000_0002) | 1; // odd => full period
    (h1, h2)
}

/// The join-table hash (role 4): the bucket hash of a local hash join's
/// key index, independent of the routing hash that put the key on this
/// worker.
#[inline]
pub fn join_table_hash(key: i64) -> u64 {
    hash_key_seeded(key, 0x701A_7AB1_E000_5EED)
}

/// Hash arbitrary bytes (group-by over strings).
#[inline]
pub fn hash_bytes(bytes: &[u8], seed: u64) -> u64 {
    // FNV-1a core with a splitmix finalizer: short strings dominate here.
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ splitmix64(seed);
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    splitmix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn splitmix_is_stable() {
        // Pinned values: the whole harness depends on cross-run determinism.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn partitions_in_range_and_spread() {
        let n = 30;
        let mut counts = vec![0usize; n];
        for k in 0..30_000i64 {
            let p = agreed_shuffle_partition(k, n);
            assert!(p < n);
            counts[p] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        // uniform-ish: each bucket within 20% of the mean of 1000
        assert!(*min > 800 && *max < 1200, "min={min} max={max}");
    }

    #[test]
    fn agreed_and_db_hashes_differ() {
        // If these collided for most keys, the DB-side join's "may need to be
        // shuffled again" property (paper §3.1) would silently disappear.
        let n = 16;
        let same = (0..10_000i64)
            .filter(|&k| agreed_shuffle_partition(k, n) == db_partition(k, n))
            .count();
        // Expect ~1/16 agreement by chance; assert well below half.
        assert!(same < 1500, "agreed/db hashes too correlated: {same}");
    }

    #[test]
    fn join_table_hash_is_independent_of_routing() {
        // keys that all route to worker 0 of 16 must still spread over
        // the low bits a join table masks its buckets with
        let mut buckets = HashSet::new();
        for k in (0..100_000i64).filter(|&k| agreed_shuffle_partition(k, 16) == 0) {
            buckets.insert(join_table_hash(k) & 15);
        }
        assert_eq!(buckets.len(), 16);
    }

    #[test]
    fn bloom_base_hashes_h2_is_odd() {
        for k in [-5i64, 0, 1, 99999] {
            let (_, h2) = bloom_base_hashes(k);
            assert_eq!(h2 & 1, 1);
        }
    }

    #[test]
    fn bloom_base_hashes_distinct_across_keys() {
        let mut seen = HashSet::new();
        for k in 0..10_000i64 {
            assert!(seen.insert(bloom_base_hashes(k)));
        }
    }

    #[test]
    fn hash_bytes_varies_with_seed_and_content() {
        assert_ne!(hash_bytes(b"abc", 0), hash_bytes(b"abd", 0));
        assert_ne!(hash_bytes(b"abc", 0), hash_bytes(b"abc", 1));
        assert_eq!(hash_bytes(b"", 7), hash_bytes(b"", 7));
    }
}
