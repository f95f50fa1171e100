//! Offline shim for the `proptest` API surface this workspace uses.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! a small property-testing engine under the same names: the [`proptest!`]
//! macro, [`prelude`], [`collection::vec`], integer-range / tuple / string
//! strategies, and `prop_map` / `prop_flat_map` combinators.
//!
//! Differences from the real crate, deliberately accepted:
//! * **no shrinking** — a failing case reports its inputs via the panic
//!   message of the inner assert, unminimized;
//! * **derandomized** — each test's RNG is seeded from its module path and
//!   name, so failures reproduce across runs;
//! * string strategies support exactly the subset of regex syntax the
//!   workspace uses: `.{lo,hi}` and `[c1-c2…]{lo,hi}` character classes.

/// Deterministic test RNG (xoshiro256** seeded via splitmix64).
pub mod test_runner {
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        pub fn seed_from_u64(seed: u64) -> TestRng {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            TestRng { s }
        }

        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform value below `bound` (rejection sampled, unbiased).
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
            loop {
                let v = self.next_u64();
                if v <= zone {
                    return v % bound;
                }
            }
        }
    }

    /// Seed a test's RNG from its fully qualified name (FNV-1a).
    pub fn rng_for(test_name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng::seed_from_u64(h)
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A generator of values (shim: no value tree, no shrinking).
    pub trait Strategy {
        type Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { base: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { base: self, f }
        }
    }

    /// `s.prop_map(f)`.
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.generate(rng))
        }
    }

    /// `s.prop_flat_map(f)`.
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (self.f)(self.base.generate(rng)).generate(rng)
        }
    }

    /// Integer types strategies can produce directly.
    pub trait ArbInt: Copy {
        fn from_bits(bits: u64) -> Self;
        fn edges() -> [Self; 5];
        fn range_sample(rng: &mut TestRng, lo: Self, hi_excl: Self) -> Self;
    }

    macro_rules! impl_arb_int {
        ($($t:ty => $wide:ty),+ $(,)?) => {$(
            impl ArbInt for $t {
                fn from_bits(bits: u64) -> Self {
                    bits as $t
                }
                fn edges() -> [Self; 5] {
                    [<$t>::MIN, <$t>::MAX, 0 as $t, (0 as $t).wrapping_sub(1), 1 as $t]
                }
                fn range_sample(rng: &mut TestRng, lo: Self, hi_excl: Self) -> Self {
                    assert!(lo < hi_excl, "strategy on empty range");
                    let span = (hi_excl as $wide).wrapping_sub(lo as $wide) as u64;
                    let off = rng.below(span);
                    ((lo as $wide).wrapping_add(off as $wide)) as $t
                }
            }
        )+};
    }

    impl_arb_int!(
        u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
        i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
    );

    /// `any::<T>()` — full-domain values with edge-case bias.
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    pub fn any<T: ArbInt>() -> Any<T> {
        Any {
            _marker: std::marker::PhantomData,
        }
    }

    impl<T: ArbInt> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            if rng.below(16) == 0 {
                let edges = T::edges();
                edges[rng.below(edges.len() as u64) as usize]
            } else {
                T::from_bits(rng.next_u64())
            }
        }
    }

    impl<T: ArbInt> Strategy for Range<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::range_sample(rng, self.start, self.end)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+)),+ $(,)?) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )+};
    }

    impl_tuple_strategy!((A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));

    /// How many elements a collection strategy produces.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_incl: usize,
    }

    impl SizeRange {
        pub fn pick(&self, rng: &mut TestRng) -> usize {
            self.lo + rng.below((self.hi_incl - self.lo + 1) as u64) as usize
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_incl: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi_incl: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi_incl: n }
        }
    }

    /// `Vec<T>` strategy; see [`crate::collection::vec`].
    pub struct VecStrategy<S> {
        pub(crate) element: S,
        pub(crate) size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// The supported pattern subset: `.` or one `[…]` class, then `{lo,hi}`.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (class, lo, hi) = parse_pattern(self);
            let n = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..n).map(|_| class.sample(rng)).collect()
        }
    }

    enum CharClass {
        /// `.` — printable chars incl. multibyte, exercising UTF-8 paths.
        AnyChar,
        /// `[a-b…]` — union of inclusive ranges.
        Ranges(Vec<(char, char)>),
    }

    impl CharClass {
        fn sample(&self, rng: &mut TestRng) -> char {
            match self {
                CharClass::AnyChar => {
                    // mostly ASCII, some multibyte: é (2B), ₪ (3B), 🦀 (4B)
                    const EXTRA: [char; 6] = ['é', 'ß', '中', '₪', '🦀', '\u{7f}'];
                    if rng.below(4) == 0 {
                        EXTRA[rng.below(EXTRA.len() as u64) as usize]
                    } else {
                        char::from(b' ' + rng.below(95) as u8)
                    }
                }
                CharClass::Ranges(ranges) => {
                    let total: u64 = ranges
                        .iter()
                        .map(|&(a, b)| (b as u64) - (a as u64) + 1)
                        .sum();
                    let mut idx = rng.below(total);
                    for &(a, b) in ranges {
                        let span = (b as u64) - (a as u64) + 1;
                        if idx < span {
                            return char::from_u32(a as u32 + idx as u32)
                                .expect("class range covers valid chars");
                        }
                        idx -= span;
                    }
                    unreachable!("index within total span")
                }
            }
        }
    }

    fn parse_pattern(pat: &str) -> (CharClass, usize, usize) {
        let bytes: Vec<char> = pat.chars().collect();
        let (class, rest) = if bytes.first() == Some(&'.') {
            (CharClass::AnyChar, &bytes[1..])
        } else if bytes.first() == Some(&'[') {
            let close = bytes
                .iter()
                .position(|&c| c == ']')
                .unwrap_or_else(|| panic!("unterminated char class in {pat:?}"));
            let inner = &bytes[1..close];
            let mut ranges = Vec::new();
            let mut i = 0;
            while i < inner.len() {
                if i + 2 < inner.len() && inner[i + 1] == '-' {
                    ranges.push((inner[i], inner[i + 2]));
                    i += 3;
                } else {
                    ranges.push((inner[i], inner[i]));
                    i += 1;
                }
            }
            (CharClass::Ranges(ranges), &bytes[close + 1..])
        } else {
            panic!("unsupported pattern {pat:?} (shim supports '.' and '[…]' only)");
        };
        let rest: String = rest.iter().collect();
        let (lo, hi) = if rest.is_empty() {
            (1, 1)
        } else {
            let inner = rest
                .strip_prefix('{')
                .and_then(|r| r.strip_suffix('}'))
                .unwrap_or_else(|| panic!("unsupported repetition in {pat:?}"));
            match inner.split_once(',') {
                Some((a, b)) => (
                    a.parse().expect("repeat lower bound"),
                    b.parse().expect("repeat upper bound"),
                ),
                None => {
                    let n = inner.parse().expect("repeat count");
                    (n, n)
                }
            }
        };
        (class, lo, hi)
    }
}

pub mod collection {
    use crate::strategy::{SizeRange, Strategy, VecStrategy};

    /// `proptest::collection::vec(element, sizes)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Per-test-suite configuration (shim: only `cases` is honored).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// `PROPTEST_CASES`, as real proptest reads it, overrides the default of 64
/// cases; an explicit [`ProptestConfig::with_cases`] stays as written.
impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig {
            cases: default_cases(std::env::var("PROPTEST_CASES").ok()),
        }
    }
}

/// The default case count given the `PROPTEST_CASES` value, if any; an
/// unparseable value falls back to 64.
fn default_cases(env: Option<String>) -> u32 {
    env.and_then(|v| v.trim().parse().ok()).unwrap_or(64)
}

/// Shim `prop_assert!`: plain `assert!` (panics carry the failing inputs'
/// Debug output only if the caller formats them in).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Shim `prop_assert_eq!`: plain `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Shim `prop_assert_ne!`: plain `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (
        ($cfg:expr)
        $($(#[$attr:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+
    ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::test_runner::rng_for(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for __case in 0..__cfg.cases {
                    let _ = __case;
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                    $body
                }
            }
        )+
    };
}

/// Shim `proptest!` block: runs each property over `cases` seeded random
/// inputs (no shrinking).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)+
    ) => {
        $crate::__proptest_fns! { ($cfg) $($rest)+ }
    };
    ($($rest:tt)+) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)+ }
    };
}

pub mod prelude {
    pub use crate::strategy::{any, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::rng_for;

    #[test]
    fn string_patterns_generate_expected_alphabets() {
        let mut rng = rng_for("string_patterns");
        for _ in 0..200 {
            let s = crate::strategy::Strategy::generate(&"[ -~]{0,20}", &mut rng);
            assert!(s.len() <= 20);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)), "{s:?}");
            let u = crate::strategy::Strategy::generate(&".{0,12}", &mut rng);
            assert!(u.chars().count() <= 12);
        }
    }

    #[test]
    fn vec_sizes_respect_bounds() {
        let mut rng = rng_for("vec_sizes");
        for _ in 0..100 {
            let v = crate::strategy::Strategy::generate(
                &crate::collection::vec(any::<i64>(), 1..200),
                &mut rng,
            );
            assert!((1..200).contains(&v.len()));
            let exact = crate::strategy::Strategy::generate(
                &crate::collection::vec(0i32..5, 7..=7),
                &mut rng,
            );
            assert_eq!(exact.len(), 7);
            assert!(exact.iter().all(|&x| (0..5).contains(&x)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_with_config_and_tuples(
            pairs in crate::collection::vec((0i64..10, -100i64..100), 0..80),
            split in 0usize..80,
        ) {
            prop_assert!(pairs.len() < 80);
            prop_assert!(split < 80);
            for (g, v) in &pairs {
                prop_assert!((0..10).contains(g));
                prop_assert!((-100..100).contains(v));
            }
        }
    }

    #[test]
    fn proptest_cases_env_sets_the_default_only() {
        assert_eq!(crate::default_cases(None), 64);
        assert_eq!(crate::default_cases(Some("2048".into())), 2048);
        assert_eq!(crate::default_cases(Some(" 7 ".into())), 7);
        assert_eq!(crate::default_cases(Some("many".into())), 64);
        assert_eq!(ProptestConfig::with_cases(16).cases, 16);
    }

    proptest! {
        /// Doc comments and flat-mapped strategies parse.
        #[test]
        fn macro_default_config(
            v in (0..40usize).prop_flat_map(|n| crate::collection::vec(any::<u64>(), n..=n)),
        ) {
            prop_assert!(v.len() < 40);
        }
    }
}
