//! Offline shim for the subset of the `rand` 0.8 API this workspace uses.
//!
//! The build environment has no access to crates.io, so this crate stands in for the real
//! `rand`. It provides [`rngs::StdRng`] (a xoshiro256++ generator), [`SeedableRng`] and the
//! [`Rng`] extension trait with `gen_range` / `gen` / `gen_bool`. Streams are fully
//! deterministic in the seed, which is all the workload generators require; the statistical
//! quality of xoshiro256++ is more than sufficient for synthetic trace generation.
//!
//! To switch back to the real crate, point the `rand` entry in the root
//! `[workspace.dependencies]` at crates.io.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::ops::Range;

/// A low-level source of random 64-bit values.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// A type that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Creates a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that [`Rng::gen_range`] can sample uniformly from a half-open range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Draws one value in `[low, high)` from `rng`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range");
                // The span of any integer type of at most 64 bits fits in a u64 (at most
                // 2^64 - 1), and the sign-extending casts make the wrapping difference
                // exact for signed types too.
                let span = (high as u64).wrapping_sub(low as u64);
                // Modulo reduction: the bias for spans far below 2^64 is negligible for
                // synthetic trace generation, and one native u64 division is cheaper
                // than rejection sampling or a 128-bit remainder.
                let draw = rng.next_u64() % span;
                low.wrapping_add(draw as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low < high, "gen_range: empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        low + unit * (high - low)
    }
}

impl SampleUniform for f32 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        f64::sample_range(rng, low as f64, high as f64) as f32
    }
}

/// User-facing convenience methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Returns a value uniformly distributed in the half-open `range`.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample_range(self, 0.0, 1.0) < p
    }

    /// Returns a random value of a supported primitive type.
    fn gen<T: Fill>(&mut self) -> T {
        T::fill(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types producible by [`Rng::gen`].
pub trait Fill {
    /// Draws one value from `rng`.
    fn fill<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Fill for u64 {
    fn fill<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Fill for u32 {
    fn fill<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Fill for bool {
    fn fill<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Fill for f64 {
    fn fill<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++ seeded via SplitMix64.
    ///
    /// Unlike the real `rand::rngs::StdRng` (ChaCha12), this generator is not
    /// cryptographically secure — it only needs to drive synthetic workload generation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            Self {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn streams_are_deterministic_in_the_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..64).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
            let u = rng.gen_range(0usize..5);
            assert!(u < 5);
        }
    }

    /// The reduction as first written, through a `u128` remainder.
    macro_rules! u128_reduction {
        ($t:ty, $draw:expr, $low:expr, $high:expr) => {{
            let span = ($high as u128).wrapping_sub($low as u128);
            $low.wrapping_add((($draw as u128) % span) as $t)
        }};
    }

    #[test]
    fn u64_reduction_matches_the_u128_reduction_for_every_integer_type() {
        macro_rules! check {
            ($($t:ty),*) => {$({
                let mut bounds = StdRng::seed_from_u64(5);
                let mut spans = vec![(<$t>::MIN, <$t>::MAX), (0, 1), (<$t>::MAX - 1, <$t>::MAX)];
                for _ in 0..2_000 {
                    let (a, b): ($t, $t) = (bounds.gen::<u64>() as $t, bounds.gen::<u64>() as $t);
                    if a != b {
                        spans.push((a.min(b), a.max(b)));
                    }
                }
                spans.push((<$t>::MIN, <$t>::MIN + 1));
                for (i, (low, high)) in spans.into_iter().enumerate() {
                    let mut rng = StdRng::seed_from_u64(i as u64);
                    let mut twin = rng.clone();
                    for _ in 0..16 {
                        let draw = twin.next_u64();
                        assert_eq!(
                            rng.gen_range(low..high),
                            u128_reduction!($t, draw, low, high),
                            "{}: {low}..{high}",
                            stringify!($t)
                        );
                    }
                }
            })*};
        }
        check!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
    }

    #[test]
    fn gen_range_covers_small_ranges() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all buckets should be hit: {seen:?}"
        );
    }
}
