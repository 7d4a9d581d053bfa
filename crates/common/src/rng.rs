//! First-party pseudo-random number generation.
//!
//! The workspace builds hermetically — no external crates — so the
//! `rand` surface the generators need is implemented here from scratch:
//!
//! * [`SplitMix64`] — the 64-bit seeding/stream generator (Steele et al.,
//!   "Fast splittable pseudorandom number generators"). Used to expand a
//!   single `u64` seed into the xoshiro state, and wherever a tiny,
//!   allocation-free stream is enough.
//! * [`Rng`] — xoshiro256++ (Blackman & Vigna), the workhorse generator:
//!   64-bit output, 256-bit state, passes BigCrush, and is trivially
//!   reproducible from a seed. All dataset generation is bit-for-bit
//!   deterministic given the seed.
//! * [`Bernoulli`] — a pre-computed biased coin.
//!
//! The sampling surface mirrors the subset of `rand` the workspace used:
//! `gen_range` over integer/float ranges, `gen_bool`, `gen_f64`, and
//! `shuffle`.

/// The SplitMix64 generator: one `u64` of state, one output per step.
///
/// Primarily used to derive independent, well-mixed seeds (its output
/// function is a strong bit mixer, so even seeds `0, 1, 2, …` yield
/// uncorrelated streams).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The xoshiro256++ generator — the workspace's general-purpose PRNG.
///
/// Seeded via [`Rng::seed_from_u64`], which expands the seed through
/// [`SplitMix64`] exactly as the reference implementation recommends, so
/// streams for nearby seeds are independent.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Rng { s }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Biased coin: `true` with probability `p`. Panics unless `0 ≤ p ≤ 1`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.gen_f64() < p
    }

    /// Uniform `u64` in `[0, bound)` via Lemire's widening-multiply method
    /// with rejection, so the result is exactly uniform.
    #[inline]
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform sample from `range` (integer `Range`/`RangeInclusive`, or an
    /// `f64` half-open `Range`).
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// A range that [`Rng::gen_range`] can sample uniformly.
pub trait SampleRange<T> {
    /// Draws one uniform sample from `self`.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.gen_below(span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                // Span 0 means the full 64-bit domain (e.g. 0..=u64::MAX).
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.gen_below(span) as i128) as $t
            }
        }
    )*};
}

impl_int_sample_range!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

/// A pre-validated biased coin, for hot loops sampling the same `p`.
#[derive(Clone, Copy, Debug)]
pub struct Bernoulli {
    /// `p` scaled into the 64-bit integer domain: compare one raw draw.
    threshold: u64,
}

impl Bernoulli {
    /// Creates a coin that lands `true` with probability `p`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        let threshold = if p >= 1.0 {
            u64::MAX
        } else {
            (p * (u64::MAX as f64)) as u64
        };
        Bernoulli { threshold }
    }

    /// Flips the coin.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> bool {
        rng.next_u64() < self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vectors() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
        assert_eq!(sm.next_u64(), 9817491932198370423);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seeds_decorrelate() {
        let a: Vec<u64> = {
            let mut r = Rng::seed_from_u64(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed_from_u64(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng::seed_from_u64(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = Rng::seed_from_u64(42);
        for _ in 0..1000 {
            let x = r.gen_range(-5i64..17);
            assert!((-5..17).contains(&x));
            let y = r.gen_range(2..=6);
            assert!((2..=6).contains(&y));
            let z = r.gen_range(0.2..0.6);
            assert!((0.2..0.6).contains(&z));
            let w = r.gen_range(0usize..3);
            assert!(w < 3);
        }
    }

    #[test]
    fn gen_range_covers_every_value_of_a_small_range() {
        let mut r = Rng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn full_domain_inclusive_range_works() {
        let mut r = Rng::seed_from_u64(3);
        // Must not panic or divide by a zero span.
        let _: u64 = r.gen_range(0..=u64::MAX);
        let _: i64 = r.gen_range(i64::MIN..=i64::MAX);
    }

    #[test]
    fn gen_f64_in_unit_interval_and_not_constant() {
        let mut r = Rng::seed_from_u64(1);
        let xs: Vec<f64> = (0..100).map(|_| r.gen_f64()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        assert!(xs.iter().any(|&x| x != xs[0]));
    }

    #[test]
    fn gen_bool_frequency_tracks_p() {
        let mut r = Rng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn bernoulli_matches_gen_bool_semantics() {
        let mut r = Rng::seed_from_u64(11);
        let coin = Bernoulli::new(0.7);
        let hits = (0..10_000).filter(|_| coin.sample(&mut r)).count();
        assert!((6_700..7_300).contains(&hits), "got {hits}");
        assert!(!Bernoulli::new(0.0).sample(&mut r));
        assert!(Bernoulli::new(1.0).sample(&mut r));
    }

    #[test]
    fn shuffle_permutes_without_losing_elements() {
        let mut r = Rng::seed_from_u64(13);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<u32>>(), "shuffle moved nothing");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffle_is_seed_deterministic() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::seed_from_u64(99).shuffle(&mut a);
        Rng::seed_from_u64(99).shuffle(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn gen_below_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(21);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.gen_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }
}
