//! Deterministic, splittable randomness.
//!
//! Every stochastic element of an experiment (workload keys, think times,
//! Gaussian client skew, …) draws from a [`DetRng`] derived from the
//! experiment seed, so re-running a configuration reproduces the exact
//! event trace and hardware counters.
//!
//! This module is the workspace's only random-number code: [`DetRng`]'s
//! xoshiro256++ stream, and the [`SplitMix64`] stream that seeds and
//! splits it, draws the cache models' eviction victims and hashes the
//! KV table's keys.

/// The golden-ratio increment of [`SplitMix64`], also `split`'s seed
/// multiplier.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: a counter stepped by the golden ratio, each step passed
/// through a 64-bit finalizer. The tuple field is the counter, so a
/// stream starts wherever its owner says and its state can be compared.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Steps the counter and returns its mixed value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A deterministic RNG stream.
///
/// xoshiro256++ (the algorithm behind `rand` 0.8's `SmallRng` on 64-bit
/// targets, seeded the same way) plus *stream splitting*: child streams
/// derived from `(parent seed, label)` are statistically independent yet
/// fully reproducible, so adding a consumer of randomness in one
/// component never perturbs the draws seen by another.
///
/// # Examples
///
/// ```
/// use simcore::DetRng;
///
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// let mut child = a.split(42);
/// let mut child2 = DetRng::new(7).split(42);
/// assert_eq!(child.next_u64(), child2.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct DetRng {
    seed: u64,
    s: [u64; 4],
}

impl DetRng {
    /// Creates a stream from a root seed.
    pub fn new(seed: u64) -> Self {
        // Eight SplitMix64 draws, the low 32 bits of each, two per word.
        let mut mix = SplitMix64(seed);
        let mut s = [0; 4];
        for w in &mut s {
            let lo = mix.next_u64() as u32 as u64;
            *w = lo | (mix.next_u64() as u32 as u64) << 32;
        }
        if s == [0; 4] {
            // All-zero is xoshiro's lone fixed point; nudge off it.
            s[0] = GOLDEN_GAMMA;
        }
        DetRng { seed, s }
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// The child depends only on this stream's *seed* and the label, not on
    /// how many values have been drawn, so split order is irrelevant.
    pub fn split(&self, label: u64) -> DetRng {
        let base = self.seed.wrapping_mul(GOLDEN_GAMMA).wrapping_add(label);
        DetRng::new(SplitMix64(base).next_u64())
    }

    /// Draws 64 uniform bits.
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

    /// Scales a draw into `[0, span)` by widening multiply (Lemire's
    /// reduction without the rejection step).
    fn scaled(&mut self, span: u64) -> u64 {
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Draws a uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        self.scaled(bound)
    }

    /// Draws a uniform value in the inclusive range `[lo, hi]`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "between({lo}, {hi}) is inverted");
        match (hi - lo).wrapping_add(1) {
            0 => self.next_u64(), // the whole u64 domain
            span => lo + self.scaled(span),
        }
    }

    /// Draws a uniform `f64` in `[0, 1)` from 53 random mantissa bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Draws from a standard normal via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        loop {
            let u1 = self.unit_f64();
            let u2 = self.unit_f64();
            if u1 > f64::MIN_POSITIVE {
                let r = (-2.0 * u1.ln()).sqrt();
                return r * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }

    /// Draws a normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        mean + sigma * self.std_normal()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn split_is_independent_of_draw_position() {
        let fresh = DetRng::new(9).split(5);
        let mut drained = DetRng::new(9);
        for _ in 0..100 {
            drained.next_u64();
        }
        let after = drained.split(5);
        assert_eq!(fresh.clone().next_u64(), after.clone().next_u64());
    }

    #[test]
    fn split_labels_produce_distinct_streams() {
        let root = DetRng::new(77);
        let x = root.split(0).next_u64();
        let y = root.split(1).next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn below_and_between_respect_bounds() {
        let mut r = DetRng::new(4);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.between(5, 8);
            assert!((5..=8).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = DetRng::new(99);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.3, "var={var}");
    }

    /// The exact seed-42 stream of every drawing method, captured while
    /// the generator ran through a vendored `rand` stand-in: whole-run
    /// goldens pin it only indirectly, this pins it locally.
    #[test]
    fn seed_42_stream_is_pinned() {
        let mut r = DetRng::new(42);
        let below: Vec<u64> = (0..4).map(|_| r.below(1000)).collect();
        assert_eq!(below, [23, 788, 30, 31]);
        let between: Vec<u64> = (0..4).map(|_| r.between(10, 20)).collect();
        assert_eq!(between, [15, 12, 13, 17]);
        assert_eq!(r.unit_f64().to_bits(), 0x3fe6_4e81_9e4c_c876);
        assert_eq!(r.unit_f64().to_bits(), 0x3fc3_7df5_745c_44ec);
        let chance: Vec<bool> = (0..6).map(|_| r.chance(0.5)).collect();
        assert_eq!(chance, [true, true, true, true, true, false]);
        assert_eq!(r.normal(10.0, 2.0).to_bits(), 0x4029_ef6d_31d5_0677);
        assert_eq!(r.normal(10.0, 2.0).to_bits(), 0x4017_772e_2ffe_41ba);
        let mut child = r.split(7);
        let split: Vec<u64> = (0..3).map(|_| child.below(1 << 40)).collect();
        assert_eq!(split, [717_146_060_276, 583_434_154_827, 242_230_069_220]);
    }

    /// The first outputs of SplitMix64 from state 0, as published with
    /// the reference implementation.
    #[test]
    fn splitmix64_matches_the_reference() {
        let mut m = SplitMix64(0);
        let got = [m.next_u64(), m.next_u64(), m.next_u64()];
        assert_eq!(
            got,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }
}
