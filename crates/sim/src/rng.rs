//! Deterministic random-number generation.
//!
//! Simulation results must be reproducible bit-for-bit from a single `u64`
//! seed, independent of the `rand` crate's internal algorithm choices. We
//! therefore implement **xoshiro256++** (public domain, Blackman & Vigna)
//! seeded through **SplitMix64** directly in this crate, and expose it as
//! [`DetRng`].
//!
//! Components of a simulation should each draw from their own *stream* via
//! [`DetRng::for_stream`], so that adding draws in one component never
//! perturbs another (the "RNG creep" problem in simulation studies).
//!
//! # Examples
//!
//! ```
//! use han_sim::rng::DetRng;
//!
//! let mut a = DetRng::for_stream(42, "arrivals");
//! let mut b = DetRng::for_stream(42, "arrivals");
//! assert_eq!(a.gen_range_u64(1 << 32), b.gen_range_u64(1 << 32));
//!
//! let mut c = DetRng::for_stream(42, "channel");
//! // Different stream, (almost surely) different values.
//! let _ = c.gen_range_u64(1 << 32);
//! ```

/// Derives a stable per-entity seed from a master seed and an entity id
/// via one SplitMix64 step.
///
/// This is the seed-derivation function multi-home layers use: positional
/// derivation (`seed + i`) makes home *i* of a seed-`s` run draw the exact
/// workload of home *i−1* of a seed-`s+1` run (adjacent master seeds
/// collide stream for stream), and inserting a home reshuffles every
/// downstream stream. Mixing the id through SplitMix64 decorrelates
/// adjacent master seeds and ties each entity's stream to its *identity*,
/// not its position in a list.
///
/// # Examples
///
/// ```
/// use han_sim::rng::mix_seed;
///
/// // Stable: the same (seed, id) always derives the same stream seed.
/// assert_eq!(mix_seed(42, 7), mix_seed(42, 7));
/// // Decorrelated: adjacent master seeds do not slide into each other.
/// assert_ne!(mix_seed(10, 1), mix_seed(11, 0));
/// ```
pub fn mix_seed(seed: u64, id: u64) -> u64 {
    let mut s = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// SplitMix64 step; used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
///
/// Implements enough of a uniform-random interface for all simulation needs
/// (integers, floats, ranges, Bernoulli, exponential and normal variates)
/// without depending on any external crate's reproducibility guarantees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Creates a generator for a named sub-stream of `seed`.
    ///
    /// The stream name is hashed (FNV-1a) into the seed so that independent
    /// components of a simulation draw from independent sequences.
    pub fn for_stream(seed: u64, stream: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        DetRng::new(seed ^ h)
    }

    /// Creates a generator for a numbered sub-stream (e.g. per node id).
    pub fn for_substream(seed: u64, stream: &str, index: u64) -> Self {
        let mut base = DetRng::for_stream(seed, stream);
        // Mix the index through the already-seeded state.
        let mut sm = base.next_u64() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Returns the next 64 uniform random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
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

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` using Lemire rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Debiased multiply-shift (Lemire 2019).
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let low = m as u64;
            if low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range_u64(bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Samples an exponential variate with the given rate parameter λ.
    ///
    /// Used for Poisson-process inter-arrival times.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn gen_exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        // Inverse CDF; 1 - U avoids ln(0).
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// Samples a standard normal variate (Box–Muller, polar form).
    pub(crate) fn gen_standard_normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Samples a normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn gen_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.gen_standard_normal()
    }

    /// The raw xoshiro256++ state, for checkpoint/restore of a running
    /// simulation. Together with [`DetRng::from_state`] this round-trips
    /// the generator exactly: the restored generator produces the same
    /// sequence the original would have continued with.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a state captured by [`DetRng::state`].
    pub fn from_state(s: [u64; 4]) -> Self {
        DetRng { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = DetRng::for_stream(7, "x");
        let mut b = DetRng::for_stream(7, "y");
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_diverge() {
        let mut a = DetRng::for_substream(7, "node", 0);
        let mut b = DetRng::for_substream(7, "node", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::new(1);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_u64_within_bound() {
        let mut rng = DetRng::new(2);
        for _ in 0..10_000 {
            assert!(rng.gen_range_u64(13) < 13);
        }
    }

    #[test]
    fn range_u64_covers_all_values() {
        let mut rng = DetRng::new(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.gen_range_u64(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut rng = DetRng::new(4);
        let rate = 0.5;
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| rng.gen_exponential(rate)).sum();
        let mean = sum / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = DetRng::new(5);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn bool_probability() {
        let mut rng = DetRng::new(6);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "p={p}");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        DetRng::new(1).gen_range_u64(0);
    }

    #[test]
    fn state_round_trip_continues_sequence() {
        let mut rng = DetRng::new(11);
        for _ in 0..17 {
            rng.next_u64();
        }
        let mut restored = DetRng::from_state(rng.state());
        for _ in 0..100 {
            assert_eq!(restored.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn mix_seed_is_stable_and_decorrelated() {
        // Stability: pure function of (seed, id).
        assert_eq!(mix_seed(0, 0), mix_seed(0, 0));
        // Positional derivation's collision (seed+i): adjacent master
        // seeds must NOT slide into each other under mix_seed.
        for seed in 0..64u64 {
            for id in 0..8u64 {
                assert_ne!(
                    mix_seed(seed, id + 1),
                    mix_seed(seed + 1, id),
                    "seed {seed} id {id}: mixed derivation collided positionally"
                );
            }
        }
        // Locked vector so refactors cannot silently reseed every city.
        assert_eq!(mix_seed(0, 0), 16294208416658607535);
        assert_eq!(mix_seed(42, 7), mix_seed(42, 7));
    }

    #[test]
    fn known_vector_stability() {
        // Locks the generator output so refactors cannot silently change
        // every experiment in the repository.
        let mut rng = DetRng::new(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180,
                211316841551650330
            ]
        );
    }
}
