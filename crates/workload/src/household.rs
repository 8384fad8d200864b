//! Time-varying household workloads.
//!
//! The paper's introduction motivates HANs with real household rhythms —
//! morning and evening demand peaks. This module generates requests from an
//! **inhomogeneous** Poisson process via thinning (Lewis & Shedler 1979),
//! with a configurable daily rate profile, for the richer example scenarios.

use han_device::appliance::DeviceId;
use han_device::request::Request;
use han_sim::rng::DetRng;
use han_sim::time::{SimDuration, SimTime};

/// A 24-hour arrival-rate profile, requests per hour per hour-of-day.
#[derive(Debug, Clone, PartialEq)]
pub struct DailyProfile {
    hourly_rate: [f64; 24],
}

impl DailyProfile {
    /// Creates a profile from 24 hourly rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or non-finite.
    pub(crate) fn new(hourly_rate: [f64; 24]) -> Self {
        assert!(
            hourly_rate.iter().all(|r| r.is_finite() && *r >= 0.0),
            "hourly rates must be finite and non-negative"
        );
        DailyProfile { hourly_rate }
    }

    /// A typical working household: quiet nights, a morning spike
    /// (06–09), midday base and a strong evening peak (18–22).
    pub fn typical_household() -> Self {
        let mut r = [2.0f64; 24];
        for rate in &mut r[0..5] {
            *rate = 0.5;
        }
        for rate in &mut r[6..9] {
            *rate = 12.0;
        }
        for rate in &mut r[12..14] {
            *rate = 6.0;
        }
        for rate in &mut r[18..22] {
            *rate = 20.0;
        }
        DailyProfile::new(r)
    }

    /// The rate at a given simulation instant (wraps daily).
    pub(crate) fn rate_at(&self, t: SimTime) -> f64 {
        let hour = (t.as_secs() / 3600) % 24;
        self.hourly_rate[hour as usize]
    }

    /// The maximum rate across the day (the thinning envelope).
    pub(crate) fn peak_rate(&self) -> f64 {
        self.hourly_rate.iter().fold(0.0f64, |a, &b| a.max(b))
    }
}

/// Generates requests over `duration` following `profile`, spread uniformly
/// over `device_count` devices. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `device_count` is zero.
pub(crate) fn generate_household(
    profile: &DailyProfile,
    device_count: usize,
    duration: SimDuration,
    seed: u64,
) -> Vec<Request> {
    assert!(device_count > 0, "need at least one device");
    let mut rng = DetRng::for_stream(seed, "household-arrivals");
    let mut out = Vec::new();
    let envelope = profile.peak_rate();
    if envelope == 0.0 {
        return out;
    }
    let env_per_sec = envelope / 3600.0;
    let horizon = duration.as_secs_f64();
    let mut t = 0.0f64;
    loop {
        // Candidate from the homogeneous envelope process...
        t += rng.gen_exponential(env_per_sec);
        if t >= horizon {
            break;
        }
        let at = SimTime::from_micros((t * 1e6).round() as u64);
        // ...thinned by the instantaneous rate ratio.
        if rng.gen_bool(profile.rate_at(at) / envelope) {
            let device = DeviceId(rng.gen_index(device_count) as u32);
            out.push(Request::new(device, at));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_lookup_wraps() {
        let p = DailyProfile::typical_household();
        assert_eq!(p.rate_at(SimTime::from_hours(19)), 20.0);
        assert_eq!(p.rate_at(SimTime::from_hours(19 + 24)), 20.0);
        assert_eq!(p.rate_at(SimTime::from_hours(2)), 0.5);
        assert_eq!(p.peak_rate(), 20.0);
    }

    #[test]
    fn evening_busier_than_night() {
        let p = DailyProfile::typical_household();
        let reqs = generate_household(&p, 26, SimDuration::from_hours(24 * 20), 3);
        let mut evening = 0usize;
        let mut night = 0usize;
        for r in &reqs {
            match (r.arrival.as_secs() / 3600) % 24 {
                18..=21 => evening += 1,
                0..=4 => night += 1,
                _ => {}
            }
        }
        assert!(evening > night * 10, "evening {evening} vs night {night}");
    }

    #[test]
    fn empirical_mean_rate_matches() {
        let p = DailyProfile::typical_household();
        let days = 40.0;
        let reqs = generate_household(&p, 26, SimDuration::from_hours(24 * 40), 9);
        let per_day = reqs.len() as f64 / days;
        let expected: f64 = p.hourly_rate.iter().sum();
        assert!(
            (per_day - expected).abs() < expected * 0.1,
            "per_day={per_day} expected={expected}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let p = DailyProfile::typical_household();
        let a = generate_household(&p, 5, SimDuration::from_hours(48), 1);
        let b = generate_household(&p, 5, SimDuration::from_hours(48), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_profile_generates_nothing() {
        let p = DailyProfile::new([0.0; 24]);
        assert!(generate_household(&p, 5, SimDuration::from_hours(48), 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        let mut r = [1.0; 24];
        r[3] = -1.0;
        DailyProfile::new(r);
    }
}
