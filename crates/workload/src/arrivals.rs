//! Request arrival processes.
//!
//! The paper evaluates with user requests "randomly arriving" at an
//! aggregate rate of 4, 18 or 30 requests per hour across the 26 devices.
//! [`PoissonArrivals`] is the standard model for that: exponential
//! inter-arrival times for the aggregate process, with each request
//! assigned to a uniformly random device. Deterministic in the seed.

use han_device::appliance::DeviceId;
use han_device::request::Request;
use han_sim::rng::DetRng;
use han_sim::time::{SimDuration, SimTime};

/// A homogeneous Poisson request generator.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonArrivals {
    /// Aggregate arrival rate, requests per hour.
    pub rate_per_hour: f64,
    /// Number of devices requests are spread over.
    pub device_count: usize,
    /// Windows requested per arrival (the paper: 1).
    pub windows_per_request: u32,
}

impl PoissonArrivals {
    /// Creates a generator with one window per request.
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative/non-finite or `device_count` is zero.
    pub fn new(rate_per_hour: f64, device_count: usize) -> Self {
        assert!(
            rate_per_hour.is_finite() && rate_per_hour >= 0.0,
            "rate must be finite and non-negative"
        );
        assert!(device_count > 0, "need at least one device");
        PoissonArrivals {
            rate_per_hour,
            device_count,
            windows_per_request: 1,
        }
    }

    /// Generates all requests in `[0, duration)`, sorted by arrival time.
    pub fn generate(&self, duration: SimDuration, seed: u64) -> Vec<Request> {
        let mut rng = DetRng::for_stream(seed, "arrivals");
        let mut out = Vec::new();
        if self.rate_per_hour == 0.0 {
            return out;
        }
        let rate_per_sec = self.rate_per_hour / 3600.0;
        let mut t = 0.0f64;
        let horizon = duration.as_secs_f64();
        loop {
            t += rng.gen_exponential(rate_per_sec);
            if t >= horizon {
                break;
            }
            let device = DeviceId(rng.gen_index(self.device_count) as u32);
            let arrival = SimTime::from_micros((t * 1e6).round() as u64);
            out.push(Request::with_windows(
                device,
                arrival,
                self.windows_per_request,
            ));
        }
        out
    }
}

/// A synchronized burst: `count` devices all requested at the same instant —
/// the worst case for load stacking that coordination must absorb.
///
/// Devices `0..count` are used in order.
///
/// # Panics
///
/// Panics if `count` is zero.
pub fn burst(at: SimTime, count: usize) -> Vec<Request> {
    assert!(count > 0, "burst must contain at least one request");
    (0..count)
        .map(|i| Request::new(DeviceId(i as u32), at))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_rate_close_to_nominal() {
        let gen = PoissonArrivals::new(30.0, 26);
        let reqs = gen.generate(SimDuration::from_hours(200), 1);
        let rate = reqs.len() as f64 / 200.0;
        assert!((rate - 30.0).abs() < 1.0, "empirical rate {rate}");
    }

    #[test]
    fn deterministic_in_seed() {
        let gen = PoissonArrivals::new(18.0, 26);
        let a = gen.generate(SimDuration::from_hours(5), 7);
        let b = gen.generate(SimDuration::from_hours(5), 7);
        assert_eq!(a, b);
        let c = gen.generate(SimDuration::from_hours(5), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn sorted_and_within_horizon() {
        let gen = PoissonArrivals::new(30.0, 26);
        let reqs = gen.generate(SimDuration::from_mins(350), 3);
        let horizon = SimTime::from_mins(350);
        for w in reqs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        assert!(reqs.iter().all(|r| r.arrival < horizon));
        assert!(reqs.iter().all(|r| r.device.index() < 26));
    }

    #[test]
    fn devices_roughly_uniform() {
        let gen = PoissonArrivals::new(60.0, 4);
        let reqs = gen.generate(SimDuration::from_hours(100), 5);
        let mut counts = [0usize; 4];
        for r in &reqs {
            counts[r.device.index()] += 1;
        }
        let total: usize = counts.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let share = c as f64 / total as f64;
            assert!((share - 0.25).abs() < 0.03, "device {i} share {share}");
        }
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let gen = PoissonArrivals::new(0.0, 26);
        assert!(gen.generate(SimDuration::from_hours(10), 1).is_empty());
    }

    #[test]
    fn burst_is_simultaneous() {
        let reqs = burst(SimTime::from_mins(1), 5);
        assert_eq!(reqs.len(), 5);
        assert!(reqs.iter().all(|r| r.arrival == SimTime::from_mins(1)));
        let devices: Vec<u32> = reqs.iter().map(|r| r.device.0).collect();
        assert_eq!(devices, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_panics() {
        PoissonArrivals::new(1.0, 0);
    }
}
