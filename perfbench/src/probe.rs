//! Host speed: a fixed, benchmark-owned CPU workload interleaved with
//! the tiers, so a run knows how fast the host itself was at every
//! moment it measured.
//!
//! The throughputs count CPU time, which leaves out steal, but a
//! neighbour's load still slows a CPU second (shared caches, memory
//! bandwidth, clock speed): here one fixed pass ran 10% fewer rounds
//! per CPU second in some minutes than in others. The throughput
//! metrics therefore scale each timed sample by the host's speed around
//! it: `rate × REFERENCE_RATE / probe rate`, the probe rate (calls per
//! CPU second) being the median of the probe samples within
//! [`WINDOW_S`] of the sample. On a host of constant speed this is a
//! constant factor; on a drifting one it cancels most of the drift. The
//! unscaled rates are printed next to the scaled ones.

use crate::sink::SpanLog;
use crate::stats::{clock, cpu_timed, derive, median, thread_cpu_s};
use crate::{Report, Unit};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Probe calls per CPU second on the reference host: the rate at which
/// scaled and unscaled throughputs coincide.
pub const REFERENCE_RATE: f64 = 1000.0;
/// Half-width of the window of probe samples that scales a sample, s.
pub const WINDOW_S: f64 = 2.0;
/// Keys per probe call.
const KEYS: usize = 20_000;
/// Probe calls per sample (~8 ms).
const CALLS: usize = 8;

/// Probe working memory, allocated once, so the probe's speed does not
/// depend on the state of the heap the tiers leave behind.
struct Scratch {
    map: HashMap<u64, f64>,
    keys: Vec<u64>,
}

/// One probe call: hashing, map updates, a sort and float math over a
/// working set of a few hundred kB — the mix the round loop runs.
fn work(s: &mut Scratch) -> u64 {
    s.map.clear();
    s.keys.clear();
    s.keys.extend((0..KEYS as u64).map(|i| derive(7, 9, i)));
    let mut acc = 0.0f64;
    for (i, k) in s.keys.iter().enumerate() {
        let e = s.map.entry(k % 4096).or_insert(0.0);
        *e += (i as f64).sqrt();
        acc += *e * 1e-9;
    }
    s.keys.sort_unstable();
    acc as u64 ^ s.keys[KEYS / 2]
}

/// Probe samples `(time, calls per CPU second)` of one run.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<(f64, f64)>,
}

impl HostSpeed {
    /// The run's median probe rate, calls per CPU second.
    pub fn median(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// `rate`, measured at `time`, scaled to the reference host speed.
    pub fn scale(&self, time: f64, rate: f64) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| (t - time).abs() <= WINDOW_S)
            .map(|s| s.1)
            .collect();
        let local = if near.is_empty() {
            self.median()
        } else {
            median(&near)
        };
        rate * REFERENCE_RATE / local
    }

    /// The median of `samples` `(time, rate)` scaled to the reference
    /// host speed.
    pub fn scaled_median(&self, samples: &[(f64, f64)]) -> f64 {
        median(
            &samples
                .iter()
                .map(|&(t, r)| self.scale(t, r))
                .collect::<Vec<_>>(),
        )
    }
}

/// The probe unit; its samples land in the shared [`HostSpeed`].
pub struct Probe {
    scratch: Scratch,
    speed: Rc<RefCell<HostSpeed>>,
}

impl Probe {
    pub fn new(speed: Rc<RefCell<HostSpeed>>) -> Probe {
        Probe {
            scratch: Scratch {
                map: HashMap::with_capacity(4096),
                keys: Vec::with_capacity(KEYS),
            },
            speed,
        }
    }
}

impl Unit for Probe {
    fn step(&mut self, _: bool, _: &mut Report, _: &mut SpanLog) -> Result<(), String> {
        let start = clock();
        let (out, cpu_s) = cpu_timed(thread_cpu_s, || {
            (0..CALLS)
                .map(|_| std::hint::black_box(work(&mut self.scratch)))
                .fold(0, u64::wrapping_add)
        })?;
        std::hint::black_box(out);
        let time = (start + clock()) / 2.0;
        self.speed
            .borrow_mut()
            .samples
            .push((time, CALLS as f64 / cpu_s));
        Ok(())
    }

    fn satisfied(&self, _: bool) -> bool {
        self.speed.borrow().samples.len() >= 3
    }

    fn finish(
        self: Box<Self>,
        _: bool,
        _: &HostSpeed,
        _: &mut Report,
        _: &mut SpanLog,
    ) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_local_probe_rate() {
        let speed = HostSpeed {
            samples: vec![(0.0, 500.0), (1.0, 500.0), (10.0, 2000.0), (11.0, 2000.0)],
        };
        assert_eq!(speed.scale(0.5, 100.0), 200.0);
        assert_eq!(speed.scale(10.5, 100.0), 50.0);
        // No probe sample within the window: the run median applies.
        assert_eq!(speed.scale(5.0, 125.0), 100.0);
        assert_eq!(speed.scaled_median(&[(0.5, 100.0), (10.5, 400.0)]), 200.0);
    }
}
