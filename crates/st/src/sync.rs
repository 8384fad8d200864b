//! Time-synchronization analysis: crystal drift vs. the sync beacon.
//!
//! Every MiniCast round starts with a sync-beacon flood (phase 0). A node
//! that receives it re-aligns its round clock; a node that misses it free-
//! runs on its crystal, whose frequency error (±10–40 ppm for the TelosB's
//! watch crystal) makes its *round boundary* estimate drift. Relays inside
//! a flood stay sub-microsecond aligned regardless (they time off packet
//! reception — that is Glossy's trick), so drift does not break
//! constructive interference; what it erodes is the guard margin at the
//! *start* of each round for nodes with long sync outages.
//!
//! [`SyncTracker`] consumes the per-round `synced` vector from
//! [`crate::minicast::RoundReport`] and answers: how stale is each node's
//! alignment, what is its worst-case boundary error, and does any node
//! exceed the slot guard?

use han_sim::rng::DetRng;
use han_sim::time::SimDuration;

/// Per-node crystal model plus sync bookkeeping.
#[derive(Debug, Clone)]
pub struct SyncTracker {
    /// Signed crystal frequency error per node, in parts per million.
    drift_ppm: Vec<f64>,
    /// Rounds since each node last received a sync beacon.
    rounds_since_sync: Vec<u32>,
    round_period: SimDuration,
}

impl SyncTracker {
    /// Creates a tracker for `n` nodes with crystal errors drawn
    /// deterministically from `seed`, normal with the given std-dev (TelosB
    /// class: σ ≈ 20 ppm).
    pub fn new(n: usize, sigma_ppm: f64, round_period: SimDuration, seed: u64) -> Self {
        assert!(sigma_ppm >= 0.0, "sigma must be non-negative");
        let mut rng = DetRng::for_stream(seed, "crystal-drift");
        SyncTracker {
            drift_ppm: (0..n).map(|_| rng.gen_normal(0.0, sigma_ppm)).collect(),
            rounds_since_sync: vec![0; n],
            round_period,
        }
    }

    /// Number of tracked nodes.
    pub(crate) fn len(&self) -> usize {
        self.drift_ppm.len()
    }

    /// Records one round's sync outcome (`synced[i]` = node `i` received
    /// the beacon).
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the node count.
    pub fn record_round(&mut self, synced: &[bool]) {
        assert_eq!(synced.len(), self.len(), "one sync flag per node");
        for (count, &ok) in self.rounds_since_sync.iter_mut().zip(synced) {
            *count = if ok { 0 } else { count.saturating_add(1) };
        }
    }

    /// Worst-case round-boundary error of a node: `|drift| × outage time`.
    pub(crate) fn boundary_error(&self, node: usize) -> SimDuration {
        let outage_s = self.round_period.as_secs_f64() * f64::from(self.rounds_since_sync[node]);
        let err_s = self.drift_ppm[node].abs() * 1e-6 * outage_s;
        SimDuration::from_secs_f64(err_s)
    }

    /// The largest boundary error across all nodes.
    pub fn worst_boundary_error(&self) -> SimDuration {
        (0..self.len())
            .map(|i| self.boundary_error(i))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The full staleness vector (rounds since each node's last beacon),
    /// for checkpointing a running simulation. The crystal drifts are
    /// *not* part of the snapshot — they are redrawn deterministically
    /// from the seed on reconstruction.
    pub fn staleness_snapshot(&self) -> &[u32] {
        &self.rounds_since_sync
    }

    /// Restores a staleness vector captured by
    /// [`SyncTracker::staleness_snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the node count.
    pub fn restore_staleness(&mut self, rounds_since_sync: &[u32]) {
        assert_eq!(
            rounds_since_sync.len(),
            self.len(),
            "one staleness counter per node"
        );
        self.rounds_since_sync.copy_from_slice(rounds_since_sync);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(n: usize) -> SyncTracker {
        SyncTracker::new(n, 20.0, SimDuration::from_secs(2), 7)
    }

    #[test]
    fn drift_is_deterministic_and_spread() {
        let a = tracker(10);
        let b = tracker(10);
        for i in 0..10 {
            assert_eq!(a.drift_ppm[i], b.drift_ppm[i]);
        }
        let distinct = (1..10)
            .filter(|&i| a.drift_ppm[i] != a.drift_ppm[0])
            .count();
        assert!(distinct > 0, "crystals should differ");
    }

    #[test]
    fn synced_nodes_have_zero_error() {
        let mut t = tracker(3);
        t.record_round(&[true, true, true]);
        for i in 0..3 {
            assert_eq!(t.rounds_since_sync[i], 0);
            assert_eq!(t.boundary_error(i), SimDuration::ZERO);
        }
    }

    #[test]
    fn outage_accumulates_error_linearly() {
        let mut t = tracker(2);
        for _ in 0..10 {
            t.record_round(&[true, false]);
        }
        assert_eq!(t.rounds_since_sync[0], 0);
        assert_eq!(t.rounds_since_sync[1], 10);
        let e5 = {
            let mut t2 = tracker(2);
            for _ in 0..5 {
                t2.record_round(&[true, false]);
            }
            t2.boundary_error(1)
        };
        let e10 = t.boundary_error(1);
        // Linear up to the 1 µs quantization of SimDuration.
        let diff = e10.as_micros() as i64 - (e5.as_micros() * 2) as i64;
        assert!(diff.abs() <= 1, "error must be linear, off by {diff} us");
        assert_eq!(t.worst_boundary_error(), e10);
    }

    #[test]
    fn resync_resets_error() {
        let mut t = tracker(1);
        for _ in 0..20 {
            t.record_round(&[false]);
        }
        assert!(t.boundary_error(0) > SimDuration::ZERO);
        t.record_round(&[true]);
        assert_eq!(t.boundary_error(0), SimDuration::ZERO);
    }

    #[test]
    fn staleness_snapshot_round_trips() {
        let mut t = tracker(3);
        for _ in 0..7 {
            t.record_round(&[true, false, false]);
        }
        t.record_round(&[true, true, false]);
        let snap: Vec<u32> = t.staleness_snapshot().to_vec();
        assert_eq!(snap, vec![0, 0, 8]);
        let mut fresh = tracker(3);
        fresh.restore_staleness(&snap);
        for i in 0..3 {
            assert_eq!(fresh.rounds_since_sync[i], t.rounds_since_sync[i]);
            assert_eq!(fresh.boundary_error(i), t.boundary_error(i));
        }
    }
}
