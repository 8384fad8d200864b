//! Resilience accounting for fault-injected runs.
//!
//! When a simulation runs under a fault plan (node churn, communication-
//! plane outages), the interesting questions shift from *how good is the
//! schedule* to *how gracefully does the fleet degrade and how fast does
//! it recover*. [`ResilienceStats`] is the ledger for those questions:
//! node-round availability, per-recovery re-agreement times, and deadline
//! misses attributed to the fault that was active when they happened.
//!
//! The struct is a passive accumulator — the simulation driver owns the
//! fault timeline and calls the recording methods; this crate only does
//! the arithmetic, so the metrics layer stays independent of the
//! simulator.
//!
//! # Examples
//!
//! ```
//! use han_metrics::ResilienceStats;
//!
//! let mut r = ResilienceStats::default();
//! r.record_round(2, true); // 2 nodes down, CP outage in force
//! r.record_round(1, false);
//! r.record_recovery(3); // 3 rounds from NodeUp to re-agreement
//! assert_eq!(r.down_node_rounds, 3);
//! assert_eq!(r.outage_rounds, 1);
//! assert_eq!(r.availability(2, 4), 1.0 - 3.0 / 8.0);
//! assert_eq!(r.mean_recovery_rounds(), Some(3.0));
//! ```

/// Accumulated resilience metrics of one simulation run.
///
/// All counters are in units of *rounds* (the communication-plane round is
/// the simulation's clock tick). An empty/default value means "no faults
/// observed" and is what fault-free runs report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceStats {
    /// Sum over rounds of the number of nodes down in that round.
    /// `rounds × nodes − down_node_rounds` is the served node-round count.
    pub down_node_rounds: u64,
    /// Rounds during which a communication-plane outage was in force.
    pub outage_rounds: u64,
    /// Rounds from each `NodeUp` event until the fleet next reached
    /// plan agreement (all nodes computing identical schedules), one entry
    /// per completed recovery, in event order.
    pub recoveries: Vec<u64>,
    /// Deadline misses that occurred in a round with at least one node
    /// down.
    pub misses_while_down: u64,
    /// Deadline misses that occurred in a round with a CP outage in force.
    pub misses_during_outage: u64,
}

impl ResilienceStats {
    /// Folds one round's fault exposure into the ledger.
    pub fn record_round(&mut self, nodes_down: usize, outage: bool) {
        self.down_node_rounds += nodes_down as u64;
        if outage {
            self.outage_rounds += 1;
        }
    }

    /// Records a completed recovery: `rounds` elapsed between a `NodeUp`
    /// and the first subsequent round of full plan agreement.
    pub fn record_recovery(&mut self, rounds: u64) {
        self.recoveries.push(rounds);
    }

    /// Attributes deadline misses observed this round to whichever fault
    /// classes were active when they happened.
    pub fn attribute_misses(&mut self, misses: u64, any_down: bool, outage: bool) {
        if misses == 0 {
            return;
        }
        if any_down {
            self.misses_while_down += misses;
        }
        if outage {
            self.misses_during_outage += misses;
        }
    }

    /// Node-round availability: the fraction of `(node, round)` pairs in
    /// which the node was up. 1.0 for fault-free runs (and for empty
    /// runs, where there is nothing to be unavailable).
    pub fn availability(&self, rounds: u64, nodes: usize) -> f64 {
        let total = rounds.saturating_mul(nodes as u64);
        if total == 0 {
            return 1.0;
        }
        1.0 - self.down_node_rounds as f64 / total as f64
    }

    /// Mean rounds-to-re-agreement across completed recoveries, `None` if
    /// no recovery completed.
    pub fn mean_recovery_rounds(&self) -> Option<f64> {
        if self.recoveries.is_empty() {
            return None;
        }
        Some(self.recoveries.iter().sum::<u64>() as f64 / self.recoveries.len() as f64)
    }

    /// The slowest completed recovery, `None` if no recovery completed.
    pub fn worst_recovery_rounds(&self) -> Option<u64> {
        self.recoveries.iter().copied().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quiet_and_fully_available() {
        let r = ResilienceStats::default();
        assert_eq!(r.availability(100, 8), 1.0);
        assert_eq!(r.availability(0, 0), 1.0);
        assert_eq!(r.mean_recovery_rounds(), None);
        assert_eq!(r.worst_recovery_rounds(), None);
    }

    #[test]
    fn round_exposure_accumulates() {
        let mut r = ResilienceStats::default();
        r.record_round(0, false);
        r.record_round(3, true);
        r.record_round(1, true);
        assert_eq!(r.down_node_rounds, 4);
        assert_eq!(r.outage_rounds, 2);
        assert_ne!(r, ResilienceStats::default());
        // 3 rounds × 4 nodes = 12 node-rounds, 4 of them down.
        assert!((r.availability(3, 4) - (1.0 - 4.0 / 12.0)).abs() < 1e-12);
    }

    #[test]
    fn recovery_statistics() {
        let mut r = ResilienceStats::default();
        r.record_recovery(2);
        r.record_recovery(6);
        r.record_recovery(4);
        assert_eq!(r.mean_recovery_rounds(), Some(4.0));
        assert_eq!(r.worst_recovery_rounds(), Some(6));
        assert_eq!(r.recoveries, vec![2, 6, 4]);
    }

    #[test]
    fn miss_attribution_is_per_active_fault_class() {
        let mut r = ResilienceStats::default();
        r.attribute_misses(2, true, false);
        r.attribute_misses(1, true, true);
        r.attribute_misses(5, false, false); // no fault active: unattributed
        r.attribute_misses(0, true, true); // nothing to attribute
        assert_eq!(r.misses_while_down, 3);
        assert_eq!(r.misses_during_outage, 1);
    }
}
