//! Typed convergence control for the feeder iteration.
//!
//! The coordinator re-plans homes against a broadcast signal until the
//! aggregate stops moving. "Stops moving" is a [`ConvergenceCriterion`]:
//! the max-norm of the aggregate change between consecutive iterations
//! drops to the tolerance, a hard iteration budget runs out, or the
//! iteration is detected *oscillating* (a period-2 cycle — the aggregate
//! keeps returning to where it was two iterations ago while still moving
//! every iteration, the classic failure mode of undamped Jacobi updates).
//! The per-iteration history is kept as a [`ConvergenceTrace`] so reports
//! can show the whole trajectory, not just the end state.

use han_workload::fleet::ScenarioError;

/// When the feeder iteration stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceCriterion {
    /// Hard iteration budget (at least 1).
    pub max_iterations: usize,
    /// The iteration has converged when the max-norm of the aggregate
    /// change (kW) is at or below this.
    pub tolerance_kw: f64,
}

impl Default for ConvergenceCriterion {
    fn default() -> Self {
        ConvergenceCriterion {
            max_iterations: 10,
            tolerance_kw: 1e-3,
        }
    }
}

impl ConvergenceCriterion {
    /// Validates the criterion.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidConvergence`] for a zero iteration budget
    /// or a negative/non-finite tolerance.
    pub(crate) fn validate(&self) -> Result<(), ScenarioError> {
        if self.max_iterations == 0 {
            return Err(ScenarioError::InvalidConvergence {
                reason: "iteration budget must be at least 1",
            });
        }
        if !self.tolerance_kw.is_finite() || self.tolerance_kw < 0.0 {
            return Err(ScenarioError::InvalidConvergence {
                reason: "tolerance must be finite and non-negative",
            });
        }
        Ok(())
    }
}

/// Why the iteration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The aggregate change dropped to the tolerance.
    Converged,
    /// The iteration budget ran out while the aggregate was still moving.
    MaxIterations,
    /// A period-2 cycle: the aggregate returned (within tolerance) to its
    /// state two iterations ago while still moving each iteration —
    /// further rounds would bounce between the same two states forever.
    Oscillating,
}

/// One iteration's record in the [`ConvergenceTrace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// 1-based iteration index.
    pub iteration: usize,
    /// Feeder peak of this iteration's aggregate, kW.
    pub feeder_peak_kw: f64,
    /// Max-norm of the aggregate change versus the previous iterate, kW.
    pub change_norm_kw: f64,
}

/// The full per-iteration history of one coordination run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTrace {
    /// Per-iteration records, in order.
    pub iterations: Vec<IterationRecord>,
    /// Why the run stopped.
    pub stop: StopReason,
}

impl ConvergenceTrace {
    /// Whether the run reached the tolerance (as opposed to running out
    /// of budget or oscillating).
    pub(crate) fn converged(&self) -> bool {
        self.stop == StopReason::Converged
    }

    /// Iterations executed.
    pub(crate) fn len(&self) -> usize {
        self.iterations.len()
    }
}

/// Observes one aggregate per iteration and decides when to stop.
///
/// Seed the tracker with the starting aggregate (the independent
/// per-home solution), then feed each iteration's aggregate to
/// [`observe`](ConvergenceTracker::observe); `Some(reason)` means stop.
/// The tracker is pure bookkeeping over `&[f64]` series, so criterion
/// edge cases are unit-testable without running any simulation.
#[derive(Debug)]
pub(crate) struct ConvergenceTracker {
    criterion: ConvergenceCriterion,
    /// The previous iterate (what `observe` diffs against).
    prev: Vec<f64>,
    /// The iterate before that (the period-2 cycle probe).
    prev2: Option<Vec<f64>>,
    records: Vec<IterationRecord>,
}

impl ConvergenceTracker {
    /// Creates a tracker seeded with the starting aggregate.
    pub(crate) fn new(criterion: ConvergenceCriterion, initial: Vec<f64>) -> Self {
        ConvergenceTracker {
            criterion,
            prev: initial,
            prev2: None,
            records: Vec::new(),
        }
    }

    /// Records one iteration's aggregate; returns the stop reason once the
    /// criterion fires.
    pub(crate) fn observe(&mut self, aggregate: &[f64]) -> Option<StopReason> {
        let change = max_abs_diff(aggregate, &self.prev);
        let iteration = self.records.len() + 1;
        self.records.push(IterationRecord {
            iteration,
            feeder_peak_kw: aggregate.iter().copied().fold(0.0f64, f64::max),
            change_norm_kw: change,
        });
        let stop = if change <= self.criterion.tolerance_kw {
            Some(StopReason::Converged)
        } else if self
            .prev2
            .as_ref()
            .is_some_and(|p2| max_abs_diff(aggregate, p2) <= self.criterion.tolerance_kw)
        {
            Some(StopReason::Oscillating)
        } else if iteration >= self.criterion.max_iterations {
            Some(StopReason::MaxIterations)
        } else {
            None
        };
        self.prev2 = Some(std::mem::replace(&mut self.prev, aggregate.to_vec()));
        stop
    }

    /// Finalizes the history into a trace.
    pub(crate) fn into_trace(self, stop: StopReason) -> ConvergenceTrace {
        ConvergenceTrace {
            iterations: self.records,
            stop,
        }
    }
}

/// Max-norm of the elementwise difference; shorter series are zero-padded
/// (a home ending early contributes zero load from then on).
pub(crate) fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    let len = a.len().max(b.len());
    (0..len)
        .map(|i| (a.get(i).copied().unwrap_or(0.0) - b.get(i).copied().unwrap_or(0.0)).abs())
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn criterion(max_iterations: usize, tolerance_kw: f64) -> ConvergenceCriterion {
        ConvergenceCriterion {
            max_iterations,
            tolerance_kw,
        }
    }

    #[test]
    fn converges_when_change_reaches_tolerance() {
        let mut tracker = ConvergenceTracker::new(criterion(10, 0.05), vec![4.0, 8.0]);
        assert_eq!(tracker.observe(&[4.0, 6.0]), None);
        assert_eq!(tracker.observe(&[4.0, 6.01]), Some(StopReason::Converged));
        let trace = tracker.into_trace(StopReason::Converged);
        assert!(trace.converged());
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.iterations[0].change_norm_kw, 2.0);
        assert_eq!(trace.iterations[1].feeder_peak_kw, 6.01);
    }

    #[test]
    fn max_iterations_hit_while_still_moving() {
        let mut tracker = ConvergenceTracker::new(criterion(3, 1e-9), vec![0.0]);
        assert_eq!(tracker.observe(&[1.0]), None);
        assert_eq!(tracker.observe(&[2.0]), None);
        // Third iteration still moves by 1 kW: budget exhausted.
        assert_eq!(tracker.observe(&[3.0]), Some(StopReason::MaxIterations));
    }

    #[test]
    fn single_iteration_budget_fires_immediately() {
        let mut tracker = ConvergenceTracker::new(criterion(1, 1e-9), vec![0.0]);
        assert_eq!(tracker.observe(&[5.0]), Some(StopReason::MaxIterations));
        // A no-change first iteration converges instead.
        let mut tracker = ConvergenceTracker::new(criterion(1, 1e-9), vec![5.0]);
        assert_eq!(tracker.observe(&[5.0]), Some(StopReason::Converged));
    }

    #[test]
    fn period_two_cycle_detected_as_oscillation() {
        // A ↔ B forever: the moment the aggregate returns to its state
        // two iterations ago (the seed counts) the cycle is flagged.
        let a = vec![2.0, 6.0];
        let b = vec![6.0, 2.0];
        let mut tracker = ConvergenceTracker::new(criterion(10, 1e-6), a.clone());
        assert_eq!(tracker.observe(&b), None);
        assert_eq!(tracker.observe(&a), Some(StopReason::Oscillating));
        let trace = tracker.into_trace(StopReason::Oscillating);
        assert!(!trace.converged());
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn drifting_series_is_not_an_oscillation() {
        // Strictly advancing aggregates never match prev2.
        let mut tracker = ConvergenceTracker::new(criterion(10, 1e-6), vec![0.0]);
        for step in 1..=5 {
            assert_eq!(tracker.observe(&[f64::from(step)]), None, "step {step}");
        }
    }

    #[test]
    fn convergence_beats_oscillation_when_both_fire() {
        // A, A, A: change 0 also matches prev2 — converged wins.
        let a = vec![1.0];
        let mut tracker = ConvergenceTracker::new(criterion(10, 1e-6), a.clone());
        assert_eq!(tracker.observe(&a), Some(StopReason::Converged));
    }

    #[test]
    fn diff_pads_shorter_series_with_zeros() {
        assert_eq!(max_abs_diff(&[1.0, 2.0, 3.0], &[1.0]), 3.0);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    fn criterion_validation() {
        assert!(ConvergenceCriterion::default().validate().is_ok());
        assert!(criterion(0, 0.1).validate().is_err());
        assert!(criterion(5, -0.1).validate().is_err());
        assert!(criterion(5, f64::NAN).validate().is_err());
    }
}
