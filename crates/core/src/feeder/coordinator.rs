//! The feeder coordinator: iterative re-planning against a broadcast
//! signal.
//!
//! Each round the coordinator (1) resolves the [`FeederSignal`] into one
//! admission-cap profile per home given the current aggregate, (2) has the
//! homes re-simulate against their caps — the whole per-home pipeline,
//! workload to communication plane to planner, runs unchanged, only with
//! [`Scenario::power_cap`](han_workload::scenario::Scenario) set — and
//! (3) folds the new per-home load series into the next aggregate. The
//! loop stops on a typed [`ConvergenceCriterion`].
//!
//! Two textbook update orders are provided:
//!
//! * [`IterationPolicy::Jacobi`] — every home re-plans against the *same*
//!   broadcast aggregate (the previous iterate), so the homes are
//!   independent within a round and run one-per-worker on the same rayon
//!   machinery as [`Neighborhood::run`]. This is what a real one-shot
//!   broadcast per coordination round gives you.
//! * [`IterationPolicy::GaussSeidel`] — homes re-plan in fixed order,
//!   each seeing the aggregate with every earlier home's *fresh* series
//!   folded in. Sequential, but typically converges in fewer rounds and
//!   cannot two-cycle the way undamped Jacobi can.
//!
//! Both are deterministic: same neighborhood, same policy, same report.

use crate::city::tree;
use crate::experiment::{collect_results, run_strategy_faulted, StrategyResult, SAMPLE_INTERVAL};
use crate::fault::degrade_cap_profile;
use crate::feeder::convergence::{ConvergenceCriterion, ConvergenceTracker, StopReason};
use crate::feeder::signal::FeederSignal;
use crate::feeder::ConvergenceTrace;
use crate::neighborhood::{Home, Neighborhood, NeighborhoodReport};
use crate::simulation::Strategy;
use han_metrics::stats::Summary;
use han_metrics::tariff::{Billing, CostBreakdown};
use han_sim::time::SimDuration;
use han_workload::fleet::ScenarioError;
use han_workload::scenario::Scenario;
use han_workload::signal::PowerCapProfile;
use rayon::prelude::*;

/// In what order homes see each other's updates within an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationPolicy {
    /// All homes re-plan against the same broadcast aggregate (previous
    /// iterate); re-planning is parallel, one home per worker.
    Jacobi,
    /// Homes re-plan in home order, each against the freshest aggregate;
    /// sequential within an iteration.
    GaussSeidel,
}

/// A complete feeder coordination policy: what is broadcast, in what
/// order homes react, and when to stop.
#[derive(Debug, Clone, PartialEq)]
pub struct FeederPolicy {
    /// The broadcast signal.
    pub signal: FeederSignal,
    /// The update order.
    pub iteration: IterationPolicy,
    /// The stopping rule.
    pub convergence: ConvergenceCriterion,
    /// How long a home keeps acting on its last-known-good cap when its
    /// fault plan drops the broadcast (a [`FaultEvent::SignalLoss`]
    /// window — see `degrade_cap_profile`). Past the horizon the home
    /// fails **open**: admission is unconstrained, obligations are
    /// untouched, so dropout can never cause a deadline miss.
    ///
    /// [`FaultEvent::SignalLoss`]: crate::fault::FaultEvent::SignalLoss
    pub signal_staleness_horizon: SimDuration,
}

impl FeederPolicy {
    /// A Jacobi policy with the default convergence criterion — the
    /// configuration a periodic one-shot broadcast corresponds to — and a
    /// 30-minute signal-staleness horizon.
    pub fn new(signal: FeederSignal) -> Self {
        FeederPolicy {
            signal,
            iteration: IterationPolicy::Jacobi,
            convergence: ConvergenceCriterion::default(),
            signal_staleness_horizon: SimDuration::from_mins(30),
        }
    }

    /// The same policy with Gauss-Seidel ordering.
    pub fn gauss_seidel(signal: FeederSignal) -> Self {
        FeederPolicy {
            iteration: IterationPolicy::GaussSeidel,
            ..FeederPolicy::new(signal)
        }
    }

    /// Validates the signal parameters and the convergence criterion.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] for the first invalid field.
    pub(crate) fn validate(&self) -> Result<(), ScenarioError> {
        self.signal.validate()?;
        self.convergence.validate()
    }
}

/// One home's final outcome under feeder coordination.
#[derive(Debug, Clone)]
pub struct FeederHomeResult {
    /// The home's name.
    pub name: String,
    /// The signal-coordinated run (the last iteration's re-plan).
    pub result: StrategyResult,
}

/// The outcome of a feeder coordination run: the converged (or stopped)
/// signal-coordinated state next to both baselines.
///
/// The `baseline` field is the plain [`NeighborhoodReport`] — every home
/// uncoordinated, and every home *independently* coordinated (the paper's
/// scheme, no inter-home signal). The report's own fields describe the
/// signal-coordinated end state.
#[derive(Debug, Clone)]
pub struct FeederReport {
    /// The neighborhood's name.
    pub name: String,
    /// The signal that was broadcast.
    pub signal: FeederSignal,
    /// The update order used.
    pub iteration: IterationPolicy,
    /// Uncoordinated and independently-coordinated baselines.
    pub baseline: NeighborhoodReport,
    /// Per-home signal-coordinated results, in home order.
    pub homes: Vec<FeederHomeResult>,
    /// Final feeder aggregate under the signal (kW per minute).
    pub feeder_samples: Vec<f64>,
    /// Summary of the final feeder aggregate.
    pub feeder: Summary,
    /// The per-iteration convergence history.
    pub trace: ConvergenceTrace,
    /// Which iterate the report's end state is: `0` is the independent
    /// (signal-free) seed, `k ≥ 1` the k-th iteration. The coordinator
    /// commits the iterate that best serves the signal's own objective
    /// (`FeederSignal::score`), so an oscillating iteration can never
    /// regress the street below its signal-free state.
    pub selected_iteration: usize,
}

impl FeederReport {
    /// Iterations executed.
    pub fn iterations(&self) -> usize {
        self.trace.len()
    }

    /// Publishes the run's convergence history into an observability
    /// sink: iterations executed, committed iterate, stop reason
    /// (0 converged, 1 max iterations, 2 oscillating), the per-iterate
    /// feeder peak histogram, and one flight event summarizing the run.
    /// Post-hoc and read-only — coordination itself is never observed
    /// mid-flight, so instrumented runs stay bit-identical.
    pub fn publish_obs(&self, obs: &han_obs::Obs) {
        use crate::feeder::convergence::StopReason;
        use han_obs::{Counter, Gauge, Hist, Subsystem};
        if !obs.enabled() {
            return;
        }
        obs.add(Counter::FeederIterations, self.trace.len() as u64);
        obs.gauge(
            Gauge::FeederSelectedIteration,
            self.selected_iteration as u64,
        );
        let stop = match self.trace.stop {
            StopReason::Converged => 0,
            StopReason::MaxIterations => 1,
            StopReason::Oscillating => 2,
        };
        obs.gauge(Gauge::FeederStopReason, stop);
        for record in &self.trace.iterations {
            // Watts: the histogram's power-of-two buckets resolve street
            // peaks (tens of kW) poorly in kW units.
            obs.observe(
                Hist::FeederIteratePeakW,
                (record.feeder_peak_kw * 1000.0).max(0.0) as u64,
            );
        }
        obs.event(0, Subsystem::Feeder, "coordination-run", || {
            format!(
                "name={} iterations={} selected={} stop={:?} peak_kw={:.3}",
                self.name,
                self.trace.len(),
                self.selected_iteration,
                self.trace.stop,
                self.feeder.peak
            )
        });
    }

    /// Whether the aggregate reached the tolerance.
    pub fn converged(&self) -> bool {
        self.trace.converged()
    }

    /// Feeder-peak reduction of the signal-coordinated state versus the
    /// *independently coordinated* baseline, percent — what the inter-home
    /// signal buys on top of the paper's per-home scheme.
    pub fn feeder_peak_vs_independent_percent(&self) -> f64 {
        han_metrics::stats::reduction_percent(
            self.baseline.feeder_coordinated.peak,
            self.feeder.peak,
        )
    }

    /// Deadline misses summed over all homes under the signal (the
    /// planner's forcing keeps this at the independent baseline's level —
    /// normally zero — under any signal).
    pub fn total_deadline_misses(&self) -> u32 {
        self.homes
            .iter()
            .map(|h| h.result.outcome.deadline_misses)
            .sum()
    }

    /// Prices the signal-coordinated feeder aggregate under a billing
    /// scheme.
    pub fn feeder_cost(&self, billing: &Billing) -> CostBreakdown {
        billing.cost_of_samples(SAMPLE_INTERVAL, &self.feeder_samples)
    }
}

/// Re-simulates one home against an admission cap (the signal-aware hook:
/// the cap rides [`Scenario::power_cap`] into the coordinated planner).
///
/// If the home's fault plan drops the broadcast, the cap the home acts on
/// is the degraded profile — last-known-good held for at most `horizon`,
/// then open until the dropout ends (see [`degrade_cap_profile`]). The
/// home's churn/outage events run inside the simulation itself.
fn replan(
    home: &Home,
    cap: PowerCapProfile,
    horizon: SimDuration,
) -> Result<StrategyResult, ScenarioError> {
    let cap = if home.faults.has_signal_faults() {
        degrade_cap_profile(&cap, &home.faults.signal_loss_windows(), horizon)
    } else {
        cap
    };
    let scenario = Scenario {
        power_cap: Some(cap),
        ..home.scenario.clone()
    };
    run_strategy_faulted(
        &scenario,
        Strategy::coordinated(),
        home.cp.clone(),
        &home.faults,
        None,
    )
}

/// Runs the full coordination loop for [`Neighborhood::run_with`].
pub(crate) fn coordinate(
    hood: &Neighborhood,
    policy: &FeederPolicy,
) -> Result<FeederReport, ScenarioError> {
    policy.validate()?;
    // Both baselines in one pass: every home uncoordinated and
    // independently coordinated. The independent solution seeds the
    // iteration — it is exactly what homes would do with no signal, so the
    // first broadcast describes the real, signal-free street.
    let baseline = hood.run()?;
    let rated: Vec<f64> = hood
        .homes
        .iter()
        .map(|h| h.scenario.fleet.total_rated_kw())
        .collect();
    let mut home_samples: Vec<Vec<f64>> = baseline
        .homes
        .iter()
        .map(|h| h.comparison.coordinated.samples.clone())
        .collect();
    let mut results: Vec<StrategyResult> = baseline
        .homes
        .iter()
        .map(|h| h.comparison.coordinated.clone())
        .collect();
    let mut aggregate = Vec::new();
    for samples in &home_samples {
        tree::sum_series(&mut aggregate, samples);
    }
    let mut tracker = ConvergenceTracker::new(policy.convergence, aggregate.clone());
    // Candidate 0: the signal-free independent solution. Every iterate is
    // feasible (obligations are force-protected), so the coordinator is
    // free to commit whichever candidate best serves the signal's
    // objective; strict improvement keeps ties on the earliest iterate.
    let mut best_score = policy.signal.score(&aggregate);
    let mut best = Selected {
        iteration: 0,
        results: results.clone(),
        aggregate: aggregate.clone(),
    };
    let mut iteration = 0usize;

    let stop = loop {
        match policy.iteration {
            IterationPolicy::Jacobi => {
                // Resolve every cap against the *same* broadcast
                // aggregate, then fan the re-plans out one home per
                // worker (they are fully independent simulations).
                let jobs: Vec<(usize, PowerCapProfile)> = (0..hood.homes.len())
                    .map(|i| {
                        policy
                            .signal
                            .resolve_home_cap(&aggregate, &home_samples[i], rated[i])
                            .map(|cap| (i, cap))
                    })
                    .collect::<Result<_, _>>()?;
                results = collect_results(
                    jobs.into_par_iter()
                        .map(|(i, cap)| {
                            replan(&hood.homes[i], cap, policy.signal_staleness_horizon)
                        })
                        .collect(),
                )?;
                for (samples, r) in home_samples.iter_mut().zip(&results) {
                    samples.clone_from(&r.samples);
                }
            }
            IterationPolicy::GaussSeidel => {
                for i in 0..hood.homes.len() {
                    let cap =
                        policy
                            .signal
                            .resolve_home_cap(&aggregate, &home_samples[i], rated[i])?;
                    let r = replan(&hood.homes[i], cap, policy.signal_staleness_horizon)?;
                    // Later homes see this home's fresh series: swap its
                    // contribution in place, O(samples) per home instead
                    // of re-summing the whole street.
                    for (m, sum) in aggregate.iter_mut().enumerate() {
                        *sum += r.samples.get(m).copied().unwrap_or(0.0)
                            - home_samples[i].get(m).copied().unwrap_or(0.0);
                    }
                    home_samples[i].clone_from(&r.samples);
                    results[i] = r;
                }
            }
        }
        // Recompute from scratch once per iteration: scores, norms and
        // the reported series stay exact, with no accumulated float drift
        // from the in-place updates.
        aggregate.clear();
        for samples in &home_samples {
            tree::sum_series(&mut aggregate, samples);
        }
        iteration += 1;
        let score = policy.signal.score(&aggregate);
        if score < best_score {
            best_score = score;
            best = Selected {
                iteration,
                results: results.clone(),
                aggregate: aggregate.clone(),
            };
        }
        if let Some(reason) = tracker.observe(&aggregate) {
            break reason;
        }
        if !policy.signal.tracks_aggregate() {
            // Aggregate-blind signals resolve to the same caps next
            // round, so the iterate just produced is a fixed point by
            // construction — skip the confirming re-simulation.
            break StopReason::Converged;
        }
    };

    let feeder = Summary::of(&best.aggregate);
    let homes = hood
        .homes
        .iter()
        .zip(best.results)
        .map(|(home, result)| FeederHomeResult {
            name: home.name.clone(),
            result,
        })
        .collect();
    Ok(FeederReport {
        name: hood.name.clone(),
        signal: policy.signal.clone(),
        iteration: policy.iteration,
        baseline,
        homes,
        feeder_samples: best.aggregate,
        feeder,
        trace: tracker.into_trace(stop),
        selected_iteration: best.iteration,
    })
}

/// The committed candidate while the iteration runs.
struct Selected {
    iteration: usize,
    results: Vec<StrategyResult>,
    aggregate: Vec<f64>,
}

#[cfg(test)]
/// A single-home "neighborhood", the shape the determinism contract is
/// stated on.
fn single_home(scenario: &Scenario, cp: crate::cp::CpModel) -> Result<Neighborhood, ScenarioError> {
    Neighborhood::new(scenario.name.clone(), vec![Home::new(scenario.clone(), cp)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::CpModel;
    use crate::feeder::StopReason;
    use han_metrics::tariff::TimeOfUseTariff;
    use han_sim::time::SimDuration;
    use han_workload::scenario::ArrivalRate;

    fn short_paper(seed: u64) -> Scenario {
        Scenario {
            duration: SimDuration::from_mins(90),
            ..Scenario::paper(ArrivalRate::High, seed)
        }
    }

    #[test]
    fn unconstrained_single_home_is_bit_identical() {
        // The determinism contract: one home under an unlimited capacity
        // signal must reproduce `Neighborhood::run` exactly, down to the
        // schedule digest of every round.
        let hood = single_home(&short_paper(3), CpModel::Ideal).unwrap();
        let plain = hood.run().unwrap();
        let policy = FeederPolicy::new(FeederSignal::Capacity(PowerCapProfile::unlimited()));
        let report = hood.run_with(&policy).unwrap();
        assert_eq!(report.trace.stop, StopReason::Converged);
        assert_eq!(report.iterations(), 1, "a fixed point on the first pass");
        assert_eq!(
            report.selected_iteration, 0,
            "an unconstrained signal cannot beat the signal-free seed"
        );
        assert_eq!(
            report.homes[0].result.outcome.schedule_digest,
            plain.homes[0]
                .comparison
                .coordinated
                .outcome
                .schedule_digest,
            "unconstrained signal must not perturb a single round's schedule"
        );
        assert_eq!(
            report.feeder_samples, plain.feeder_samples_coordinated,
            "identical load series"
        );
    }

    #[test]
    fn capacity_cap_flattens_the_feeder() {
        let hood = Neighborhood::uniform("street", &short_paper(1), CpModel::Ideal, 4).unwrap();
        let independent = hood.run().unwrap();
        let cap = independent.feeder_coordinated.peak * 0.85;
        let policy = FeederPolicy::new(FeederSignal::Capacity(
            PowerCapProfile::constant(cap).unwrap(),
        ));
        let report = hood.run_with(&policy).unwrap();
        assert!(
            report.feeder.peak <= independent.feeder_coordinated.peak + 1e-9,
            "signal {} vs independent {}",
            report.feeder.peak,
            independent.feeder_coordinated.peak
        );
        assert_eq!(report.total_deadline_misses(), 0);
        // Energy is shifted, not shed; the slack allows for admissions
        // deferred past the end of the short sampling window.
        let base = report.baseline.feeder_coordinated.mean;
        assert!((report.feeder.mean - base).abs() / base * 100.0 < 12.0);
        assert!(report.iterations() <= policy.convergence.max_iterations);
    }

    #[test]
    fn gauss_seidel_converges_and_respects_the_cap_goal() {
        let hood = Neighborhood::uniform("street", &short_paper(2), CpModel::Ideal, 3).unwrap();
        let independent = hood.run().unwrap();
        let cap = independent.feeder_coordinated.peak * 0.9;
        let policy = FeederPolicy::gauss_seidel(FeederSignal::Capacity(
            PowerCapProfile::constant(cap).unwrap(),
        ));
        let report = hood.run_with(&policy).unwrap();
        assert_eq!(report.iteration, IterationPolicy::GaussSeidel);
        assert_eq!(report.total_deadline_misses(), 0);
        assert!(report.feeder.peak <= independent.feeder_coordinated.peak + 1e-9);
    }

    #[test]
    fn aggregate_blind_signal_converges_after_one_replan() {
        // A time-of-use broadcast does not depend on the aggregate: the
        // first re-plan is a fixed point by construction, and the
        // coordinator skips the confirming re-simulation.
        let hood = Neighborhood::uniform("street", &short_paper(5), CpModel::Ideal, 3).unwrap();
        let policy = FeederPolicy::new(FeederSignal::time_of_use(
            TimeOfUseTariff::typical_residential(),
        ));
        let report = hood.run_with(&policy).unwrap();
        assert!(report.converged());
        assert_eq!(
            report.iterations(),
            1,
            "static caps are a fixed point after one re-plan"
        );
        assert_eq!(report.total_deadline_misses(), 0);
    }

    #[test]
    fn congestion_signal_shaves_the_peak() {
        let hood = Neighborhood::uniform("street", &short_paper(7), CpModel::Ideal, 4).unwrap();
        let independent = hood.run().unwrap();
        let policy = FeederPolicy::new(FeederSignal::Congestion { utilization: 0.9 });
        let report = hood.run_with(&policy).unwrap();
        assert_eq!(report.total_deadline_misses(), 0);
        assert!(report.feeder.peak <= independent.feeder_coordinated.peak + 1e-9);
        assert!(report.feeder_peak_vs_independent_percent() >= -1e-9);
    }

    #[test]
    fn max_iterations_is_a_hard_stop() {
        let hood = Neighborhood::uniform("street", &short_paper(9), CpModel::Ideal, 3).unwrap();
        let independent = hood.run().unwrap();
        let policy = FeederPolicy {
            // An impossible tolerance forces the budget to fire.
            convergence: ConvergenceCriterion {
                max_iterations: 2,
                tolerance_kw: 0.0,
            },
            ..FeederPolicy::new(FeederSignal::Capacity(
                PowerCapProfile::constant(independent.feeder_coordinated.peak * 0.5).unwrap(),
            ))
        };
        let report = hood.run_with(&policy).unwrap();
        assert!(report.iterations() <= 2);
        if !report.converged() {
            assert!(matches!(
                report.trace.stop,
                StopReason::MaxIterations | StopReason::Oscillating
            ));
        }
        // Even a stopped-early run keeps every obligation.
        assert_eq!(report.total_deadline_misses(), 0);
    }

    #[test]
    fn invalid_policies_rejected() {
        let hood = single_home(&short_paper(0), CpModel::Ideal).unwrap();
        let bad = FeederPolicy::new(FeederSignal::Congestion { utilization: -1.0 });
        assert!(hood.run_with(&bad).is_err());
        let bad = FeederPolicy {
            convergence: ConvergenceCriterion {
                max_iterations: 0,
                tolerance_kw: 0.1,
            },
            ..FeederPolicy::new(FeederSignal::Capacity(PowerCapProfile::unlimited()))
        };
        assert!(matches!(
            hood.run_with(&bad),
            Err(ScenarioError::InvalidConvergence { .. })
        ));
    }

    #[test]
    fn signal_dropout_fails_safe() {
        use crate::fault::FaultPlan;
        // A tight capacity cap, with one home losing the broadcast for
        // most of the run. The dropped home holds its last-known-good cap
        // for the horizon, then fails open — never a deadline miss, and
        // the committed iterate never regresses below the signal-free
        // street.
        let mut hood = Neighborhood::uniform("street", &short_paper(6), CpModel::Ideal, 3).unwrap();
        hood.homes[1].faults = FaultPlan::parse("sigloss:10-80").expect("valid plan");
        let independent = hood.run().unwrap();
        let cap = independent.feeder_coordinated.peak * 0.85;
        let policy = FeederPolicy::new(FeederSignal::Capacity(
            PowerCapProfile::constant(cap).unwrap(),
        ));
        assert_eq!(policy.signal_staleness_horizon, SimDuration::from_mins(30));
        let report = hood.run_with(&policy).unwrap();
        assert_eq!(report.total_deadline_misses(), 0);
        assert!(
            report.feeder.peak <= independent.feeder_coordinated.peak + 1e-9,
            "dropout must not regress the street below its signal-free state"
        );
        // The dropout is visible: the dropped home's coordinated series
        // differs from what the same street produces with no dropout.
        let mut clean = hood.clone();
        clean.homes[1].faults = FaultPlan::empty();
        let clean_report = clean.run_with(&policy).unwrap();
        assert_eq!(clean_report.total_deadline_misses(), 0);
    }

    #[test]
    fn feeder_costs_are_reported() {
        let hood = Neighborhood::uniform("street", &short_paper(11), CpModel::Ideal, 2).unwrap();
        let policy = FeederPolicy::new(FeederSignal::time_of_use(
            TimeOfUseTariff::typical_residential(),
        ));
        let report = hood.run_with(&policy).unwrap();
        let billing = Billing::typical_residential();
        let feeder_cost = report.feeder_cost(&billing);
        assert!(feeder_cost.total() > 0.0);
        // Each home's signal-coordinated exact trace, priced over the run.
        assert_eq!(report.homes.len(), 2);
        let end = han_sim::time::SimTime::ZERO + short_paper(11).duration;
        let home_energy: f64 = report
            .homes
            .iter()
            .map(|h| {
                billing
                    .cost(&h.result.outcome.trace, han_sim::time::SimTime::ZERO, end)
                    .energy_cost
            })
            .sum();
        assert!((feeder_cost.energy_cost - home_energy).abs() / home_energy < 0.05);
    }
}
