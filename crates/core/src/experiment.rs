//! Shared experiment harness for the paper's figures.
//!
//! Every figure in the paper compares the coordinated strategy against the
//! uncoordinated baseline on the same workload. This module packages that
//! comparison — run both strategies on a [`Scenario`], sample the load the
//! way the paper plots it (per minute), and summarize — so the `fig2a`,
//! `fig2b`, `fig2c` and `claims` harnesses and the integration tests all
//! share one code path.

use crate::cp::CpModel;
use crate::fault::FaultPlan;
use crate::simulation::{HanSimulation, SimulationConfig, SimulationOutcome, Strategy};
use han_metrics::stats::Summary;
use han_metrics::tariff::{Billing, CostBreakdown};
use han_sim::time::{SimDuration, SimTime};
use han_workload::fleet::ScenarioError;
use han_workload::scenario::Scenario;
use rayon::prelude::*;

/// The sampling interval of the paper's plots.
pub const SAMPLE_INTERVAL: SimDuration = SimDuration::from_mins(1);

/// Collects a parallel stage's per-item results, surfacing the **first
/// error in input order**.
///
/// Parallel sweeps collect `Vec<Result<_, _>>` and then fold through
/// here, rather than collecting straight into a `Result`, for two
/// reasons: the error a sweep reports stays deterministic regardless of
/// worker interleaving, and the vendored rayon shim's `collect` only
/// supports `From<Vec<Item>>` targets.
pub fn collect_results<T>(results: Vec<Result<T, ScenarioError>>) -> Result<Vec<T>, ScenarioError> {
    results.into_iter().collect()
}

/// One strategy's result on a scenario.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    /// Raw simulation outcome.
    pub outcome: SimulationOutcome,
    /// Per-minute load samples (kW), as plotted in Fig. 2(a).
    pub samples: Vec<f64>,
    /// Summary statistics of the samples (Fig. 2(b)/(c)).
    pub summary: Summary,
}

/// Baseline-vs-coordinated comparison on one workload.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The scenario both strategies ran.
    pub scenario: Scenario,
    /// "w/o coordination".
    pub uncoordinated: StrategyResult,
    /// "with coordination".
    pub coordinated: StrategyResult,
}

impl Comparison {
    /// Peak-load reduction achieved by coordination, percent.
    pub fn peak_reduction_percent(&self) -> f64 {
        han_metrics::stats::reduction_percent(
            self.uncoordinated.summary.peak,
            self.coordinated.summary.peak,
        )
    }

    /// Load-variation (std-dev) reduction, percent.
    pub fn std_reduction_percent(&self) -> f64 {
        han_metrics::stats::reduction_percent(
            self.uncoordinated.summary.std_dev,
            self.coordinated.summary.std_dev,
        )
    }

    /// Relative difference of the average loads, percent (should be ≈ 0:
    /// coordination shifts load, it does not shed it).
    pub fn average_gap_percent(&self) -> f64 {
        let base = self.uncoordinated.summary.mean;
        if base == 0.0 {
            0.0
        } else {
            (self.coordinated.summary.mean - base).abs() / base * 100.0
        }
    }

    /// Prices both strategies' exact load traces over the scenario window
    /// under a billing scheme. Coordination attacks the demand-charge
    /// component directly (it cuts the peak); energy charges move only as
    /// far as load shifts across tariff boundaries.
    pub fn costs(&self, billing: &Billing) -> CostComparison {
        let end = SimTime::ZERO + self.scenario.duration;
        CostComparison {
            uncoordinated: billing.cost(&self.uncoordinated.outcome.trace, SimTime::ZERO, end),
            coordinated: billing.cost(&self.coordinated.outcome.trace, SimTime::ZERO, end),
        }
    }
}

/// Priced uncoordinated-vs-coordinated comparison of one load shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostComparison {
    /// Bill without coordination.
    pub uncoordinated: CostBreakdown,
    /// Bill with coordination.
    pub coordinated: CostBreakdown,
}

impl CostComparison {
    /// Total-bill saving achieved by coordination, percent.
    pub fn savings_percent(&self) -> f64 {
        han_metrics::stats::reduction_percent(self.uncoordinated.total(), self.coordinated.total())
    }
}

/// Runs one strategy on a scenario and samples the result.
///
/// # Errors
///
/// [`ScenarioError`] if the scenario or derived simulation configuration
/// is invalid (empty fleet, bad rate or loss probability, packet topology
/// smaller than the fleet, …).
///
/// # Panics
///
/// Panics only on an invalid custom [`han_st::StConfig`] inside a
/// packet-mode CP (the default configuration is always valid).
pub fn run_strategy(
    scenario: &Scenario,
    strategy: Strategy,
    cp: CpModel,
) -> Result<StrategyResult, ScenarioError> {
    run_strategy_inner(scenario, strategy, cp, false)
}

/// [`run_strategy`] over the naive per-node execution plane (the
/// differential-testing and benchmarking oracle of the memoized fast
/// path). Not part of the supported API surface.
#[doc(hidden)]
pub fn run_strategy_reference(
    scenario: &Scenario,
    strategy: Strategy,
    cp: CpModel,
) -> Result<StrategyResult, ScenarioError> {
    run_strategy_inner(scenario, strategy, cp, true)
}

/// Runs one strategy under a [`FaultPlan`]: node churn, CP outage
/// windows and grid-signal dropout injected on the exact timeline the
/// plan scripts. An empty plan and `staleness_ttl: None` reproduce
/// [`run_strategy`] bit for bit.
///
/// `staleness_ttl` enables ghost-record aging: survivors drop a dead
/// node's last record from their planning view once it has gone
/// unrefreshed for more than that many rounds (off by default because it
/// perturbs fault-free lossy-CP schedules).
///
/// # Errors
///
/// [`ScenarioError`] as [`run_strategy`], plus
/// [`ScenarioError::InvalidFaultPlan`] if the plan names a node outside
/// the fleet.
pub fn run_strategy_faulted(
    scenario: &Scenario,
    strategy: Strategy,
    cp: CpModel,
    faults: &FaultPlan,
    staleness_ttl: Option<u32>,
) -> Result<StrategyResult, ScenarioError> {
    let sim = build_simulation(scenario, strategy, cp, faults, staleness_ttl)?;
    Ok(summarize_outcome(sim.run(), scenario.duration))
}

/// Builds the fully-configured simulation that [`run_strategy_faulted`]
/// runs, without running it. This is the entry point for callers that
/// need the checkpoint API: run it with
/// [`HanSimulation::run_checkpointed`], or rebuild the identical
/// configuration and hand a saved [`crate::Checkpoint`] to
/// [`HanSimulation::resume`].
///
/// # Errors
///
/// [`ScenarioError`] exactly as [`run_strategy_faulted`].
pub fn build_simulation(
    scenario: &Scenario,
    strategy: Strategy,
    cp: CpModel,
    faults: &FaultPlan,
    staleness_ttl: Option<u32>,
) -> Result<HanSimulation, ScenarioError> {
    scenario.validate()?;
    // Signal-aware planning hook: a scenario carrying a grid-side
    // admission cap hands it to the coordinated planner (an explicitly
    // configured cap on the strategy wins; the uncoordinated baseline and
    // the centralized ablation ignore signals by design).
    let strategy = match strategy {
        Strategy::Coordinated(mut plan) if plan.admission_cap.is_none() => {
            plan.admission_cap = scenario.power_cap.clone();
            Strategy::Coordinated(plan)
        }
        other => other,
    };
    let config = SimulationConfig {
        fleet: scenario.fleet.clone(),
        duration: scenario.duration,
        round_period: SimDuration::from_secs(2),
        strategy,
        cp,
        seed: scenario.seed,
    };
    let mut sim = HanSimulation::new(config, scenario.requests())?;
    sim.set_faults(faults.clone())?;
    sim.set_staleness_ttl(staleness_ttl);
    Ok(sim)
}

/// Samples and summarizes a raw outcome the way every figure harness
/// does: per-minute load samples over the scenario window plus their
/// summary statistics.
pub fn summarize_outcome(outcome: SimulationOutcome, duration: SimDuration) -> StrategyResult {
    let end = SimTime::ZERO + duration;
    let samples = outcome.trace.sample(SimTime::ZERO, end, SAMPLE_INTERVAL);
    let summary = Summary::of(&samples);
    StrategyResult {
        outcome,
        samples,
        summary,
    }
}

fn run_strategy_inner(
    scenario: &Scenario,
    strategy: Strategy,
    cp: CpModel,
    reference_planning: bool,
) -> Result<StrategyResult, ScenarioError> {
    let mut sim = build_simulation(scenario, strategy, cp, &FaultPlan::empty(), None)?;
    sim.set_reference_planning(reference_planning);
    Ok(summarize_outcome(sim.run(), scenario.duration))
}

/// Runs both strategies on the same workload.
///
/// # Errors
///
/// [`ScenarioError`] if the scenario is invalid.
pub fn compare(scenario: &Scenario, cp: CpModel) -> Result<Comparison, ScenarioError> {
    let uncoordinated = run_strategy(scenario, Strategy::Uncoordinated, cp.clone())?;
    let coordinated = run_strategy(scenario, Strategy::coordinated(), cp)?;
    Ok(Comparison {
        scenario: scenario.clone(),
        uncoordinated,
        coordinated,
    })
}

/// [`compare`] under a shared [`FaultPlan`]: both strategies face the
/// identical churn/outage/dropout timeline, so the comparison isolates
/// what coordination buys (or costs) under failure.
///
/// # Errors
///
/// [`ScenarioError`] exactly as [`run_strategy_faulted`].
pub fn compare_faulted(
    scenario: &Scenario,
    cp: CpModel,
    faults: &FaultPlan,
    staleness_ttl: Option<u32>,
) -> Result<Comparison, ScenarioError> {
    let uncoordinated = run_strategy_faulted(
        scenario,
        Strategy::Uncoordinated,
        cp.clone(),
        faults,
        staleness_ttl,
    )?;
    let coordinated =
        run_strategy_faulted(scenario, Strategy::coordinated(), cp, faults, staleness_ttl)?;
    Ok(Comparison {
        scenario: scenario.clone(),
        uncoordinated,
        coordinated,
    })
}

/// Runs `compare` over several seeds and returns all comparisons in seed
/// order.
///
/// # Errors
///
/// [`ScenarioError`] for the first invalid derived scenario.
pub fn compare_seeds(
    template: &Scenario,
    cp: &CpModel,
    seeds: impl IntoIterator<Item = u64>,
) -> Result<Vec<Comparison>, ScenarioError> {
    seeds
        .into_iter()
        .map(|seed| {
            let scenario = Scenario {
                seed,
                ..template.clone()
            };
            compare(&scenario, cp.clone())
        })
        .collect()
}

/// Runs `compare` over several seeds **in parallel** (one worker per
/// core), returning comparisons in seed order.
///
/// Seeded runs are fully independent — no shared mutable state — so the
/// results are identical to [`compare_seeds`], element for element; only
/// the wall-clock time changes. This is the workhorse of the figure
/// harnesses, parameter sweeps and the neighborhood layer.
///
/// # Errors
///
/// [`ScenarioError`] for the first invalid derived scenario.
pub fn compare_many(
    template: &Scenario,
    cp: &CpModel,
    seeds: impl IntoIterator<Item = u64>,
) -> Result<Vec<Comparison>, ScenarioError> {
    let seeds: Vec<u64> = seeds.into_iter().collect();
    collect_results(
        seeds
            .into_par_iter()
            .map(|seed| {
                let scenario = Scenario {
                    seed,
                    ..template.clone()
                };
                compare(&scenario, cp.clone())
            })
            .collect(),
    )
}

/// Mean of a per-comparison metric across seeds.
pub fn mean_metric(comparisons: &[Comparison], metric: impl Fn(&Comparison) -> f64) -> f64 {
    if comparisons.is_empty() {
        return 0.0;
    }
    comparisons.iter().map(metric).sum::<f64>() / comparisons.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_workload::scenario::ArrivalRate;

    fn short_scenario(rate: ArrivalRate, seed: u64) -> Scenario {
        Scenario {
            duration: SimDuration::from_mins(120),
            ..Scenario::paper(rate, seed)
        }
    }

    #[test]
    fn high_rate_comparison_matches_paper_shape() {
        // The full paper scenario (350 min): coordination must cut the peak
        // and the variation substantially while leaving the average intact.
        let comparison =
            compare(&Scenario::paper(ArrivalRate::High, 3), CpModel::Ideal).expect("valid");
        assert!(
            comparison.peak_reduction_percent() > 20.0,
            "peak reduction {}",
            comparison.peak_reduction_percent()
        );
        assert!(
            comparison.std_reduction_percent() > 20.0,
            "std reduction {}",
            comparison.std_reduction_percent()
        );
        assert!(
            comparison.average_gap_percent() < 3.0,
            "average gap {}",
            comparison.average_gap_percent()
        );
        assert_eq!(comparison.coordinated.outcome.deadline_misses, 0);
    }

    #[test]
    fn sample_count_matches_duration() {
        let result = run_strategy(
            &short_scenario(ArrivalRate::Low, 2),
            Strategy::Uncoordinated,
            CpModel::Ideal,
        )
        .expect("valid");
        // 0..=120 minutes inclusive.
        assert_eq!(result.samples.len(), 121);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let template = Scenario {
            duration: SimDuration::from_mins(60),
            ..Scenario::paper(ArrivalRate::High, 0)
        };
        let sequential = compare_seeds(&template, &CpModel::Ideal, 0..4).expect("valid");
        let parallel = compare_many(&template, &CpModel::Ideal, 0..4).expect("valid");
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.scenario.seed, s.scenario.seed, "seed order preserved");
            assert_eq!(p.coordinated.samples, s.coordinated.samples);
            assert_eq!(p.uncoordinated.samples, s.uncoordinated.samples);
            assert_eq!(
                p.coordinated.outcome.schedule_digest,
                s.coordinated.outcome.schedule_digest
            );
        }
    }

    #[test]
    fn reference_and_memoized_paths_agree() {
        let scenario = Scenario {
            duration: SimDuration::from_mins(90),
            ..Scenario::paper(ArrivalRate::High, 5)
        };
        let fast = run_strategy(&scenario, Strategy::coordinated(), CpModel::Ideal).expect("valid");
        let reference = run_strategy_reference(&scenario, Strategy::coordinated(), CpModel::Ideal)
            .expect("valid");
        assert_eq!(
            fast.outcome.schedule_digest, reference.outcome.schedule_digest,
            "memoized plane must issue byte-identical schedules"
        );
        assert_eq!(fast.outcome.trace, reference.outcome.trace);
        assert_eq!(
            fast.outcome.divergent_rounds,
            reference.outcome.divergent_rounds
        );
        assert_eq!(fast.samples, reference.samples);
    }

    #[test]
    fn empty_fault_plan_is_bit_compatible() {
        let scenario = short_scenario(ArrivalRate::High, 7);
        let cp = CpModel::LossyRecord {
            miss_probability: 0.2,
        };
        let plain = run_strategy(&scenario, Strategy::coordinated(), cp.clone()).expect("valid");
        let faulted = run_strategy_faulted(
            &scenario,
            Strategy::coordinated(),
            cp,
            &FaultPlan::empty(),
            None,
        )
        .expect("valid");
        assert_eq!(
            plain.outcome.schedule_digest,
            faulted.outcome.schedule_digest
        );
        assert_eq!(plain.outcome.trace, faulted.outcome.trace);
        assert_eq!(plain.samples, faulted.samples);
        assert_eq!(
            faulted.outcome.resilience,
            han_metrics::ResilienceStats::default()
        );
    }

    #[test]
    fn faulted_comparison_shares_the_timeline() {
        let scenario = short_scenario(ArrivalRate::Moderate, 11);
        let faults = FaultPlan::parse("down:2@10; up:2@30").expect("valid plan");
        let comparison = compare_faulted(&scenario, CpModel::Ideal, &faults, None).expect("valid");
        assert_eq!(
            comparison.uncoordinated.outcome.resilience.down_node_rounds,
            comparison.coordinated.outcome.resilience.down_node_rounds,
            "both strategies must face identical churn"
        );
        assert!(comparison.coordinated.outcome.resilience.down_node_rounds > 0);
        assert_eq!(comparison.coordinated.outcome.deadline_misses, 0);
    }

    #[test]
    fn fault_plan_outside_fleet_is_rejected() {
        let scenario = short_scenario(ArrivalRate::Low, 0);
        let faults = FaultPlan::parse("down:99@5").expect("parses");
        let err = run_strategy_faulted(
            &scenario,
            Strategy::Uncoordinated,
            CpModel::Ideal,
            &faults,
            None,
        )
        .expect_err("node 99 is outside the fleet");
        assert!(matches!(err, ScenarioError::InvalidFaultPlan { .. }));
    }

    #[test]
    fn multi_seed_aggregation() {
        let comparisons = compare_seeds(
            &short_scenario(ArrivalRate::Moderate, 0),
            &CpModel::Ideal,
            0..3,
        )
        .expect("valid");
        assert_eq!(comparisons.len(), 3);
        let mean_peak = mean_metric(&comparisons, Comparison::peak_reduction_percent);
        assert!(mean_peak.is_finite());
        assert_eq!(mean_metric(&[], |_| 1.0), 0.0);
    }
}
