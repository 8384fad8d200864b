//! Multi-home coordination: a neighborhood of HANs on one feeder.
//!
//! The paper evaluates a single Home Area Network. Real deployments hang
//! many homes off one distribution feeder, and the interesting system-level
//! questions — does per-home coordination still flatten the *feeder*? how
//! much diversity does the neighborhood add? — need a layer above
//! [`HanSimulation`](crate::simulation::HanSimulation). This module
//! provides it: a [`Neighborhood`] is a set of [`Home`]s, each an
//! independent [`Scenario`] with its own communication-plane model (its own
//! wireless network — homes do not share a CP). Running it fans the homes
//! out one-per-worker on the same rayon machinery as
//! [`compare_many`](crate::experiment::compare_many) and aggregates the
//! per-home load series into a feeder-level [`NeighborhoodReport`].
//!
//! # Examples
//!
//! ```
//! use han_core::cp::CpModel;
//! use han_core::neighborhood::Neighborhood;
//! use han_sim::time::SimDuration;
//! use han_workload::scenario::{ArrivalRate, Scenario};
//!
//! let template = Scenario {
//!     duration: SimDuration::from_mins(60), // keep the doctest quick
//!     ..Scenario::paper(ArrivalRate::Moderate, 0)
//! };
//! let hood = Neighborhood::uniform("street", &template, CpModel::Ideal, 3)?;
//! let report = hood.run()?;
//! assert_eq!(report.homes.len(), 3);
//! // Obligations are guaranteed home by home...
//! assert!(report
//!     .homes
//!     .iter()
//!     .all(|h| h.comparison.coordinated.outcome.deadline_misses == 0));
//! // ...and diversity keeps the feeder peak below the sum of home peaks.
//! assert!(report.coincidence_factor_coordinated() <= 1.0);
//! # Ok::<(), han_workload::fleet::ScenarioError>(())
//! ```

use crate::city::tree;
use crate::cp::CpModel;
use crate::experiment::{
    collect_results, compare_faulted, Comparison, CostComparison, SAMPLE_INTERVAL,
};
use crate::fault::FaultPlan;
use han_metrics::stats::Summary;
use han_metrics::tariff::Billing;
use han_workload::fleet::ScenarioError;
use han_workload::scenario::Scenario;
use rayon::prelude::*;

/// One home in a neighborhood: a scenario plus its own communication
/// plane.
///
/// Each home is an independent HAN — its Device Interfaces share state
/// only among themselves; the only coupling between homes is electrical,
/// through the feeder sum the report computes.
#[derive(Debug, Clone)]
pub struct Home {
    /// Name used in the report (defaults to the scenario name).
    pub name: String,
    /// The home's fleet + workload + duration + seed.
    pub scenario: Scenario,
    /// The home's own communication-plane model.
    pub cp: CpModel,
    /// This home's fault timeline (node churn, CP outages, signal
    /// dropout — see [`crate::fault`]). Empty by default; an empty plan
    /// reproduces the fault-free run bit for bit.
    pub faults: FaultPlan,
}

impl Home {
    /// Creates a home named after its scenario.
    pub fn new(scenario: Scenario, cp: CpModel) -> Self {
        Home {
            name: scenario.name.clone(),
            scenario,
            cp,
            faults: FaultPlan::empty(),
        }
    }

    /// Scripts a fault timeline onto this home (builder-style). Homes
    /// fail independently — each plan names nodes in its own HAN.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// A set of homes sharing one distribution feeder.
#[derive(Debug, Clone)]
pub struct Neighborhood {
    /// Name used in reports.
    pub name: String,
    /// The homes on the feeder.
    pub homes: Vec<Home>,
}

impl Neighborhood {
    /// Creates a neighborhood from explicit homes.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::EmptyNeighborhood`] if `homes` is empty.
    pub fn new(name: impl Into<String>, homes: Vec<Home>) -> Result<Self, ScenarioError> {
        if homes.is_empty() {
            return Err(ScenarioError::EmptyNeighborhood);
        }
        Ok(Neighborhood {
            name: name.into(),
            homes,
        })
    }

    /// `count` homes cloned from a template scenario, with per-home seeds
    /// (`template.seed + i`) so each home draws an independent workload —
    /// the diversity a real street has.
    ///
    /// The positional derivation is a **latent coupling**: home `i` of a
    /// seed-`s` street draws the same workload as home `i−1` of a
    /// seed-`s+1` street, and inserting a home reshuffles every
    /// downstream RNG stream. It is preserved here because released
    /// digests pin it; new call sites should prefer
    /// [`Neighborhood::uniform_stable`], and the city layer
    /// ([`crate::city`]) always derives stable seeds.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::EmptyNeighborhood`] if `count` is zero.
    pub fn uniform(
        name: impl Into<String>,
        template: &Scenario,
        cp: CpModel,
        count: usize,
    ) -> Result<Self, ScenarioError> {
        let homes = (0..count)
            .map(|i| {
                let scenario = Scenario {
                    name: format!("{} #{i}", template.name),
                    seed: template.seed.wrapping_add(i as u64),
                    ..template.clone()
                };
                Home::new(scenario, cp.clone())
            })
            .collect();
        Neighborhood::new(name, homes)
    }

    /// Like [`Neighborhood::uniform`], but with **stable** per-home
    /// seeds: home `i` draws from
    /// [`mix_seed`](han_sim::rng::mix_seed)`(template.seed, i)`, a
    /// splitmix over the *(seed, home-id)* pair. Neighboring template
    /// seeds share no home workloads, and growing the street never
    /// reshuffles an existing home's RNG stream. Digests differ from
    /// [`Neighborhood::uniform`] by design — this is a different seed
    /// derivation, not a different simulator.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::EmptyNeighborhood`] if `count` is zero.
    pub fn uniform_stable(
        name: impl Into<String>,
        template: &Scenario,
        cp: CpModel,
        count: usize,
    ) -> Result<Self, ScenarioError> {
        let homes = (0..count)
            .map(|i| {
                let scenario = Scenario {
                    name: format!("{} #{i}", template.name),
                    seed: han_sim::rng::mix_seed(template.seed, i as u64),
                    ..template.clone()
                };
                Home::new(scenario, cp.clone())
            })
            .collect();
        Neighborhood::new(name, homes)
    }

    /// Total devices across all homes.
    pub fn device_count(&self) -> usize {
        self.homes.iter().map(|h| h.scenario.device_count()).sum()
    }

    /// Runs the neighborhood under a feeder coordination policy: homes
    /// iteratively re-plan against the broadcast [`FeederSignal`] until
    /// the aggregate converges (see [`crate::feeder`]). The returned
    /// [`FeederReport`] carries the signal-coordinated end state, the
    /// per-iteration [`ConvergenceTrace`](crate::feeder::ConvergenceTrace)
    /// and both signal-free baselines.
    ///
    /// [`FeederSignal`]: crate::feeder::FeederSignal
    /// [`FeederReport`]: crate::feeder::FeederReport
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] for an invalid policy or home scenario.
    ///
    /// # Examples
    ///
    /// The minimal happy path — a two-home street under a generous
    /// capacity cap (converges on the first pass):
    ///
    /// ```
    /// use han_core::cp::CpModel;
    /// use han_core::feeder::{FeederPolicy, FeederSignal};
    /// use han_core::neighborhood::Neighborhood;
    /// use han_sim::time::SimDuration;
    /// use han_workload::scenario::{ArrivalRate, Scenario};
    /// use han_workload::signal::PowerCapProfile;
    ///
    /// let template = Scenario {
    ///     duration: SimDuration::from_mins(45), // keep the doctest quick
    ///     ..Scenario::paper(ArrivalRate::Moderate, 0)
    /// };
    /// let hood = Neighborhood::uniform("street", &template, CpModel::Ideal, 2)?;
    /// let cap = PowerCapProfile::constant(60.0)?; // roomy feeder limit
    /// let policy = FeederPolicy::gauss_seidel(FeederSignal::Capacity(cap));
    /// let report = hood.run_with(&policy)?;
    /// assert!(report.iterations() >= 1);
    /// // A feeder signal shapes admission only — never an obligation.
    /// assert_eq!(report.total_deadline_misses(), 0);
    /// # Ok::<(), han_workload::fleet::ScenarioError>(())
    /// ```
    pub fn run_with(
        &self,
        policy: &crate::feeder::FeederPolicy,
    ) -> Result<crate::feeder::FeederReport, ScenarioError> {
        crate::feeder::coordinate(self, policy)
    }

    /// Runs every home (both strategies each, one home per worker — homes
    /// are fully independent simulations) and aggregates the feeder.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] for the first invalid home scenario.
    pub fn run(&self) -> Result<NeighborhoodReport, ScenarioError> {
        let homes = collect_results(
            self.homes
                .par_iter()
                .map(|home| {
                    compare_faulted(&home.scenario, home.cp.clone(), &home.faults, None).map(
                        |comparison| HomeResult {
                            name: home.name.clone(),
                            comparison,
                        },
                    )
                })
                .collect(),
        )?;
        Ok(NeighborhoodReport::aggregate(self.name.clone(), homes))
    }
}

/// One home's outcome inside a neighborhood run.
#[derive(Debug, Clone)]
pub struct HomeResult {
    /// The home's name.
    pub name: String,
    /// Baseline-vs-coordinated comparison on the home's own workload.
    pub comparison: Comparison,
}

/// Feeder-level aggregate of a neighborhood run.
///
/// The feeder series is the minute-by-minute sum of every home's load
/// (homes with shorter horizons contribute zero past their end), computed
/// separately for the uncoordinated and coordinated strategies.
#[derive(Debug, Clone)]
pub struct NeighborhoodReport {
    /// The neighborhood's name.
    pub name: String,
    /// Per-home comparisons, in home order.
    pub homes: Vec<HomeResult>,
    /// Feeder load samples (kW per minute), all homes uncoordinated.
    pub feeder_samples_uncoordinated: Vec<f64>,
    /// Feeder load samples (kW per minute), all homes coordinated.
    pub feeder_samples_coordinated: Vec<f64>,
    /// Summary of the uncoordinated feeder series.
    pub feeder_uncoordinated: Summary,
    /// Summary of the coordinated feeder series.
    pub feeder_coordinated: Summary,
}

impl NeighborhoodReport {
    fn aggregate(name: String, homes: Vec<HomeResult>) -> Self {
        let mut unco = Vec::new();
        let mut coord = Vec::new();
        for home in &homes {
            tree::sum_series(&mut unco, &home.comparison.uncoordinated.samples);
            tree::sum_series(&mut coord, &home.comparison.coordinated.samples);
        }
        let feeder_uncoordinated = Summary::of(&unco);
        let feeder_coordinated = Summary::of(&coord);
        NeighborhoodReport {
            name,
            homes,
            feeder_samples_uncoordinated: unco,
            feeder_samples_coordinated: coord,
            feeder_uncoordinated,
            feeder_coordinated,
        }
    }

    /// Feeder peak-load reduction achieved by per-home coordination,
    /// percent.
    pub fn feeder_peak_reduction_percent(&self) -> f64 {
        han_metrics::stats::reduction_percent(
            self.feeder_uncoordinated.peak,
            self.feeder_coordinated.peak,
        )
    }

    /// Feeder load-variation (std-dev) reduction, percent.
    pub fn feeder_std_reduction_percent(&self) -> f64 {
        han_metrics::stats::reduction_percent(
            self.feeder_uncoordinated.std_dev,
            self.feeder_coordinated.std_dev,
        )
    }

    /// Relative difference of the feeder average loads, percent (should be
    /// ≈ 0: coordination shifts load, it does not shed it).
    pub fn feeder_average_gap_percent(&self) -> f64 {
        let base = self.feeder_uncoordinated.mean;
        if base == 0.0 {
            0.0
        } else {
            (self.feeder_coordinated.mean - base).abs() / base * 100.0
        }
    }

    /// Coincidence factor of the uncoordinated feeder: feeder peak over
    /// the sum of individual home peaks (≤ 1; the classic
    /// distribution-engineering diversity measure).
    pub fn coincidence_factor_uncoordinated(&self) -> f64 {
        tree::coincidence(
            self.feeder_uncoordinated.peak,
            self.homes
                .iter()
                .map(|h| h.comparison.uncoordinated.summary.peak),
        )
    }

    /// Coincidence factor of the coordinated feeder.
    pub fn coincidence_factor_coordinated(&self) -> f64 {
        tree::coincidence(
            self.feeder_coordinated.peak,
            self.homes
                .iter()
                .map(|h| h.comparison.coordinated.summary.peak),
        )
    }

    /// Prices the feeder-level aggregate (per-minute sample series) under
    /// a billing scheme, both strategies — what the street as a whole pays
    /// if it were billed at the feeder.
    pub fn feeder_costs(&self, billing: &Billing) -> CostComparison {
        CostComparison {
            uncoordinated: billing
                .cost_of_samples(SAMPLE_INTERVAL, &self.feeder_samples_uncoordinated),
            coordinated: billing.cost_of_samples(SAMPLE_INTERVAL, &self.feeder_samples_coordinated),
        }
    }

    /// Prices every home's exact load traces under a billing scheme,
    /// `(home name, costs)` in home order.
    pub fn home_costs(&self, billing: &Billing) -> Vec<(String, CostComparison)> {
        self.homes
            .iter()
            .map(|h| (h.name.clone(), h.comparison.costs(billing)))
            .collect()
    }

    /// Mean of a per-home metric.
    pub fn mean_home_metric(&self, metric: impl Fn(&Comparison) -> f64) -> f64 {
        if self.homes.is_empty() {
            return 0.0;
        }
        self.homes
            .iter()
            .map(|h| metric(&h.comparison))
            .sum::<f64>()
            / self.homes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_device::duty_cycle::DutyCycleConstraints;
    use han_device::ApplianceKind;
    use han_sim::time::SimDuration;
    use han_workload::fleet::DeviceClass;
    use han_workload::scenario::{ArrivalRate, Scenario};

    fn short_paper(seed: u64) -> Scenario {
        Scenario {
            duration: SimDuration::from_mins(90),
            ..Scenario::paper(ArrivalRate::Moderate, seed)
        }
    }

    #[test]
    fn uniform_neighborhood_varies_seeds() {
        let hood = Neighborhood::uniform("street", &short_paper(10), CpModel::Ideal, 4).unwrap();
        assert_eq!(hood.homes.len(), 4);
        assert_eq!(hood.device_count(), 4 * 26);
        let seeds: Vec<u64> = hood.homes.iter().map(|h| h.scenario.seed).collect();
        assert_eq!(seeds, vec![10, 11, 12, 13]);
    }

    #[test]
    fn uniform_stable_decorrelates_neighboring_template_seeds() {
        let a = Neighborhood::uniform_stable("s", &short_paper(10), CpModel::Ideal, 4).unwrap();
        let b = Neighborhood::uniform_stable("s", &short_paper(11), CpModel::Ideal, 4).unwrap();
        // The positional path would alias a's home i+1 with b's home i;
        // the stable path shares no seed between the two streets at all.
        for ha in &a.homes {
            for hb in &b.homes {
                assert_ne!(ha.scenario.seed, hb.scenario.seed);
            }
        }
        // Growing a stable street never reshuffles existing homes.
        let grown = Neighborhood::uniform_stable("s", &short_paper(10), CpModel::Ideal, 6).unwrap();
        for (small, big) in a.homes.iter().zip(&grown.homes) {
            assert_eq!(small.scenario.seed, big.scenario.seed);
        }
    }

    #[test]
    fn empty_neighborhood_rejected() {
        assert!(matches!(
            Neighborhood::new("empty", vec![]),
            Err(ScenarioError::EmptyNeighborhood)
        ));
        assert!(matches!(
            Neighborhood::uniform("empty", &short_paper(0), CpModel::Ideal, 0),
            Err(ScenarioError::EmptyNeighborhood)
        ));
    }

    #[test]
    fn feeder_aggregates_sum_of_homes() {
        let hood = Neighborhood::uniform("street", &short_paper(1), CpModel::Ideal, 3).unwrap();
        let report = hood.run().unwrap();
        assert_eq!(report.homes.len(), 3);
        // The feeder series is the exact elementwise sum of home series.
        let minute = 40;
        let sum: f64 = report
            .homes
            .iter()
            .map(|h| h.comparison.coordinated.samples[minute])
            .sum();
        assert!((report.feeder_samples_coordinated[minute] - sum).abs() < 1e-9);
        // Energy conservation at the feeder: averages match.
        assert!(report.feeder_average_gap_percent() < 5.0);
        // On this fixed workload, coordination also shaves the feeder peak
        // (a regression probe, not a mathematical invariant: per-home peak
        // reduction does not imply feeder-sum peak reduction in general).
        assert!(report.feeder_coordinated.peak <= report.feeder_uncoordinated.peak + 1e-9);
    }

    #[test]
    fn costs_are_wired_through() {
        let hood = Neighborhood::uniform("street", &short_paper(4), CpModel::Ideal, 2).unwrap();
        let report = hood.run().unwrap();
        let billing = Billing::typical_residential();
        let feeder = report.feeder_costs(&billing);
        // Same energy delivered, lower peak: the coordinated bill never
        // exceeds the uncoordinated one under a flat-window tariff run.
        assert!(feeder.uncoordinated.total() > 0.0);
        assert!(feeder.coordinated.demand_charge <= feeder.uncoordinated.demand_charge + 1e-9);
        let homes = report.home_costs(&billing);
        assert_eq!(homes.len(), 2);
        // The feeder energy bill is (up to sampling) the sum of home bills.
        let home_energy: f64 = homes.iter().map(|(_, c)| c.coordinated.energy_cost).sum();
        assert!(
            (feeder.coordinated.energy_cost - home_energy).abs()
                / home_energy.max(f64::MIN_POSITIVE)
                < 0.05,
            "feeder {} vs homes {}",
            feeder.coordinated.energy_cost,
            home_energy
        );
        assert!(homes.iter().all(|(_, c)| c.savings_percent().is_finite()));
    }

    #[test]
    fn coincidence_factors_bounded() {
        let hood = Neighborhood::uniform("street", &short_paper(2), CpModel::Ideal, 4).unwrap();
        let report = hood.run().unwrap();
        for cf in [
            report.coincidence_factor_uncoordinated(),
            report.coincidence_factor_coordinated(),
        ] {
            assert!(cf > 0.0 && cf <= 1.0 + 1e-9, "coincidence factor {cf}");
        }
        let mean_peak_red =
            report.mean_home_metric(crate::experiment::Comparison::peak_reduction_percent);
        assert!(mean_peak_red.is_finite());
    }

    #[test]
    fn heterogeneous_homes_run_end_to_end() {
        // Two different homes: the paper fleet and a small mixed fleet,
        // one of them on a lossy CP.
        let mixed = Scenario::builder("mixed home")
            .class(DeviceClass::new(
                "ac",
                ApplianceKind::AirConditioner,
                1.5,
                DutyCycleConstraints::paper(),
                2,
            ))
            .class(DeviceClass::new(
                "heater",
                ApplianceKind::WaterHeater,
                2.0,
                DutyCycleConstraints::paper(),
                1,
            ))
            .poisson(10.0)
            .duration(SimDuration::from_mins(90))
            .seed(5)
            .build()
            .unwrap();
        let hood = Neighborhood::new(
            "two homes",
            vec![
                Home::new(short_paper(3), CpModel::Ideal),
                Home::new(
                    mixed,
                    CpModel::LossyRound {
                        miss_probability: 0.2,
                    },
                ),
            ],
        )
        .unwrap();
        let report = hood.run().unwrap();
        assert_eq!(report.homes.len(), 2);
        assert_eq!(report.homes[1].name, "mixed home");
        assert_eq!(
            report.homes[1]
                .comparison
                .coordinated
                .outcome
                .deadline_misses,
            0
        );
        assert!(report.feeder_uncoordinated.peak > 0.0);
    }

    #[test]
    fn one_faulty_home_leaves_neighbors_untouched() {
        // Two identical homes; only the second suffers churn. The healthy
        // home's result must be bit-identical to a fault-free street, and
        // even the faulty home keeps its obligations.
        let faults = FaultPlan::parse("down:4@10; up:4@40").expect("valid plan");
        let healthy = Neighborhood::new(
            "street",
            vec![
                Home::new(short_paper(20), CpModel::Ideal),
                Home::new(short_paper(21), CpModel::Ideal),
            ],
        )
        .unwrap();
        let faulty = Neighborhood::new(
            "street",
            vec![
                Home::new(short_paper(20), CpModel::Ideal),
                Home::new(short_paper(21), CpModel::Ideal).with_faults(faults),
            ],
        )
        .unwrap();
        let a = healthy.run().unwrap();
        let b = faulty.run().unwrap();
        assert_eq!(
            a.homes[0].comparison.coordinated.outcome.schedule_digest,
            b.homes[0].comparison.coordinated.outcome.schedule_digest,
            "homes do not share a CP: faults must stay inside their home"
        );
        let faulted = &b.homes[1].comparison.coordinated.outcome;
        assert!(faulted.resilience.down_node_rounds > 0);
        assert_eq!(faulted.deadline_misses, 0);
        assert_eq!(
            a.homes[1].comparison.coordinated.outcome.resilience,
            han_metrics::ResilienceStats::default()
        );
    }

    #[test]
    fn parallel_run_is_deterministic() {
        let hood = Neighborhood::uniform("street", &short_paper(7), CpModel::Ideal, 3).unwrap();
        let a = hood.run().unwrap();
        let b = hood.run().unwrap();
        assert_eq!(
            a.feeder_samples_coordinated, b.feeder_samples_coordinated,
            "one-home-per-worker must not change results"
        );
        for (x, y) in a.homes.iter().zip(&b.homes) {
            assert_eq!(
                x.comparison.coordinated.outcome.schedule_digest,
                y.comparison.coordinated.outcome.schedule_digest
            );
        }
    }
}
