//! City-scale simulation: feeders × homes on streaming shards.
//!
//! The paper evaluates one Home Area Network; the
//! [`Neighborhood`](crate::neighborhood) layer scaled that to a street.
//! At city scale (thousands of feeders × tens of homes) the homes still
//! share no state — each is its own HAN with its own communication
//! plane, coupled to the others only electrically through the feeder
//! sum — so this module partitions feeders across **shards** (the unit
//! of rayon parallelism) and each shard **streams** its homes: build
//! one home, run both strategies on the synchronous round loop, fold
//! the results into the feeder's [`FeederAggregate`], drop the home.
//! A shard therefore holds one home in memory, whatever its size.
//!
//! Three properties make the scale-up safe, and the differential battery
//! in `tests/prop_city.rs` pins each one:
//!
//! 1. **City ≡ per-home.** A shard runs each home through
//!    [`compare_faulted`] — the same function [`Neighborhood::run`]
//!    calls — so a city run is digest- and trace-identical per home to
//!    the same homes run through [`Neighborhood::run`].
//! 2. **Shard-count invariance.** Feeders are partitioned contiguously
//!    across shards, each feeder folds into one [`FeederAggregate`], and
//!    the reduction orders aggregates by feeder id before summing — so
//!    `--shards 1` and `--shards K` produce byte-identical reports.
//! 3. **Stable per-home seeds.** Home `i` of feeder `f` draws its
//!    workload from `mix_seed(city_seed, home_id)` — a splitmix over the
//!    *(seed, home-id)* pair, not a positional offset — so adding homes
//!    or feeders never reshuffles another home's RNG stream (the latent
//!    coupling [`Neighborhood::uniform`]'s positional `seed + i` has,
//!    preserved there for digest compatibility and fixed here).
//!
//! No per-home trace is materialized at city scale: a shard folds each
//! feeder's homes into one [`FeederAggregate`] (counters, the two
//! per-minute series, per-home digests) and hands the aggregates up the
//! feeder → substation → city tree as plain values.
//! Nothing in-process is encoded; only a worker process of the [`mp`]
//! fleet serializes its aggregates, as `HANFAGG1` records.
//!
//! # Examples
//!
//! ```
//! use han_core::city::{City, CitySpec};
//! use han_core::cp::CpModel;
//! use han_sim::time::SimDuration;
//! use han_workload::scenario::{ArrivalRate, Scenario};
//!
//! let template = Scenario {
//!     duration: SimDuration::from_mins(45), // keep the doctest quick
//!     ..Scenario::paper(ArrivalRate::Moderate, 0)
//! };
//! let spec = CitySpec::uniform("demo", &template, CpModel::Ideal, 2, 2);
//! let report = City::new(spec)?.run()?;
//! assert_eq!(report.feeders.len(), 2);
//! assert_eq!(report.homes, 4);
//! // Diversity at every level: the city never peaks above the sum of
//! // its feeder peaks.
//! assert!(report.coincidence_factor_coordinated() <= 1.0);
//! # Ok::<(), han_workload::fleet::ScenarioError>(())
//! ```

pub mod mp;
pub(crate) mod tree;

use std::ops::Range;

use crate::cp::CpModel;
use crate::experiment::{
    collect_results, compare_faulted, Comparison, CostComparison, SAMPLE_INTERVAL,
};
use crate::fault::{FaultEvent, FaultPlan};
use crate::neighborhood::{Home, Neighborhood};
use han_metrics::stats::Summary;
use han_metrics::tariff::Billing;
use han_obs::{Counter, Gauge, Obs};
use han_sim::rng::mix_seed;
use han_workload::fleet::ScenarioError;
use han_workload::scenario::{Scenario, Workload};
use rayon::prelude::*;

pub use tree::{FeederAggregate, HomeDigest, SubstationSummary};

/// Shards used when [`CitySpec::shards`] is 0 (auto), capped by the
/// feeder count. A fixed default — not the worker count — so a spec's
/// partitioning (and therefore its shard-level obs metrics) does not
/// depend on the machine it runs on; the report itself is
/// shard-invariant either way.
pub(crate) const DEFAULT_SHARDS: usize = 8;

/// Feeders reporting to one substation when
/// [`CitySpec::substation_fanin`] is 0 (auto).
pub(crate) const DEFAULT_SUBSTATION_FANIN: usize = 8;

/// Contiguous ranges partitioning `0..items` into `parts` pieces whose
/// sizes differ by at most one — the single partition function shards
/// *and* worker fleets share. A pure function of its two arguments:
/// in-process shard partitioning and multi-process worker assignment
/// both derive from it, which is what lets [`mp`] re-derive a worker's
/// feeder range from `(spec, worker index, worker count)` alone.
pub(crate) fn partition(items: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, items.max(1));
    let base = items / parts;
    let extra = items % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Specification of a city run: the grid shape, the workload mix, and
/// the shared environment every home runs under.
#[derive(Debug, Clone)]
pub struct CitySpec {
    /// Name used in reports.
    pub name: String,
    /// Feeders in the city (the unit of shard partitioning).
    pub feeders: usize,
    /// Homes on each feeder.
    pub homes_per_feeder: usize,
    /// The workload mix: home `home_id` is stamped from template
    /// `templates[home_id % templates.len()]` (round-robin), with its
    /// own seed derived from ([`CitySpec::seed`], `home_id`). A
    /// one-template mix is a uniform city.
    pub templates: Vec<Scenario>,
    /// Communication-plane model every home runs under (each home gets
    /// its own independent instance — homes do not share a CP).
    pub cp: CpModel,
    /// Fault timeline applied to every home (empty by default).
    pub faults: FaultPlan,
    /// City seed; per-home seeds derive from it via
    /// [`mix_seed`]`(seed, home_id)`.
    pub seed: u64,
    /// Shards to partition feeders across; 0 means auto
    /// (`min(feeders, 8)`). The report is identical
    /// for every valid value — that is the headline contract.
    pub shards: usize,
    /// Feeders per substation in the reduction tree; 0 means 8.
    pub substation_fanin: usize,
}

impl CitySpec {
    /// A uniform city: every home stamped from one template scenario.
    /// The template's own seed is ignored — per-home seeds derive from
    /// the spec seed (which this constructor takes from the template,
    /// override with [`CitySpec::with_seed`]).
    pub fn uniform(
        name: impl Into<String>,
        template: &Scenario,
        cp: CpModel,
        feeders: usize,
        homes_per_feeder: usize,
    ) -> Self {
        CitySpec {
            name: name.into(),
            feeders,
            homes_per_feeder,
            templates: vec![template.clone()],
            cp,
            faults: FaultPlan::empty(),
            seed: template.seed,
            shards: 0,
            substation_fanin: 0,
        }
    }

    /// Replaces the city seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets an explicit shard count (builder-style).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Scripts a fault timeline onto every home (builder-style).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the substation fan-in (builder-style).
    #[must_use]
    pub fn with_substation_fanin(mut self, fanin: usize) -> Self {
        self.substation_fanin = fanin;
        self
    }

    /// Validates the grid shape.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::EmptyCity`] for zero feeders, zero homes per
    /// feeder or an empty template mix;
    /// [`ScenarioError::TooManyShards`] when an explicit shard count
    /// exceeds the feeder count (feeders are the partitioning unit).
    pub(crate) fn validate(&self) -> Result<(), ScenarioError> {
        if self.feeders == 0 || self.homes_per_feeder == 0 || self.templates.is_empty() {
            return Err(ScenarioError::EmptyCity);
        }
        if self.shards > self.feeders {
            return Err(ScenarioError::TooManyShards {
                shards: self.shards,
                feeders: self.feeders,
            });
        }
        Ok(())
    }

    /// Homes in the city.
    pub fn home_count(&self) -> usize {
        self.feeders * self.homes_per_feeder
    }

    /// Devices in the city (sum over the stamped homes).
    pub fn device_count(&self) -> usize {
        (0..self.feeders)
            .flat_map(|f| (0..self.homes_per_feeder).map(move |h| (f, h)))
            .map(|(f, h)| self.template_for(self.home_id(f, h)).device_count())
            .sum()
    }

    /// City-wide id of home `slot` on feeder `feeder`.
    pub(crate) fn home_id(&self, feeder: usize, slot: usize) -> u64 {
        (feeder * self.homes_per_feeder + slot) as u64
    }

    fn template_for(&self, home_id: u64) -> &Scenario {
        &self.templates[(home_id % self.templates.len() as u64) as usize]
    }

    /// The concrete scenario home `slot` of feeder `feeder` runs:
    /// template by round-robin over the mix, seed by
    /// [`mix_seed`]`(city seed, home id)` — stable under grid growth.
    pub fn home_scenario(&self, feeder: usize, slot: usize) -> Scenario {
        let home_id = self.home_id(feeder, slot);
        let template = self.template_for(home_id);
        Scenario {
            name: format!("{}/f{feeder}/h{slot}", self.name),
            seed: mix_seed(self.seed, home_id),
            ..template.clone()
        }
    }

    /// One feeder of the city as a plain [`Neighborhood`] — the
    /// equivalence oracle: running this through [`Neighborhood::run`]
    /// must reproduce the city run's per-home digests and the feeder's
    /// aggregate series exactly.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::EmptyCity`] on an invalid spec;
    /// `feeder` must be in range (panics otherwise, like slice indexing).
    pub fn feeder_neighborhood(&self, feeder: usize) -> Result<Neighborhood, ScenarioError> {
        self.validate()?;
        assert!(feeder < self.feeders, "feeder {feeder} out of range");
        let homes = (0..self.homes_per_feeder)
            .map(|slot| {
                Home::new(self.home_scenario(feeder, slot), self.cp.clone())
                    .with_faults(self.faults.clone())
            })
            .collect();
        Neighborhood::new(format!("{}/f{feeder}", self.name), homes)
    }

    /// The shard count a run actually uses: the explicit setting, or
    /// `min(feeders, 8)` for auto.
    pub fn effective_shards(&self) -> usize {
        if self.shards == 0 {
            self.feeders.clamp(1, DEFAULT_SHARDS)
        } else {
            self.shards
        }
    }

    /// The substation fan-in a run actually uses.
    pub(crate) fn effective_fanin(&self) -> usize {
        if self.substation_fanin == 0 {
            DEFAULT_SUBSTATION_FANIN
        } else {
            self.substation_fanin
        }
    }

    /// A 64-bit fingerprint of everything that determines a worker's
    /// record stream: grid shape, city seed, the workload mix, the CP
    /// family and the fault plan. The [`mp`] `HANCITY1` handshake
    /// carries it so a parent and a worker that somehow derived
    /// *different* specs fail with a typed mismatch instead of silently
    /// reducing mixed results.
    ///
    /// Deliberately **excludes** the report-shaping knobs that do not
    /// change the records themselves: the display name, the shard
    /// count (the report is shard-invariant by contract) and the
    /// substation fan-in (a parent-side reduction detail).
    pub(crate) fn fingerprint(&self) -> u64 {
        // The same rotate-xor-multiply fold the checkpoint codec uses
        // for its run fingerprint.
        let mut d: u64 = 0x4841_4E43_4954_5931; // "HANCITY1"
        let mut fold = |v: u64| d = (d.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        fold(self.feeders as u64);
        fold(self.homes_per_feeder as u64);
        fold(self.seed);
        fold(self.templates.len() as u64);
        for t in &self.templates {
            fold(t.fleet.device_count() as u64);
            fold(t.duration.as_micros());
            match &t.workload {
                Workload::Poisson { rate_per_hour } => {
                    fold(1);
                    fold(rate_per_hour.to_bits());
                }
                Workload::Daily(_) => fold(2),
            }
            fold(u64::from(t.power_cap.is_some()));
        }
        fold(match &self.cp {
            CpModel::Ideal => 0,
            CpModel::LossyRound { miss_probability } => 1 | (miss_probability.to_bits() << 8),
            CpModel::LossyRecord { miss_probability } => 2 | (miss_probability.to_bits() << 8),
            CpModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                ..
            } => 3 | ((p_good_to_bad.to_bits() ^ p_bad_to_good.to_bits()) << 8),
            CpModel::Packet { .. } => 4,
        });
        fold(self.faults.events().len() as u64);
        for event in self.faults.events() {
            match *event {
                FaultEvent::NodeDown { at, node } => {
                    fold(1);
                    fold(at.as_micros());
                    fold(node as u64);
                }
                FaultEvent::NodeUp { at, node } => {
                    fold(2);
                    fold(at.as_micros());
                    fold(node as u64);
                }
                FaultEvent::CpOutage { from, until } => {
                    fold(3);
                    fold(from.as_micros());
                    fold(until.as_micros());
                }
                FaultEvent::SignalLoss { from, until } => {
                    fold(4);
                    fold(from.as_micros());
                    fold(until.as_micros());
                }
            }
        }
        d
    }
}

/// A runnable city: a validated [`CitySpec`] plus an observability
/// handle.
#[derive(Debug, Clone)]
pub struct City {
    spec: CitySpec,
    obs: Obs,
}

impl City {
    /// Validates `spec` and wraps it.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::EmptyCity`] for zero feeders, zero homes per
    /// feeder or an empty template mix;
    /// [`ScenarioError::TooManyShards`] when an explicit shard count
    /// exceeds the feeder count.
    pub fn new(spec: CitySpec) -> Result<Self, ScenarioError> {
        spec.validate()?;
        Ok(City {
            spec,
            obs: Obs::off(),
        })
    }

    /// The validated spec.
    pub fn spec(&self) -> &CitySpec {
        &self.spec
    }

    /// Attaches an observability sink. City metrics are published
    /// post-hoc from run totals — the homes themselves always run
    /// unobserved, so instrumented runs stay bit-identical.
    pub fn set_observer(&mut self, obs: Obs) -> &mut Self {
        self.obs = obs;
        self
    }

    /// Contiguous feeder ranges, one per shard, sizes differing by at
    /// most one. Partitioning is a pure function of (feeders, shards) —
    /// never of worker count — which the shard-invariance contract
    /// depends on.
    fn shard_ranges(&self) -> Vec<Range<usize>> {
        partition(self.spec.feeders, self.spec.effective_shards())
    }

    /// Runs the city: shards in parallel, each streaming its homes one
    /// at a time, reduced through the feeder → substation → city tree.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] for the first invalid home scenario, in
    /// feeder/home order.
    pub fn run(&self) -> Result<CityReport, ScenarioError> {
        let ranges = self.shard_ranges();
        let shards = collect_results(
            ranges
                .par_iter()
                .map(|range| self.run_shard_range(range.clone()))
                .collect(),
        )?;
        self.publish_obs(&shards);

        // Order by feeder id: from here on, nothing remembers which shard
        // ran which feeder.
        let mut feeders: Vec<FeederAggregate> = shards.into_iter().flatten().collect();
        feeders.sort_by_key(|f| f.feeder);
        Ok(CityReport::reduce(
            self.spec.name.clone(),
            feeders,
            self.spec.effective_fanin(),
        ))
    }

    /// Runs one shard's contiguous feeder range home by home: each home
    /// runs both strategies through [`compare_faulted`], folds into its
    /// feeder's aggregate and is dropped before the next one is built.
    /// Returns the range's aggregates in feeder order.
    fn run_shard_range(&self, range: Range<usize>) -> Result<Vec<FeederAggregate>, ScenarioError> {
        let mut shard = Vec::with_capacity(range.len());
        for feeder in range {
            let mut agg = FeederAggregate {
                feeder: feeder as u32,
                homes: 0,
                devices: 0,
                rounds: 0,
                deadline_misses: 0,
                windows_served: 0,
                divergent_rounds: 0,
                energy_uncoordinated_kwh: 0.0,
                energy_coordinated_kwh: 0.0,
                sum_home_peaks_uncoordinated: 0.0,
                sum_home_peaks_coordinated: 0.0,
                samples_uncoordinated: Vec::new(),
                samples_coordinated: Vec::new(),
                home_digests: Vec::new(),
            };
            for slot in 0..self.spec.homes_per_feeder {
                let scenario = self.spec.home_scenario(feeder, slot);
                let Comparison {
                    uncoordinated: unco,
                    coordinated: coord,
                    ..
                } = compare_faulted(&scenario, self.spec.cp.clone(), &self.spec.faults, None)?;

                agg.homes += 1;
                agg.devices += scenario.device_count() as u32;
                agg.rounds += coord.outcome.rounds;
                agg.deadline_misses += u64::from(coord.outcome.deadline_misses);
                agg.windows_served += u64::from(coord.outcome.windows_served);
                agg.divergent_rounds += coord.outcome.divergent_rounds;
                agg.energy_uncoordinated_kwh += unco.outcome.energy_kwh;
                agg.energy_coordinated_kwh += coord.outcome.energy_kwh;
                agg.sum_home_peaks_uncoordinated += unco.summary.peak;
                agg.sum_home_peaks_coordinated += coord.summary.peak;
                tree::sum_series(&mut agg.samples_uncoordinated, &unco.samples);
                tree::sum_series(&mut agg.samples_coordinated, &coord.samples);
                agg.home_digests.push(HomeDigest {
                    home: self.spec.home_id(feeder, slot),
                    uncoordinated: unco.outcome.schedule_digest,
                    coordinated: coord.outcome.schedule_digest,
                });
            }
            shard.push(agg);
        }
        Ok(shard)
    }

    /// Publishes run totals into the observability plane. Coherence
    /// contract (asserted in `prop_obs.rs`): the sum of the per-shard
    /// [`Counter::CityShardRounds`] increments equals the single
    /// [`Counter::CityRounds`] increment.
    fn publish_obs(&self, shards: &[Vec<FeederAggregate>]) {
        if !self.obs.enabled() {
            return;
        }
        let mut max_homes = 0u64;
        let mut max_devices = 0u64;
        let mut rounds = 0u64;
        let mut total = 0u64;
        for shard in shards {
            let shard_rounds: u64 = shard.iter().map(|f| f.rounds).sum();
            let homes: u64 = shard.iter().map(|f| u64::from(f.homes)).sum();
            let devices: u64 = shard.iter().map(|f| u64::from(f.devices)).sum();
            self.obs.add(Counter::CityShardRounds, shard_rounds);
            rounds += shard_rounds;
            total += devices;
            max_homes = max_homes.max(homes);
            max_devices = max_devices.max(devices);
        }
        self.obs.add(Counter::CityRounds, rounds);
        self.obs.gauge_max(Gauge::CityShardHomes, max_homes);
        // 1000 = perfectly balanced; lower = the largest shard carries
        // proportionally more devices than the mean.
        let k = shards.len() as u64;
        if max_devices > 0 {
            self.obs.gauge(
                Gauge::CityShardImbalancePermille,
                (total * 1000) / (k * max_devices),
            );
        }
    }
}

/// The reduced outcome of a [`City::run`]: per-feeder aggregates,
/// substation summaries, and the city-level series for both strategies.
///
/// Contains nothing shard-dependent — two runs of the same spec with
/// different shard counts compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct CityReport {
    /// The city's name.
    pub name: String,
    /// Per-feeder aggregates, in feeder order.
    pub feeders: Vec<FeederAggregate>,
    /// Substation reductions (groups of [`CitySpec::substation_fanin`]
    /// feeders), in substation order.
    pub substations: Vec<SubstationSummary>,
    /// City load per minute, all homes uncoordinated (kW).
    pub samples_uncoordinated: Vec<f64>,
    /// City load per minute, all homes coordinated (kW).
    pub samples_coordinated: Vec<f64>,
    /// Summary of the uncoordinated city series.
    pub uncoordinated: Summary,
    /// Summary of the coordinated city series.
    pub coordinated: Summary,
    /// Homes simulated.
    pub homes: usize,
    /// Devices simulated.
    pub devices: usize,
    /// Communication rounds executed (coordinated runs, all homes).
    pub rounds: u64,
    /// Deadline misses (coordinated runs, all homes).
    pub deadline_misses: u64,
    /// Windows served (coordinated runs, all homes).
    pub windows_served: u64,
    /// Divergent rounds (coordinated runs, all homes; 0 is the
    /// correctness expectation).
    pub divergent_rounds: u64,
    /// Energy delivered, uncoordinated (kWh).
    pub energy_uncoordinated_kwh: f64,
    /// Energy delivered, coordinated (kWh).
    pub energy_coordinated_kwh: f64,
    /// Per-home digest triples, city-wide home-id order — the
    /// equivalence probe the differential tests compare against
    /// [`Neighborhood::run`].
    pub home_digests: Vec<HomeDigest>,
}

impl CityReport {
    /// Folds ordered feeder aggregates into the city report.
    fn reduce(name: String, feeders: Vec<FeederAggregate>, fanin: usize) -> Self {
        let substations = tree::reduce_substations(&feeders, fanin);
        let mut unco = Vec::new();
        let mut coord = Vec::new();
        let mut home_digests = Vec::new();
        let (mut homes, mut devices) = (0usize, 0usize);
        let (mut rounds, mut misses, mut served, mut divergent) = (0u64, 0u64, 0u64, 0u64);
        let (mut e_unco, mut e_coord) = (0.0f64, 0.0f64);
        for f in &feeders {
            tree::sum_series(&mut unco, &f.samples_uncoordinated);
            tree::sum_series(&mut coord, &f.samples_coordinated);
            homes += f.homes as usize;
            devices += f.devices as usize;
            rounds += f.rounds;
            misses += f.deadline_misses;
            served += f.windows_served;
            divergent += f.divergent_rounds;
            e_unco += f.energy_uncoordinated_kwh;
            e_coord += f.energy_coordinated_kwh;
            home_digests.extend_from_slice(&f.home_digests);
        }
        let uncoordinated = Summary::of(&unco);
        let coordinated = Summary::of(&coord);
        CityReport {
            name,
            feeders,
            substations,
            samples_uncoordinated: unco,
            samples_coordinated: coord,
            uncoordinated,
            coordinated,
            homes,
            devices,
            rounds,
            deadline_misses: misses,
            windows_served: served,
            divergent_rounds: divergent,
            energy_uncoordinated_kwh: e_unco,
            energy_coordinated_kwh: e_coord,
            home_digests,
        }
    }

    /// City peak-load reduction achieved by per-home coordination,
    /// percent.
    pub fn peak_reduction_percent(&self) -> f64 {
        han_metrics::stats::reduction_percent(self.uncoordinated.peak, self.coordinated.peak)
    }

    /// City coincidence factor, uncoordinated: city peak over the sum of
    /// feeder peaks (≤ 1).
    pub fn coincidence_factor_uncoordinated(&self) -> f64 {
        tree::coincidence(
            self.uncoordinated.peak,
            self.feeders
                .iter()
                .map(|f| Summary::of(&f.samples_uncoordinated).peak),
        )
    }

    /// City coincidence factor, coordinated.
    pub fn coincidence_factor_coordinated(&self) -> f64 {
        tree::coincidence(
            self.coordinated.peak,
            self.feeders
                .iter()
                .map(|f| Summary::of(&f.samples_coordinated).peak),
        )
    }

    /// Prices the city aggregate under a billing scheme, both
    /// strategies — what the city as a whole pays at the transmission
    /// interface.
    pub fn costs(&self, billing: &Billing) -> CostComparison {
        CostComparison {
            uncoordinated: billing.cost_of_samples(SAMPLE_INTERVAL, &self.samples_uncoordinated),
            coordinated: billing.cost_of_samples(SAMPLE_INTERVAL, &self.samples_coordinated),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_sim::time::SimDuration;
    use han_workload::scenario::ArrivalRate;

    fn tiny(seed: u64) -> Scenario {
        Scenario {
            duration: SimDuration::from_mins(30),
            ..Scenario::paper(ArrivalRate::Low, seed)
        }
    }

    #[test]
    fn empty_and_oversharded_specs_are_rejected() {
        let spec = CitySpec::uniform("bad", &tiny(0), CpModel::Ideal, 0, 3);
        assert!(matches!(spec.validate(), Err(ScenarioError::EmptyCity)));
        let spec = CitySpec::uniform("bad", &tiny(0), CpModel::Ideal, 2, 0);
        assert!(matches!(spec.validate(), Err(ScenarioError::EmptyCity)));
        let spec = CitySpec::uniform("bad", &tiny(0), CpModel::Ideal, 2, 1).with_shards(3);
        assert!(matches!(
            City::new(spec),
            Err(ScenarioError::TooManyShards {
                shards: 3,
                feeders: 2
            })
        ));
    }

    #[test]
    fn home_seeds_are_stable_under_grid_growth() {
        let small = CitySpec::uniform("c", &tiny(7), CpModel::Ideal, 2, 2);
        let grown = CitySpec::uniform("c", &tiny(7), CpModel::Ideal, 3, 2);
        // Feeder 0's homes keep their seeds when a feeder is appended…
        for slot in 0..2 {
            assert_eq!(
                small.home_scenario(0, slot).seed,
                grown.home_scenario(0, slot).seed
            );
        }
        // …and no two homes collide.
        let mut seeds: Vec<u64> = (0..3)
            .flat_map(|f| (0..2).map(move |h| (f, h)))
            .map(|(f, h)| grown.home_scenario(f, h).seed)
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 6);
        // Neighboring city seeds share no home workload: a positional
        // `seed + i` would alias home i+1 of seed 7 with home i of seed 8.
        let next = CitySpec::uniform("c", &tiny(8), CpModel::Ideal, 3, 2);
        for f in 0..3 {
            for h in 0..2 {
                assert!(seeds.binary_search(&next.home_scenario(f, h).seed).is_err());
            }
        }
    }

    #[test]
    fn city_run_equals_neighborhood_oracle_per_home() {
        let spec = CitySpec::uniform("equiv", &tiny(11), CpModel::Ideal, 1, 2);
        let report = City::new(spec.clone()).unwrap().run().unwrap();
        let hood = spec.feeder_neighborhood(0).unwrap().run().unwrap();
        assert_eq!(report.home_digests.len(), 2);
        for (digest, home) in report.home_digests.iter().zip(&hood.homes) {
            assert_eq!(
                digest.coordinated,
                home.comparison.coordinated.outcome.schedule_digest
            );
        }
        assert_eq!(report.samples_coordinated, hood.feeder_samples_coordinated);
    }

    #[test]
    fn shard_count_does_not_change_the_report() {
        let base = CitySpec::uniform("inv", &tiny(3), CpModel::Ideal, 4, 1);
        let one = City::new(base.clone().with_shards(1))
            .unwrap()
            .run()
            .unwrap();
        let four = City::new(base.with_shards(4)).unwrap().run().unwrap();
        assert_eq!(one, four);
    }
}
