//! Differential property battery of the city-scale sharded runner.
//!
//! The city layer's headline contract, pinned property by property:
//!
//! 1. **City ≡ per-home.** A city of one feeder on one shard — every
//!    home streamed through the shard one at a time — must reproduce the
//!    same homes run through `Neighborhood::run` (the per-home path)
//!    exactly: per-home schedule digests, the feeder aggregate
//!    series, deadline misses and energy, under ideal, lossy and
//!    packet-level CPs and under fault plans.
//! 2. **Shard-count invariance.** The full `CityReport` — every feeder
//!    aggregate, every substation summary, every digest — compares equal
//!    across `shards ∈ {1, 2, 4}` on random heterogeneous cities.
//! 3. **The reduction tree is a faithful sum.** Each feeder aggregate's
//!    series equals the recomputed elementwise sum of its homes' per-home
//!    series (from the oracle path), and the city series equals the sum
//!    of the feeder series; wire encode → decode is the identity.

use han_core::city::{City, CitySpec, FeederAggregate};
use han_core::cp::CpModel;
use han_core::fault::{FaultEvent, FaultPlan};
use han_sim::time::{SimDuration, SimTime};
use han_workload::scenario::Scenario;
use proptest::prelude::*;

/// Horizon of every generated home (kept small: each proptest case runs
/// dozens of full two-strategy simulations).
const MINUTES: u64 = 24;

/// A small home template: the paper fleet trimmed to `devices` devices
/// at a Poisson arrival rate.
fn template(devices: usize, rate_per_hour: f64) -> Scenario {
    Scenario::builder("prop city home")
        .class(han_workload::fleet::DeviceClass::paper(devices))
        .poisson(rate_per_hour)
        .duration(SimDuration::from_mins(MINUTES))
        .build()
        .expect("valid scenario")
}

/// The three CP families the contract quantifies over.
fn cp_for(pick: u8) -> CpModel {
    match pick % 3 {
        0 => CpModel::Ideal,
        1 => CpModel::LossyRound {
            miss_probability: 0.2,
        },
        _ => CpModel::paper_packet(11),
    }
}

/// A shared fault plan: one node-churn pair and one CP outage window,
/// all inside the horizon. Node indices are valid for any fleet the
/// generator emits (≥ 3 devices).
fn faults_for(active: bool, node: usize, down_min: u64, outage_min: u64) -> FaultPlan {
    if !active {
        return FaultPlan::empty();
    }
    FaultPlan::from_events(vec![
        FaultEvent::NodeDown {
            at: SimTime::from_mins(down_min),
            node,
        },
        FaultEvent::NodeUp {
            at: SimTime::from_mins(down_min + 8),
            node,
        },
        FaultEvent::CpOutage {
            from: SimTime::from_mins(outage_min),
            until: SimTime::from_mins(outage_min + 3),
        },
    ])
    .expect("valid plan")
}

prop_compose! {
    /// A random heterogeneous city spec: 1–4 feeders × 1–3 homes, a
    /// 1–3-template mix of differing fleet sizes and arrival rates, one
    /// of the three CP families, optionally a fault plan.
    fn arb_city()(
        feeders in 1usize..5,
        homes_per_feeder in 1usize..3,
        mix in prop::collection::vec((3usize..5, 4u32..20), 1..4),
        cp_pick in 0u8..3,
        seed in 0u64..1_000,
        faulted in any::<bool>(),
        fault_node in 0usize..3,
        down_min in 2u64..12,
        outage_min in 2u64..18,
    ) -> CitySpec {
        let templates = mix
            .into_iter()
            .map(|(devices, rate)| template(devices, f64::from(rate)))
            .collect();
        CitySpec {
            templates,
            ..CitySpec::uniform("prop city", &template(3, 6.0), cp_for(cp_pick), feeders, homes_per_feeder)
        }
        .with_seed(seed)
        .with_faults(faults_for(faulted, fault_node, down_min, outage_min))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 3 } else { 16 }))]

    /// Property 1: city ≡ per-home, one feeder at a time.
    #[test]
    fn city_matches_neighborhood_oracle_per_home(spec in arb_city()) {
        let spec = spec.with_shards(1);
        let report = City::new(spec.clone()).expect("valid spec").run().expect("runs");
        let mut digest_cursor = report.home_digests.iter();
        for feeder in 0..spec.feeders {
            let oracle = spec
                .feeder_neighborhood(feeder)
                .expect("valid feeder")
                .run()
                .expect("oracle runs");
            let agg = &report.feeders[feeder];
            prop_assert_eq!(agg.homes as usize, oracle.homes.len());
            for (slot, home) in oracle.homes.iter().enumerate() {
                let digest = digest_cursor.next().expect("digest per home");
                prop_assert_eq!(digest.home, (feeder * spec.homes_per_feeder + slot) as u64);
                prop_assert_eq!(
                    digest.coordinated,
                    home.comparison.coordinated.outcome.schedule_digest,
                    "home {}/{} digest diverged from its solo run", feeder, slot
                );
                prop_assert_eq!(
                    digest.uncoordinated,
                    home.comparison.uncoordinated.outcome.schedule_digest
                );
            }
            // The feeder aggregate is the oracle's feeder aggregate.
            prop_assert_eq!(&agg.samples_uncoordinated, &oracle.feeder_samples_uncoordinated);
            prop_assert_eq!(&agg.samples_coordinated, &oracle.feeder_samples_coordinated);
            let misses: u64 = oracle
                .homes
                .iter()
                .map(|h| u64::from(h.comparison.coordinated.outcome.deadline_misses))
                .sum();
            prop_assert_eq!(agg.deadline_misses, misses);
            let energy: f64 = oracle
                .homes
                .iter()
                .map(|h| h.comparison.coordinated.outcome.energy_kwh)
                .sum();
            prop_assert!((agg.energy_coordinated_kwh - energy).abs() < 1e-9);
        }
    }

    /// Property 2: the report is invariant in the shard count.
    #[test]
    fn report_is_invariant_in_shard_count(spec in arb_city()) {
        let one = City::new(spec.clone().with_shards(1)).expect("valid").run().expect("runs");
        let mut seen = vec![1usize];
        for shards in [2usize, 4] {
            let k = shards.min(spec.feeders);
            if seen.contains(&k) {
                continue; // a narrow city clamps 2 and 4 to the same K
            }
            seen.push(k);
            let sharded = City::new(spec.clone().with_shards(k)).expect("valid").run().expect("runs");
            prop_assert_eq!(&one, &sharded, "report changed between 1 and {} shard(s)", k);
        }
    }

    /// Property 3: every level of the tree is a faithful elementwise sum,
    /// and the wire format round-trips every aggregate.
    #[test]
    fn reduction_tree_sums_faithfully(spec in arb_city()) {
        let report = City::new(spec.clone()).expect("valid").run().expect("runs");
        // Feeder level: aggregate == recomputed sum of the oracle's
        // per-home series.
        for (feeder, agg) in report.feeders.iter().enumerate() {
            let oracle = spec
                .feeder_neighborhood(feeder)
                .expect("valid feeder")
                .run()
                .expect("oracle runs");
            let len = agg.samples_coordinated.len();
            let mut expected = vec![0.0f64; len];
            for home in &oracle.homes {
                for (sum, &kw) in expected.iter_mut().zip(&home.comparison.coordinated.samples) {
                    *sum += kw;
                }
            }
            prop_assert_eq!(&agg.samples_coordinated, &expected);
            // Wire round trip is the identity on the aggregate.
            let bytes = agg.encode();
            let (back, used) = FeederAggregate::decode(&bytes).expect("round trip");
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(&back, agg);
        }
        // City level: city series == sum of feeder series.
        let len = report.samples_coordinated.len();
        let mut expected = vec![0.0f64; len];
        for agg in &report.feeders {
            for (sum, &kw) in expected.iter_mut().zip(&agg.samples_coordinated) {
                *sum += kw;
            }
        }
        prop_assert_eq!(&report.samples_coordinated, &expected);
        prop_assert_eq!(report.homes, spec.home_count());
        prop_assert_eq!(report.devices, spec.device_count());
    }
}
