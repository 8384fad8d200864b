//! Checks the paper's **in-text claims** ("Table 1" of the reproduction):
//!
//! * peak-load reduction *up to 50 %*,
//! * load-variation (std-dev) reduction *up to 58 %*,
//! * average load unchanged.
//!
//! "Up to" is a best-case over instances, so besides the random paper
//! workloads this harness also runs the synchronized-burst workload where
//! the mechanism's 50 % bound is exactly attained.
//!
//! Run with: `cargo run --release -p han-bench --bin claims`

use han_core::cp::CpModel;
use han_core::experiment::{collect_results, compare, Comparison};
use han_core::simulation::{HanSimulation, SimulationConfig, Strategy};
use han_device::duty_cycle::DutyCycleConstraints;
use han_metrics::stats::{reduction_percent, Summary};
use han_sim::time::{SimDuration, SimTime};
use han_workload::burst;
use han_workload::fleet::{FleetSpec, ScenarioError};
use han_workload::scenario::{ArrivalRate, Scenario};
use rayon::prelude::*;

fn main() -> Result<(), ScenarioError> {
    println!("claim,paper,measured,where");

    // Random workloads: best case over seeds and rates. The (rate, seed)
    // grid runs one comparison per core; the best-case fold below walks
    // the results in the original grid order, so the output is
    // bit-identical to the sequential sweep.
    let grid: Vec<(ArrivalRate, u64)> = ArrivalRate::all()
        .into_iter()
        .flat_map(|rate| (0..5u64).map(move |seed| (rate, seed)))
        .collect();
    let comparisons: Vec<(ArrivalRate, u64, Comparison)> = collect_results(
        grid.into_par_iter()
            .map(|(rate, seed)| {
                compare(&Scenario::paper(rate, seed), CpModel::Ideal).map(|c| (rate, seed, c))
            })
            .collect(),
    )?;

    let mut best_peak = f64::NEG_INFINITY;
    let mut best_std = f64::NEG_INFINITY;
    let mut worst_avg_gap = 0.0f64;
    let mut best_peak_at = String::new();
    let mut best_std_at = String::new();
    for (rate, seed, c) in &comparisons {
        if c.peak_reduction_percent() > best_peak {
            best_peak = c.peak_reduction_percent();
            best_peak_at = format!("{rate} seed {seed}");
        }
        if c.std_reduction_percent() > best_std {
            best_std = c.std_reduction_percent();
            best_std_at = format!("{rate} seed {seed}");
        }
        worst_avg_gap = worst_avg_gap.max(c.average_gap_percent());
    }

    // The synchronized-burst workload: the mechanism's exact 50 % case.
    let duration = SimDuration::from_mins(120);
    let config = |strategy| SimulationConfig {
        fleet: FleetSpec::uniform(20, 1.0, DutyCycleConstraints::paper())
            .expect("valid uniform fleet"),
        duration,
        round_period: SimDuration::from_secs(2),
        strategy,
        cp: CpModel::Ideal,
        seed: 1,
    };
    let requests = burst(SimTime::from_mins(2), 20);
    let unco = HanSimulation::new(config(Strategy::Uncoordinated), requests.clone())?.run();
    let coord = HanSimulation::new(config(Strategy::coordinated()), requests)?.run();
    let end = SimTime::ZERO + duration;
    let minute = SimDuration::from_mins(1);
    let unco_s = Summary::of(&unco.trace.sample(SimTime::ZERO, end, minute));
    let coord_s = Summary::of(&coord.trace.sample(SimTime::ZERO, end, minute));
    let burst_peak_red = reduction_percent(unco_s.peak, coord_s.peak);
    let burst_std_red = reduction_percent(unco_s.std_dev, coord_s.std_dev);

    println!("peak reduction (best random run),up to 50%,{best_peak:.0}%,{best_peak_at}");
    println!("peak reduction (synchronized burst),up to 50%,{burst_peak_red:.0}%,burst of 20");
    println!("std-dev reduction (best random run),up to 58%,{best_std:.0}%,{best_std_at}");
    println!("std-dev reduction (synchronized burst),up to 58%,{burst_std_red:.0}%,burst of 20");
    println!("average load change,~0%,{worst_avg_gap:.1}% worst case,all rates/seeds");
    Ok(())
}
