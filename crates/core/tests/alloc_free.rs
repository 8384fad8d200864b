//! The round loop allocates nothing in steady state.
//!
//! A counting global allocator counts this thread's allocations and
//! reallocations while `HanSimulation::run` executes the coordinated
//! paper home, once for 30 and once for 120 simulated minutes. Both runs
//! pay the same set-up, and the working buffers of the round loop grow in
//! its first rounds, so the longer run may allocate more only by what its
//! extra 2,700 rounds allocate — plus the few doublings of its longer
//! load trace. The bound allows that and nothing per round.
//!
//! A packet round runs MiniCast floods in `han_st` over a link table and
//! buffers built once, so what it still allocates is mostly the payload
//! of each record whose sequence number moved. Its case runs shorter
//! windows, 10 and 40 minutes, so debug builds stay quick, and bounds the
//! average per extra round: it measured 3.8 and 5.7 allocations per
//! extra round on seeds 0 and 1.

use han_core::cp::CpModel;
use han_core::experiment;
use han_core::fault::FaultPlan;
use han_core::simulation::Strategy;
use han_sim::time::SimDuration;
use han_workload::scenario::{ArrivalRate, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting allocations per thread.
struct Counting;

thread_local! {
    // A `const` initialiser with no destructor: reading it never
    // allocates, so the allocator can count through it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's allocations after its locals are gone are
    // simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many more allocations the 120-minute run may make than the
/// 30-minute one.
const SLACK: u64 = 256;

/// Allocations made by `run()` of the coordinated paper home.
fn run_allocations(cp: &CpModel, seed: u64, minutes: u64) -> u64 {
    let mut scenario = Scenario::paper(ArrivalRate::High, seed);
    scenario.duration = SimDuration::from_mins(minutes);
    let sim = experiment::build_simulation(
        &scenario,
        Strategy::coordinated(),
        cp.clone(),
        &FaultPlan::empty(),
        None,
    )
    .expect("valid simulation");
    let before = ALLOCATIONS.with(Cell::get);
    let outcome = sim.run();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(outcome.rounds > 0, "the run executed");
    allocations
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    let models = [
        ("ideal", CpModel::Ideal),
        (
            "lossy-round 0.3",
            CpModel::LossyRound {
                miss_probability: 0.3,
            },
        ),
        (
            "gilbert-elliott 0.1,0.5,0,1",
            CpModel::GilbertElliott {
                p_good_to_bad: 0.1,
                p_bad_to_good: 0.5,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
        ),
        (
            "lossy-record 0.3",
            CpModel::LossyRecord {
                miss_probability: 0.3,
            },
        ),
    ];
    let mut failures = Vec::new();
    for (name, cp) in &models {
        for seed in 0..3 {
            let short = run_allocations(cp, seed, 30);
            let long = run_allocations(cp, seed, 120);
            let extra = long.saturating_sub(short);
            println!("{name}, seed {seed}: 30 min {short}, 120 min {long} (+{extra})");
            if extra > SLACK {
                failures.push(format!(
                    "{name}, seed {seed}: 30 min {short}, 120 min {long} (+{extra})"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "the round loop allocates in steady state (more than {SLACK} extra):\n{}",
        failures.join("\n")
    );
}

/// Average allocations per extra round a packet run may make.
const PACKET_PER_ROUND: f64 = 16.0;

#[test]
fn packet_rounds_allocate_only_moved_payloads() {
    let cp = CpModel::paper_packet(0);
    let mut failures = Vec::new();
    for seed in 0..2 {
        let short = run_allocations(&cp, seed, 10);
        let long = run_allocations(&cp, seed, 40);
        // 30 more minutes: 900 more rounds.
        let per_round = long.saturating_sub(short) as f64 / 900.0;
        let line =
            format!("packet, seed {seed}: 10 min {short}, 40 min {long} ({per_round:.1}/round)");
        println!("{line}");
        if per_round >= PACKET_PER_ROUND {
            failures.push(line);
        }
    }
    assert!(
        failures.is_empty(),
        "packet rounds allocate {PACKET_PER_ROUND} or more times per round:\n{}",
        failures.join("\n")
    );
}
