//! Differential property tests of the content-addressed view pool.
//!
//! The pooled communication plane (copy-on-write delivery into the
//! crate-private view pool, nodes grouped for planning by pool handle)
//! must be **bit-invisible**: under random lossy and
//! packet-level CPs it must produce the same order-sensitive
//! `schedule_digest`, the same `divergent_rounds` and the same load trace
//! as the naive one-view-per-node reference plane (the
//! `set_reference_planning` oracle, which also disables planner
//! memoization). On top of exactness, the pool's memory contract is
//! pinned: live entries never exceed the node count, reclaimed slots are
//! reused (no unbounded growth across rounds), and an ideal CP keeps
//! exactly one entry.

use han_core::cp::CpModel;
use han_core::simulation::{HanSimulation, SimulationConfig, SimulationOutcome, Strategy};
use han_device::appliance::DeviceId;
use han_device::duty_cycle::DutyCycleConstraints;
use han_device::request::Request;
use han_net::generators;
use han_radio::channel::ChannelModel;
use han_sim::time::{SimDuration, SimTime};
use han_st::StConfig;
use han_workload::fleet::FleetSpec;
use proptest::prelude::*;

fn run(
    devices: usize,
    requests: Vec<Request>,
    cp: CpModel,
    minutes: u64,
    seed: u64,
    reference: bool,
) -> SimulationOutcome {
    let config = SimulationConfig {
        fleet: FleetSpec::uniform(devices, 1.0, DutyCycleConstraints::paper())
            .expect("valid fleet"),
        duration: SimDuration::from_mins(minutes),
        round_period: SimDuration::from_secs(2),
        strategy: Strategy::coordinated(),
        cp,
        seed,
    };
    let mut sim = HanSimulation::new(config, requests).expect("valid config");
    sim.set_reference_planning(reference);
    sim.run()
}

prop_compose! {
    /// Up to one request per device slot, arriving inside the first
    /// 15 minutes (so windows are in flight while the CP is lossy).
    fn arb_workload()(
        devices in 3usize..9,
        specs in prop::collection::btree_map(0u32..9, 0u64..15, 1..9)
    ) -> (usize, Vec<Request>) {
        let requests = specs
            .into_iter()
            .map(|(slot, minute)| {
                Request::new(
                    DeviceId(slot % devices as u32),
                    SimTime::from_mins(minute),
                )
            })
            .collect();
        (devices, requests)
    }
}

/// Asserts the two planes are observably identical and returns the fast
/// outcome for further pool inspection.
fn assert_bit_invisible(
    devices: usize,
    requests: Vec<Request>,
    cp: CpModel,
    minutes: u64,
    seed: u64,
) -> Result<SimulationOutcome, TestCaseError> {
    let fast = run(devices, requests.clone(), cp.clone(), minutes, seed, false);
    let reference = run(devices, requests, cp, minutes, seed, true);
    prop_assert_eq!(
        fast.schedule_digest,
        reference.schedule_digest,
        "pooled plane must issue byte-identical schedules at every node"
    );
    prop_assert_eq!(fast.divergent_rounds, reference.divergent_rounds);
    prop_assert_eq!(&fast.trace, &reference.trace);
    prop_assert_eq!(fast.deadline_misses, reference.deadline_misses);
    prop_assert_eq!(fast.windows_served, reference.windows_served);
    prop_assert!((fast.energy_kwh - reference.energy_kwh).abs() < 1e-12);
    prop_assert!(
        reference.cp.view_pool.is_none(),
        "reference plane must not report pool stats"
    );
    Ok(fast)
}

/// The pool-side contract every pooled run must satisfy.
fn assert_pool_bounded(outcome: &SimulationOutcome, devices: usize) -> Result<(), TestCaseError> {
    let pool = outcome.cp.view_pool.expect("pooled plane reports stats");
    prop_assert!(
        pool.live_views <= devices,
        "live views {} exceed node count {}",
        pool.live_views,
        devices
    );
    prop_assert!(
        pool.slots <= pool.peak_views + 1,
        "slots {} vs peak {}: reclaimed entries must be reused, not leaked",
        pool.slots,
        pool.peak_views
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 10 } else { 24 }))]

    #[test]
    fn pooled_matches_reference_under_lossy_round(
        workload in arb_workload(),
        miss_milli in 0u64..600,
        seed in any::<u64>()
    ) {
        let (devices, requests) = workload;
        let cp = CpModel::LossyRound {
            miss_probability: miss_milli as f64 / 1000.0,
        };
        let fast = assert_bit_invisible(devices, requests, cp, 45, seed)?;
        assert_pool_bounded(&fast, devices)?;
    }

    #[test]
    fn pooled_matches_reference_under_lossy_record(
        workload in arb_workload(),
        miss_milli in 0u64..600,
        seed in any::<u64>()
    ) {
        let (devices, requests) = workload;
        let cp = CpModel::LossyRecord {
            miss_probability: miss_milli as f64 / 1000.0,
        };
        let fast = assert_bit_invisible(devices, requests, cp, 45, seed)?;
        assert_pool_bounded(&fast, devices)?;
    }

    #[test]
    fn pooled_matches_reference_under_packet_cp(
        workload in arb_workload(),
        channel_seed in any::<u64>(),
        seed in any::<u64>()
    ) {
        // Packet-level MiniCast on a 3×3 indoor grid: real per-link loss,
        // stale decodes, out-of-order seqs — the adversarial case for
        // copy-on-write delivery.
        let (devices, requests) = workload;
        let cp = CpModel::Packet {
            st: StConfig::default(),
            topology: generators::grid(3, 3, 18.0, ChannelModel::indoor_office(channel_seed)),
        };
        let fast = assert_bit_invisible(devices, requests, cp, 16, seed)?;
        assert_pool_bounded(&fast, devices)?;
    }

    #[test]
    fn ideal_cp_keeps_exactly_one_pooled_view(
        workload in arb_workload(),
        seed in any::<u64>()
    ) {
        let (devices, requests) = workload;
        let fast = assert_bit_invisible(devices, requests, CpModel::Ideal, 45, seed)?;
        let pool = fast.cp.view_pool.expect("pooled plane reports stats");
        prop_assert_eq!(pool.live_views, 1, "perfect dissemination shares one view");
        prop_assert_eq!(pool.peak_views, 1);
        prop_assert_eq!(pool.slots, 1);
    }
}
