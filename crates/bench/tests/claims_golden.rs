//! Golden outputs of the paper reproduction: the `claims` table and the
//! schedule digests of the paper config on each CP family.
//!
//! A change that is meant to leave the algorithm alone (a refactor, a
//! speedup) must leave both untouched. A deliberate change to what the
//! system computes updates the constants here in the same commit and
//! says why.

use std::process::Command;

use han_core::cp::CpModel;
use han_core::experiment::run_strategy;
use han_core::simulation::Strategy;
use han_sim::time::SimDuration;
use han_workload::scenario::{ArrivalRate, Scenario};

/// The paper's headline table, as `claims` prints it.
const CLAIMS: &str = "\
claim,paper,measured,where
peak reduction (best random run),up to 50%,40%,low (4/h) seed 1
peak reduction (synchronized burst),up to 50%,50%,burst of 20
std-dev reduction (best random run),up to 58%,38%,moderate (18/h) seed 3
std-dev reduction (synchronized burst),up to 58%,34%,burst of 20
average load change,~0%,1.9% worst case,all rates/seeds
";

#[test]
fn claims_table_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_claims"))
        .output()
        .expect("claims runs");
    assert!(out.status.success(), "claims failed: {out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), CLAIMS);
}

/// `schedule_digest` of a coordinated run of the paper scenario (26
/// devices, high rate, seed 0) cut to `minutes`, on `cp`.
fn paper_digest(cp: CpModel, minutes: u64) -> u64 {
    let scenario = Scenario {
        duration: SimDuration::from_mins(minutes),
        ..Scenario::paper(ArrivalRate::High, 0)
    };
    run_strategy(&scenario, Strategy::coordinated(), cp)
        .expect("the paper scenario is valid")
        .outcome
        .schedule_digest
}

#[test]
fn paper_config_digests_are_pinned() {
    for (name, cp, minutes, digest) in [
        ("ideal", CpModel::Ideal, 350, 0x9fdf_ce28_a0ff_ef0f_u64),
        (
            "lossy:0.3",
            CpModel::LossyRound {
                miss_probability: 0.3,
            },
            150,
            0xad72_7266_4037_f6d1,
        ),
        ("packet", CpModel::paper_packet(0), 5, 0x4bca_3dab_9585_1964),
    ] {
        let got = paper_digest(cp, minutes);
        assert_eq!(got, digest, "{name}, {minutes} min: {got:016x}");
    }
}
