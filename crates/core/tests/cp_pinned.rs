//! Every communication-plane delivery rule, pinned absolutely.
//!
//! Each case runs a coordinated simulation through
//! [`experiment::build_simulation`] and snapshots it halfway with
//! `run_checkpointed`. It pins the schedule digest, the CP's refreshed
//! record and full-round counts, and the FNV-1a of the checkpoint bytes.
//! The checkpoint carries the CP's RNG state, its refresh stamps, the
//! Gilbert–Elliott channel states and the packet stores, so a change to
//! any coin a delivery draws, any stamp it writes or any record it
//! applies moves a pin even when the schedule does not.
//!
//! The table covers every model, a one-device and a six-device fleet
//! (a one-device lossy, GE or packet plane also has a single view row,
//! like the shared Ideal row), a down/up/outage fault timeline on the
//! last device, and the per-node reference store. Every model also runs
//! the paper's 26-device fleet, with and without faults: a faulted Ideal
//! plane delivers per node through its fault-free rounds, so those rows
//! pin the pool slots, free list and refresh stamps of the shared round
//! transition at the paper's size, and the packet rows pin the MiniCast
//! floods of the paper's testbed. The constants were taken from the
//! plane before its round collapsed into one call (the abstract
//! 26-device rows: before delivery stopped re-applying unchanged
//! records; the packet 26-device rows: before the Glossy flood became a
//! slot kernel over a link table); only a deliberate change to what the
//! plane delivers may update them.

use han_core::cp::CpModel;
use han_core::experiment;
use han_core::fault::FaultPlan;
use han_core::simulation::Strategy;
use han_sim::time::SimDuration;
use han_workload::fleet::DeviceClass;
use han_workload::scenario::{ArrivalRate, Scenario, Workload};

/// 64-bit FNV-1a: a dependency-free content hash for the byte pins.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What one case pins: `(schedule_digest, cp.refreshed_records,
/// cp.full_rounds, FNV-1a of the halfway checkpoint)`.
type Pins = (u64, u64, u64, u64);

/// Runs one case and returns its pins.
fn pins(cp: CpModel, devices: usize, minutes: u64, faults: &str, reference: bool) -> Pins {
    let scenario = Scenario::builder("cp pinned")
        .class(DeviceClass::paper(devices))
        .workload(Workload::Poisson {
            rate_per_hour: ArrivalRate::High.per_hour(),
        })
        .duration(SimDuration::from_mins(minutes))
        .seed(3)
        .build()
        .expect("valid scenario");
    let faults = FaultPlan::parse(faults).expect("valid fault spec");
    let mut sim =
        experiment::build_simulation(&scenario, Strategy::coordinated(), cp, &faults, None)
            .expect("valid simulation");
    sim.set_reference_planning(reference);
    // Rounds fire at 0, 2 s, …, the end instant: 30 a minute plus one.
    let total_rounds = minutes * 30 + 1;
    let (outcome, checkpoint) = sim.run_checkpointed(total_rounds / 2);
    (
        outcome.schedule_digest,
        outcome.cp.refreshed_records,
        outcome.cp.full_rounds,
        fnv1a(&checkpoint.to_bytes()),
    )
}

/// A down/up/outage timeline on device `last` inside a `minutes` window:
/// the node is down in the first half, the outage falls in the second.
fn fault_spec(last: usize, minutes: u64) -> String {
    let q = minutes / 4;
    format!(
        "down:{last}@{q}; up:{last}@{}; outage:{}-{}",
        2 * q,
        3 * q,
        3 * q + 1
    )
}

#[test]
fn every_delivery_rule_is_pinned() {
    // `(name, model, minutes, fleet sizes)`.
    let models: [(&str, CpModel, u64, &[usize]); 5] = [
        ("ideal", CpModel::Ideal, 10, &[1, 6, 26]),
        (
            "lossy-round",
            CpModel::LossyRound {
                miss_probability: 0.3,
            },
            10,
            &[1, 6, 26],
        ),
        (
            "lossy-record",
            CpModel::LossyRecord {
                miss_probability: 0.3,
            },
            10,
            &[1, 6, 26],
        ),
        (
            "gilbert-elliott",
            CpModel::GilbertElliott {
                p_good_to_bad: 0.1,
                p_bad_to_good: 0.5,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            10,
            &[1, 6, 26],
        ),
        ("packet", CpModel::paper_packet(3), 4, &[1, 6, 26]),
    ];
    let mut mismatches = Vec::new();
    for (name, cp, minutes, fleets) in &models {
        let mut cases = Vec::new();
        for &devices in *fleets {
            cases.push((format!("{devices} dev"), devices, String::new(), false));
            cases.push((
                format!("{devices} dev, faults"),
                devices,
                fault_spec(devices - 1, *minutes),
                false,
            ));
        }
        cases.push(("6 dev, reference".into(), 6, String::new(), true));
        for (label, devices, faults, reference) in cases {
            let case = format!("{name}, {label}");
            let got = pins(cp.clone(), devices, *minutes, &faults, reference);
            let want = PINS.iter().find(|(c, _)| *c == case).map(|(_, p)| *p);
            if want != Some(got) {
                mismatches.push(format!(
                    "(\"{case}\", ({:#018x}, {}, {}, {:#018x})),",
                    got.0, got.1, got.2, got.3
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} case(s) moved; got:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// `(case, (digest, refreshed records, full rounds, checkpoint FNV-1a))`.
const PINS: &[(&str, Pins)] = &[
    (
        "ideal, 1 dev",
        (0xa057_80ce_85eb_cf78, 301, 301, 0xe310_3135_e8aa_4314),
    ),
    (
        "ideal, 1 dev, faults",
        (0xa057_80ce_85eb_cf78, 301, 301, 0xf080_829c_3948_37dc),
    ),
    (
        "ideal, 6 dev",
        (0x66e6_6335_3626_0054, 10836, 301, 0x9310_f20a_1539_64dc),
    ),
    (
        "ideal, 6 dev, faults",
        (0x66e6_6335_3626_0054, 9336, 211, 0x52a0_81dc_de83_05fe),
    ),
    (
        "ideal, 6 dev, reference",
        (0x66e6_6335_3626_0054, 10836, 301, 0x8892_527b_11e5_1969),
    ),
    (
        "ideal, 26 dev",
        (0xdc03_6dd2_974b_eca7, 203476, 301, 0xe4d7_84b4_5aea_888e),
    ),
    (
        "ideal, 26 dev, faults",
        (0xdc03_6dd2_974b_eca7, 180976, 211, 0x37b9_4567_1ca0_b2ad),
    ),
    (
        "lossy-round, 1 dev",
        (0xa057_80ce_85eb_cf78, 301, 301, 0x00ac_b220_a4f7_3999),
    ),
    (
        "lossy-round, 1 dev, faults",
        (0xa057_80ce_85eb_cf78, 301, 301, 0xd9b7_e9ba_a891_e02d),
    ),
    (
        "lossy-round, 6 dev",
        (0x7cf0_1105_fa30_0563, 8201, 38, 0xe58c_8e4a_2bde_ffea),
    ),
    (
        "lossy-round, 6 dev, faults",
        (0xff1a_fb9f_41b9_ca15, 7184, 26, 0x21a7_6e32_4e40_cf0c),
    ),
    (
        "lossy-round, 6 dev, reference",
        (0x7cf0_1105_fa30_0563, 8201, 38, 0xc5e2_d52c_8320_c530),
    ),
    (
        "lossy-round, 26 dev",
        (0xbaf9_46bf_0e4a_8693, 144201, 0, 0x7dd0_2e05_5af6_1973),
    ),
    (
        "lossy-round, 26 dev, faults",
        (0x7cef_3a53_3ac3_7838, 129417, 0, 0x856c_1ada_9e7a_1652),
    ),
    (
        "lossy-record, 1 dev",
        (0xa057_80ce_85eb_cf78, 301, 301, 0x689b_c10e_7951_526a),
    ),
    (
        "lossy-record, 1 dev, faults",
        (0xa057_80ce_85eb_cf78, 301, 301, 0x4114_1c88_c631_9bd9),
    ),
    (
        "lossy-record, 6 dev",
        (0xb3b9_0e9d_2375_375b, 8079, 0, 0x5a74_13c2_6251_7f58),
    ),
    (
        "lossy-record, 6 dev, faults",
        (0xd804_57c8_4eda_c2a7, 7057, 0, 0xfa11_b008_5ef6_111c),
    ),
    (
        "lossy-record, 6 dev, reference",
        (0xb3b9_0e9d_2375_375b, 8079, 0, 0x7d97_1d76_1ca5_c8b7),
    ),
    (
        "lossy-record, 26 dev",
        (0x1ca3_8e29_462e_3d39, 144725, 0, 0xaa7f_ceeb_729a_db8f),
    ),
    (
        "lossy-record, 26 dev, faults",
        (0xc84d_4380_77a7_08c7, 129026, 0, 0x7695_8a3b_7317_881b),
    ),
    (
        "gilbert-elliott, 1 dev",
        (0xa057_80ce_85eb_cf78, 301, 301, 0xd8f7_7efd_1545_5cf3),
    ),
    (
        "gilbert-elliott, 1 dev, faults",
        (0xa057_80ce_85eb_cf78, 301, 301, 0x0561_1d49_e66c_294e),
    ),
    (
        "gilbert-elliott, 6 dev",
        (0x3ee5_1960_8768_f665, 9246, 88, 0x618f_99eb_7567_7934),
    ),
    (
        "gilbert-elliott, 6 dev, faults",
        (0x3ee5_1960_8768_f665, 7960, 57, 0x9bc8_254e_f927_989c),
    ),
    (
        "gilbert-elliott, 6 dev, reference",
        (0x3ee5_1960_8768_f665, 9246, 88, 0x4ae3_369c_ace3_8f55),
    ),
    (
        "gilbert-elliott, 26 dev",
        (0x8060_2e59_6094_affe, 171201, 2, 0x09ed_43f8_85fd_6c40),
    ),
    (
        "gilbert-elliott, 26 dev, faults",
        (0x8060_2e59_6094_affe, 152055, 1, 0x35ee_06c8_6ef2_3e79),
    ),
    (
        "packet, 1 dev",
        (0x7503_5fbd_70f7_7af2, 121, 121, 0x2f03_8c53_b665_99ad),
    ),
    (
        "packet, 1 dev, faults",
        (0x7503_5fbd_70f7_7af2, 121, 121, 0xd2fc_3fee_a34b_3684),
    ),
    (
        "packet, 6 dev",
        (0xb00a_0766_61ca_4b0c, 4356, 121, 0x9c7b_8a78_6a6f_0cbf),
    ),
    (
        "packet, 6 dev, faults",
        (0xb00a_0766_61ca_4b0c, 3306, 61, 0x3a59_32b7_1b8b_6ec7),
    ),
    (
        "packet, 6 dev, reference",
        (0xb00a_0766_61ca_4b0c, 4356, 121, 0x3723_9081_a655_98cc),
    ),
    (
        "packet, 26 dev",
        (0x2893_e527_4f31_dd1b, 81796, 121, 0xf2f0_b36c_6341_b07b),
    ),
    (
        "packet, 26 dev, faults",
        (0x2893_e527_4f31_dd1b, 61546, 61, 0xf107_9d5c_88b5_af97),
    ),
];
