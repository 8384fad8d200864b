//! Adversarial battery of the four byte formats that cross a disk or
//! process boundary: `HANCKPT1` checkpoints, `HANSRV01` service
//! snapshots, `HANFAGG1` feeder records and the `HANCITY1` worker stream
//! that frames them.
//!
//! Every decoder here reads bytes another process (or an earlier run)
//! wrote, so "malformed input" is not a programming error but an
//! expected runtime condition (killed worker, version skew, corrupted
//! pipe or disk). All four formats share one wire codec, and
//! `mp::decode_stream` runs the supervisor's own deframer, so this
//! battery attacks production code. The contract under attack:
//!
//! 1. **Truncation at every byte offset** of a valid stream, record,
//!    checkpoint or snapshot yields a typed error (`MpWireError`,
//!    `CheckpointError`, `OnlineError`) — never a panic, never an `Ok`
//!    with invented data. Exhaustive, not sampled: the loops cut at
//!    every single offset.
//! 2. **Bit-flip corruption** anywhere leaves the decoder total: it
//!    returns `Ok` (the flip hit payload data) or a typed error (the
//!    flip hit structure) — never a panic, and never an unbounded
//!    allocation from a corrupted length field. For checkpoints and
//!    snapshots the flipped bytes are also *resumed*, so the
//!    restore-time state checks are attacked too.
//! 3. **Trailing bytes** are never silently swallowed: a record
//!    decode reports its exact length, extra bytes inside a frame are
//!    `TrailingBytes`, bytes after the fin frame are `TrailingData`,
//!    and an oversized length prefix is `FrameTooLarge`.
//! 4. **Pinned bytes.** Fixed outputs of all three top-level formats
//!    hash to constants, so a codec refactor cannot move a byte
//!    unnoticed (a deliberate format change updates them).

use han_core::checkpoint::Checkpoint;
use han_core::city::mp::{self, Handshake, MpWireError, HANDSHAKE_LEN, MAX_FRAME_LEN};
use han_core::city::{CitySpec, FeederAggregate};
use han_core::cp::CpModel;
use han_core::experiment::build_simulation;
use han_core::fault::FaultPlan;
use han_core::online::OnlineDriver;
use han_core::simulation::{HanSimulation, Strategy};
use han_sim::time::SimDuration;
use han_workload::fleet::DeviceClass;
use han_workload::scenario::Scenario;
use proptest::prelude::*;

/// One small city whose worker stream exercises every wire feature:
/// two feeders (two record frames), two homes each, non-trivial series.
fn reference_spec() -> CitySpec {
    let template = Scenario::builder("adversarial wire home")
        .class(han_workload::fleet::DeviceClass::paper(3))
        .poisson(8.0)
        .duration(SimDuration::from_mins(20))
        .build()
        .expect("valid scenario");
    CitySpec::uniform("adversarial wire", &template, CpModel::Ideal, 2, 2).with_seed(42)
}

/// A complete valid `HANCITY1` stream (handshake + 2 frames + fin),
/// produced by the real worker entry point.
fn reference_stream() -> Vec<u8> {
    let spec = reference_spec();
    let mut stream = Vec::new();
    mp::serve_worker(&spec, 0, 1, &mut stream).expect("worker serves");
    stream
}

/// The `HANFAGG1` records inside the reference stream, re-encoded
/// standalone.
fn reference_records() -> Vec<Vec<u8>> {
    let (_, records) = mp::decode_stream(&reference_stream()).expect("valid stream");
    records.iter().map(FeederAggregate::encode).collect()
}

/// The short lossy-CP home whose checkpoint and snapshot the battery
/// attacks: 8 paper devices over 20 minutes (601 rounds).
fn short_sim() -> HanSimulation {
    let scenario = Scenario::builder("adversarial snapshot home")
        .class(DeviceClass::paper(8))
        .poisson(30.0)
        .duration(SimDuration::from_mins(20))
        .seed(7)
        .build()
        .expect("valid scenario");
    build_simulation(
        &scenario,
        Strategy::coordinated(),
        CpModel::LossyRound {
            miss_probability: 0.3,
        },
        &FaultPlan::empty(),
        None,
    )
    .expect("valid simulation")
}

/// A `HANCKPT1` checkpoint taken after 300 rounds of [`short_sim`].
fn reference_checkpoint() -> Vec<u8> {
    short_sim().run_checkpointed(300).1.to_bytes()
}

/// A `HANSRV01` snapshot of [`short_sim`] served for 300 rounds, with a
/// telemetry log of past and still-future events to replay.
fn reference_snapshot() -> Vec<u8> {
    let mut driver = OnlineDriver::new(short_sim());
    driver
        .ingest_script("arrive:3@2; cap:6@4; done:3@8; arrive:5@15")
        .expect("valid telemetry");
    driver.advance_to(300);
    driver.snapshot()
}

/// Restores a snapshot and runs it out; `Ok` or a typed error.
fn restore_snapshot(bytes: &[u8]) -> Result<u64, String> {
    let mut driver = OnlineDriver::restore(short_sim(), bytes).map_err(|e| e.to_string())?;
    driver.run_to_end();
    Ok(driver.into_outcome().schedule_digest)
}

/// Decodes a checkpoint and resumes it; `Ok` or a typed error.
fn resume_checkpoint(bytes: &[u8]) -> Result<u64, String> {
    let checkpoint = Checkpoint::from_bytes(bytes).map_err(|e| e.to_string())?;
    let outcome = short_sim().resume(&checkpoint).map_err(|e| e.to_string())?;
    Ok(outcome.schedule_digest)
}

/// 64-bit FNV-1a: a dependency-free content hash for the byte pins.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn wire_bytes_are_pinned() {
    // Taken from the codec before it moved onto the shared wire module;
    // a deliberate format change (a version bump) updates them.
    let pins = [
        ("HANCKPT1 checkpoint", reference_checkpoint(), PIN_HANCKPT1),
        ("HANSRV01 snapshot", reference_snapshot(), PIN_HANSRV01),
        ("HANCITY1 stream", reference_stream(), PIN_HANCITY1),
    ];
    for (what, bytes, pin) in pins {
        assert_eq!(
            fnv1a(&bytes),
            pin,
            "{what} ({} bytes) moved: got {:#018x}",
            bytes.len(),
            fnv1a(&bytes)
        );
    }
}

#[test]
fn checkpoint_truncated_at_every_offset_is_a_typed_error() {
    let bytes = reference_checkpoint();
    resume_checkpoint(&bytes).expect("the full checkpoint resumes");
    for cut in 0..bytes.len() {
        assert!(
            Checkpoint::from_bytes(&bytes[..cut]).is_err(),
            "checkpoint cut at {cut}/{} decoded — truncation must fail",
            bytes.len()
        );
    }
}

#[test]
fn snapshot_truncated_at_every_offset_is_a_typed_error() {
    let bytes = reference_snapshot();
    restore_snapshot(&bytes).expect("the full snapshot restores");
    for cut in 0..bytes.len() {
        assert!(
            OnlineDriver::restore(short_sim(), &bytes[..cut]).is_err(),
            "snapshot cut at {cut}/{} restored — truncation must fail",
            bytes.len()
        );
    }
}

#[test]
fn snapshot_log_events_outside_the_fleet_are_typed() {
    // One flipped digit moves the still-future arrival to device 9 of an
    // 8-device fleet: the replayed log must fail typed, not queue an
    // arrival the round loop would index out of bounds with.
    let mut bytes = reference_snapshot();
    let at = bytes
        .windows(9)
        .position(|w| w == b"arrive:5@")
        .expect("the future arrival is logged");
    bytes[at + 7] = b'9';
    let err = restore_snapshot(&bytes).expect_err("device 9 is outside the fleet");
    assert!(err.contains("out of range"), "{err}");
}

#[test]
fn hanfagg1_truncated_at_every_offset_is_a_typed_error() {
    for bytes in reference_records() {
        let (full, used) = FeederAggregate::decode(&bytes).expect("full record decodes");
        assert_eq!(used, bytes.len(), "decode must consume the whole record");
        for cut in 0..bytes.len() {
            match FeederAggregate::decode(&bytes[..cut]) {
                Err(_) => {} // typed — the only acceptable outcome
                Ok((got, n)) => panic!(
                    "cut at {cut}/{} decoded {n} byte(s) as feeder {} — truncation must not \
                     yield a record",
                    bytes.len(),
                    got.feeder
                ),
            }
        }
        // And the untruncated round trip is still the identity.
        assert_eq!(full.encode(), bytes);
    }
}

#[test]
fn hancity1_truncated_at_every_offset_is_a_typed_error() {
    let stream = reference_stream();
    mp::decode_stream(&stream).expect("full stream decodes");
    for cut in 0..stream.len() {
        match mp::decode_stream(&stream[..cut]) {
            Err(MpWireError::Truncated { .. }) => {}
            Err(other) => panic!("cut at {cut} must be Truncated, got {other:?}"),
            Ok(_) => panic!(
                "cut at {cut}/{} decoded — truncation must fail",
                stream.len()
            ),
        }
    }
}

#[test]
fn handshake_truncated_at_every_offset_is_a_typed_error() {
    let stream = reference_stream();
    let (handshake, used) = Handshake::decode(&stream).expect("handshake decodes");
    assert_eq!(used, HANDSHAKE_LEN);
    assert_eq!(handshake.encode(), &stream[..HANDSHAKE_LEN]);
    for cut in 0..HANDSHAKE_LEN {
        match Handshake::decode(&stream[..cut]) {
            Err(MpWireError::Truncated { .. }) => {}
            Err(other) => panic!("cut at {cut} must be Truncated, got {other:?}"),
            Ok(_) => panic!("handshake cut at {cut} must not decode"),
        }
    }
}

#[test]
fn trailing_bytes_are_never_swallowed() {
    let stream = reference_stream();

    // Bytes after the fin frame: TrailingData.
    let mut after_fin = stream.clone();
    after_fin.extend_from_slice(b"junk");
    assert!(
        matches!(
            mp::decode_stream(&after_fin),
            Err(MpWireError::TrailingData { extra: 4 })
        ),
        "bytes after fin must be TrailingData"
    );

    // Extra bytes inside a frame: the length prefix admits them, the
    // self-delimiting record exposes them as TrailingBytes.
    let record = &reference_records()[0];
    let mut padded_frame = stream[..HANDSHAKE_LEN].to_vec();
    padded_frame.extend_from_slice(&(record.len() as u32 + 3).to_le_bytes());
    padded_frame.extend_from_slice(record);
    padded_frame.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
    padded_frame.extend_from_slice(&0u32.to_le_bytes());
    assert!(
        matches!(
            mp::decode_stream(&padded_frame),
            Err(MpWireError::TrailingBytes { extra: 3 })
        ),
        "padding inside a frame must be TrailingBytes"
    );

    // A standalone record decode reports its exact length even with
    // trailing garbage — the caller decides what trailing means.
    let mut padded_record = record.clone();
    padded_record.extend_from_slice(&[0u8; 16]);
    let (_, used) = FeederAggregate::decode(&padded_record).expect("prefix decodes");
    assert_eq!(used, record.len(), "decode must not consume trailing bytes");
}

#[test]
fn oversized_and_lying_length_prefixes_are_typed() {
    // A frame claiming more than MAX_FRAME_LEN: typed, and rejected
    // *before* any allocation of that size.
    let mut huge = reference_stream()[..HANDSHAKE_LEN].to_vec();
    huge.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    assert!(
        matches!(
            mp::decode_stream(&huge),
            Err(MpWireError::FrameTooLarge { .. })
        ),
        "an oversized length prefix must be FrameTooLarge"
    );

    // A frame claiming (within bounds) more bytes than the stream has:
    // Truncated, with the deficit visible.
    let mut lying = reference_stream()[..HANDSHAKE_LEN].to_vec();
    lying.extend_from_slice(&1_000u32.to_le_bytes());
    lying.extend_from_slice(&[0u8; 10]);
    assert!(
        matches!(
            mp::decode_stream(&lying),
            Err(MpWireError::Truncated {
                needed: 1_000,
                have: 10
            })
        ),
        "a lying length prefix must be Truncated"
    );

    // A wrong magic is BadMagic, not a guess.
    let mut wrong_magic = reference_stream();
    wrong_magic[0] ^= 0xFF;
    assert!(
        matches!(mp::decode_stream(&wrong_magic), Err(MpWireError::BadMagic)),
        "a corrupted magic must be BadMagic"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 512 }))]

    /// Property 2 (HANFAGG1): a single flipped bit anywhere in a record
    /// leaves the decoder total — `Ok` or typed error, never a panic,
    /// and a successful decode still consumes at most the buffer.
    #[test]
    fn hanfagg1_survives_any_single_bit_flip(
        record_pick in 0usize..2,
        byte in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let records = reference_records();
        let mut bytes = records[record_pick % records.len()].clone();
        let byte = byte % bytes.len();
        bytes[byte] ^= 1 << bit;
        // A typed error is acceptable; a decode must stay in bounds.
        if let Ok((_, used)) = FeederAggregate::decode(&bytes) {
            prop_assert!(used <= bytes.len());
        }
    }

    /// Property 2 (HANCITY1): a single flipped bit anywhere in a worker
    /// stream leaves `decode_stream` total.
    #[test]
    fn hancity1_survives_any_single_bit_flip(
        byte in 0usize..100_000,
        bit in 0u8..8,
    ) {
        let mut stream = reference_stream();
        let byte = byte % stream.len();
        stream[byte] ^= 1 << bit;
        // Totality is the assertion. A flip in the handshake's own
        // claim fields (worker, partition, fingerprint) still decodes —
        // cross-validating those against the assignment is supervisor
        // policy (`run_city_mp`), deliberately not wire shape.
        let _ = mp::decode_stream(&stream);
    }

    /// Property 2 (HANCKPT1): a single flipped bit anywhere in a
    /// checkpoint never panics through decode plus resume.
    #[test]
    fn hanckpt1_survives_any_single_bit_flip(
        byte in 0usize..100_000,
        bit in 0u8..8,
    ) {
        let mut bytes = reference_checkpoint();
        let byte = byte % bytes.len();
        bytes[byte] ^= 1 << bit;
        let _ = resume_checkpoint(&bytes);
    }

    /// Property 2 (HANSRV01): a single flipped bit anywhere in a service
    /// snapshot never panics through restore plus the rest of the run.
    #[test]
    fn hansrv01_survives_any_single_bit_flip(
        byte in 0usize..100_000,
        bit in 0u8..8,
    ) {
        let mut bytes = reference_snapshot();
        let byte = byte % bytes.len();
        bytes[byte] ^= 1 << bit;
        let _ = restore_snapshot(&bytes);
    }

    /// Property 2, compounding: up to 8 random flips at once.
    #[test]
    fn hancity1_survives_multi_bit_corruption(
        flips in prop::collection::vec((0usize..100_000, 0u8..8), 1..9),
    ) {
        let mut stream = reference_stream();
        for (byte, bit) in flips {
            let byte = byte % stream.len();
            stream[byte] ^= 1 << bit;
        }
        // Totality is the whole assertion: no panic, no abort.
        let _ = mp::decode_stream(&stream);
    }
}

/// FNV-1a of [`reference_checkpoint`] (3,672 bytes).
const PIN_HANCKPT1: u64 = 0x42ca_e7e0_e0b7_0634;
/// FNV-1a of [`reference_snapshot`] (3,764 bytes).
const PIN_HANSRV01: u64 = 0x076c_34fb_2ecf_8b79;
/// FNV-1a of [`reference_stream`] (1,008 bytes).
const PIN_HANCITY1: u64 = 0x28ba_1aeb_a578_630e;
