//! Adversarial battery of the two city wire formats: `HANFAGG1` feeder
//! records and the `HANCITY1` worker stream that frames them.
//!
//! Both decoders sit on a process boundary — the parent supervisor
//! feeds them bytes written by another process, so "malformed input"
//! is not a programming error but an expected runtime condition
//! (killed worker, version skew, corrupted pipe). The contract under
//! attack here:
//!
//! 1. **Truncation at every byte offset** of a valid stream yields a
//!    typed error (`AggregateWireError` / `MpWireError`) — never a
//!    panic, never an `Ok` with invented data. Exhaustive, not
//!    sampled: the loop cuts at every single offset.
//! 2. **Bit-flip corruption** anywhere in the stream leaves the
//!    decoder total: it returns `Ok` (the flip hit payload data) or a
//!    typed error (the flip hit structure) — never a panic, and never
//!    an unbounded allocation from a corrupted length field.
//! 3. **Trailing bytes** are never silently swallowed: a record
//!    decode reports its exact length, extra bytes inside a frame are
//!    `TrailingBytes`, bytes after the fin frame are `TrailingData`,
//!    and an oversized length prefix is `FrameTooLarge`.

use han_core::city::mp::{self, Handshake, MpWireError, HANDSHAKE_LEN, MAX_FRAME_LEN};
use han_core::city::{CitySpec, FeederAggregate};
use han_core::cp::CpModel;
use han_sim::time::SimDuration;
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
