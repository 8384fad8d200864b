//! The feeder → substation → city reduction tree and its wire format.
//!
//! At city scale a shard never ships per-home traces upward — it folds
//! each feeder's homes into one [`FeederAggregate`]. In-process shards
//! hand those aggregates to the city as values; only a worker process
//! (see [`super::mp`]) serializes them, as self-delimiting `HANFAGG1`
//! byte records written and read through the crate's one wire codec.
//! The city layer orders the aggregates by feeder id — which is what
//! makes the reduction independent of how feeders were partitioned
//! across shards or workers — and sums them level by level: feeders into
//! substations (groups of `substation_fanin`), substations into the city.

use han_metrics::stats::Summary;

use super::mp::MpWireError;
use crate::wire::{Dec, Enc, WireError};

/// Magic prefix of the feeder-aggregate wire record.
const MAGIC: &[u8; 8] = b"HANFAGG1";

/// Per-home digest triple carried up the tree in place of the home's
/// trace: enough to prove equivalence against a solo run, nothing more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeDigest {
    /// City-wide home id (`feeder * homes_per_feeder + slot`).
    pub home: u64,
    /// Schedule digest of the home's uncoordinated run (0 by contract —
    /// only coordinated runs digest — but carried so the record stays
    /// strategy-agnostic).
    pub uncoordinated: u64,
    /// Schedule digest of the home's coordinated run.
    pub coordinated: u64,
}

/// One feeder's homes folded into a single record: counters, energies,
/// the two per-minute aggregate series, and per-home digests.
///
/// This is the only thing a shard emits per feeder — per-home traces are
/// dropped as soon as they are folded in.
#[derive(Debug, Clone, PartialEq)]
pub struct FeederAggregate {
    /// Feeder id within the city (0-based, dense).
    pub feeder: u32,
    /// Homes folded into this record.
    pub homes: u32,
    /// Devices across those homes.
    pub devices: u32,
    /// Communication rounds executed (coordinated runs, summed).
    pub rounds: u64,
    /// Deadline misses across homes (coordinated runs, summed).
    pub deadline_misses: u64,
    /// Windows served across homes (coordinated runs, summed).
    pub windows_served: u64,
    /// Divergent rounds across homes (coordinated runs, summed).
    pub divergent_rounds: u64,
    /// Energy delivered, all homes uncoordinated (kWh).
    pub energy_uncoordinated_kwh: f64,
    /// Energy delivered, all homes coordinated (kWh).
    pub energy_coordinated_kwh: f64,
    /// Sum of individual home peaks, uncoordinated (kW) — the
    /// denominator of the feeder's coincidence factor.
    pub sum_home_peaks_uncoordinated: f64,
    /// Sum of individual home peaks, coordinated (kW).
    pub sum_home_peaks_coordinated: f64,
    /// Feeder load per minute, all homes uncoordinated (kW).
    pub samples_uncoordinated: Vec<f64>,
    /// Feeder load per minute, all homes coordinated (kW).
    pub samples_coordinated: Vec<f64>,
    /// Per-home digest triples, in home-id order.
    pub home_digests: Vec<HomeDigest>,
}

impl FeederAggregate {
    /// Serializes the record, appending to `out` — same buffer-reuse
    /// contract as [`han_device::status::StatusRecord::encode_into`].
    /// Floats travel as their IEEE-754 bit patterns, so encode → decode
    /// is the identity even for NaN payloads.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.write(&mut Enc::new(out));
    }

    /// Serializes to a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    pub(crate) fn write(&self, e: &mut Enc<'_>) {
        e.raw(MAGIC);
        e.u32(self.feeder);
        e.u32(self.homes);
        e.u32(self.devices);
        e.u64(self.rounds);
        e.u64(self.deadline_misses);
        e.u64(self.windows_served);
        e.u64(self.divergent_rounds);
        e.f64(self.energy_uncoordinated_kwh);
        e.f64(self.energy_coordinated_kwh);
        e.f64(self.sum_home_peaks_uncoordinated);
        e.f64(self.sum_home_peaks_coordinated);
        for series in [&self.samples_uncoordinated, &self.samples_coordinated] {
            e.u32(series.len() as u32);
            for &kw in series {
                e.f64(kw);
            }
        }
        e.u32(self.home_digests.len() as u32);
        for d in &self.home_digests {
            e.u64(d.home);
            e.u64(d.uncoordinated);
            e.u64(d.coordinated);
        }
    }

    /// Decodes one record from the front of `bytes`, returning it and
    /// the number of bytes consumed (records are self-delimiting, so a
    /// stream of them decodes by repeated calls).
    ///
    /// # Errors
    ///
    /// [`MpWireError::BadRecordMagic`] on a missing magic,
    /// [`MpWireError::Truncated`] on a short buffer (or a count the
    /// buffer cannot hold).
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), MpWireError> {
        let mut d = Dec::new(bytes);
        let record = Self::read(&mut d).map_err(|e| match e {
            WireError::BadMagic => MpWireError::BadRecordMagic,
            other => MpWireError::from(other),
        })?;
        Ok((record, d.pos()))
    }

    fn read(d: &mut Dec<'_>) -> Result<Self, WireError> {
        d.magic(MAGIC)?;
        let series = |d: &mut Dec<'_>| -> Result<Vec<f64>, WireError> {
            let n = d.len_u32(8)?;
            (0..n).map(|_| d.f64()).collect()
        };
        Ok(FeederAggregate {
            feeder: d.u32()?,
            homes: d.u32()?,
            devices: d.u32()?,
            rounds: d.u64()?,
            deadline_misses: d.u64()?,
            windows_served: d.u64()?,
            divergent_rounds: d.u64()?,
            energy_uncoordinated_kwh: d.f64()?,
            energy_coordinated_kwh: d.f64()?,
            sum_home_peaks_uncoordinated: d.f64()?,
            sum_home_peaks_coordinated: d.f64()?,
            samples_uncoordinated: series(d)?,
            samples_coordinated: series(d)?,
            home_digests: {
                let n = d.len_u32(24)?;
                (0..n)
                    .map(|_| {
                        Ok(HomeDigest {
                            home: d.u64()?,
                            uncoordinated: d.u64()?,
                            coordinated: d.u64()?,
                        })
                    })
                    .collect::<Result<_, WireError>>()?
            },
        })
    }
}

/// Adds `series` into `into` elementwise, growing `into` as needed —
/// the single summation primitive every level of the tree uses (it is
/// exactly the fold [`crate::neighborhood::NeighborhoodReport`] applies
/// to home series, so feeder-of-homes and city-of-feeders sum the same
/// way).
pub(crate) fn sum_series(into: &mut Vec<f64>, series: &[f64]) {
    if series.len() > into.len() {
        into.resize(series.len(), 0.0);
    }
    for (sum, &kw) in into.iter_mut().zip(series) {
        *sum += kw;
    }
}

/// One inner node of the reduction tree: a group of feeders summed into
/// a substation (or substations into the city).
#[derive(Debug, Clone, PartialEq)]
pub struct SubstationSummary {
    /// Substation id (0-based, dense; feeder `f` reports to substation
    /// `f / substation_fanin`).
    pub substation: u32,
    /// First feeder id in this substation's group.
    pub first_feeder: u32,
    /// Feeders in this substation's group.
    pub feeders: u32,
    /// Summary of the substation's uncoordinated aggregate.
    pub uncoordinated: Summary,
    /// Summary of the substation's coordinated aggregate.
    pub coordinated: Summary,
    /// Substation coincidence factor, uncoordinated: substation peak
    /// over the sum of its feeder peaks (≤ 1).
    pub coincidence_uncoordinated: f64,
    /// Substation coincidence factor, coordinated.
    pub coincidence_coordinated: f64,
}

/// Peak-over-sum-of-peaks with the same zero-sum convention as
/// [`crate::neighborhood::NeighborhoodReport`].
pub(crate) fn coincidence(agg_peak: f64, member_peaks: impl Iterator<Item = f64>) -> f64 {
    let sum: f64 = member_peaks.sum();
    if sum == 0.0 {
        1.0
    } else {
        agg_peak / sum
    }
}

/// Reduces ordered feeder aggregates into substation summaries with
/// fan-in `fanin` (the last substation may be partial).
pub(crate) fn reduce_substations(
    feeders: &[FeederAggregate],
    fanin: usize,
) -> Vec<SubstationSummary> {
    feeders
        .chunks(fanin.max(1))
        .enumerate()
        .map(|(i, group)| {
            let mut unco = Vec::new();
            let mut coord = Vec::new();
            for f in group {
                sum_series(&mut unco, &f.samples_uncoordinated);
                sum_series(&mut coord, &f.samples_coordinated);
            }
            let uncoordinated = Summary::of(&unco);
            let coordinated = Summary::of(&coord);
            SubstationSummary {
                substation: i as u32,
                first_feeder: group[0].feeder,
                feeders: group.len() as u32,
                coincidence_uncoordinated: coincidence(
                    uncoordinated.peak,
                    group
                        .iter()
                        .map(|f| Summary::of(&f.samples_uncoordinated).peak),
                ),
                coincidence_coordinated: coincidence(
                    coordinated.peak,
                    group
                        .iter()
                        .map(|f| Summary::of(&f.samples_coordinated).peak),
                ),
                uncoordinated,
                coordinated,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_aggregate(feeder: u32) -> FeederAggregate {
        FeederAggregate {
            feeder,
            homes: 3,
            devices: 78,
            rounds: 5400,
            deadline_misses: 1,
            windows_served: 41,
            divergent_rounds: 0,
            energy_uncoordinated_kwh: 12.5,
            energy_coordinated_kwh: 12.5,
            sum_home_peaks_uncoordinated: 9.25,
            sum_home_peaks_coordinated: 7.5,
            samples_uncoordinated: vec![0.0, 1.5, 3.25, 2.0],
            samples_coordinated: vec![0.5, 1.0, 2.75, 2.0],
            home_digests: vec![
                HomeDigest {
                    home: 7,
                    uncoordinated: 0,
                    coordinated: 0xDEAD_BEEF_CAFE_F00D,
                },
                HomeDigest {
                    home: 8,
                    uncoordinated: 0,
                    coordinated: 42,
                },
            ],
        }
    }

    #[test]
    fn wire_round_trip_is_identity() {
        let agg = sample_aggregate(3);
        let bytes = agg.encode();
        let (back, consumed) = FeederAggregate::decode(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(back, agg);
    }

    #[test]
    fn records_are_self_delimiting_in_a_stream() {
        let mut stream = Vec::new();
        sample_aggregate(0).encode_into(&mut stream);
        sample_aggregate(1).encode_into(&mut stream);
        let (first, n) = FeederAggregate::decode(&stream).unwrap();
        let (second, m) = FeederAggregate::decode(&stream[n..]).unwrap();
        assert_eq!(n + m, stream.len());
        assert_eq!(first.feeder, 0);
        assert_eq!(second.feeder, 1);
    }

    #[test]
    fn decode_errors_are_typed() {
        assert_eq!(
            FeederAggregate::decode(b"NOTMAGIC________"),
            Err(MpWireError::BadRecordMagic)
        );
        let bytes = sample_aggregate(0).encode();
        let truncated = &bytes[..bytes.len() - 3];
        assert!(matches!(
            FeederAggregate::decode(truncated),
            Err(MpWireError::Truncated { .. })
        ));
    }

    #[test]
    fn substation_reduction_sums_feeders() {
        let feeders = vec![
            sample_aggregate(0),
            sample_aggregate(1),
            sample_aggregate(2),
        ];
        let subs = reduce_substations(&feeders, 2);
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].feeders, 2);
        assert_eq!(subs[1].feeders, 1);
        assert_eq!(subs[0].first_feeder, 0);
        assert_eq!(subs[1].first_feeder, 2);
        // Two identical feeders: substation peak == 2 × feeder peak, so
        // the group's coincidence factor is exactly 1.
        assert!((subs[0].uncoordinated.peak - 6.5).abs() < 1e-12);
        assert!((subs[0].coincidence_uncoordinated - 1.0).abs() < 1e-12);
    }
}
