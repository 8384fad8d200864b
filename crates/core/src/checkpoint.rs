//! Bit-identical checkpoint/restore of a running simulation.
//!
//! A [`Checkpoint`] captures the **complete** dynamic state of a
//! [`HanSimulation`](crate::simulation::HanSimulation) at a round
//! boundary: every Device Interface (duty-cycle bookkeeping, counters,
//! publish-side change detection), every planner's persisted power level,
//! the communication plane (views — pooled or per-node — plus the
//! freshness matrix, the Gilbert–Elliott channel states, the packet-mode
//! item stores and sync-staleness counters, and the RNG words), the load
//! trace, and all run accumulators including the resilience counters.
//!
//! The restore contract is **bit-identity**: a run that is checkpointed
//! at round *k*, serialized, deserialized and resumed produces the same
//! schedule digest, load trace and CP statistics as the uninterrupted
//! run — proven by `checkpoint_restore_is_bit_identical` in
//! `crates/core/tests/prop_fault.rs`.
//!
//! A checkpoint is untrusted input: restore never panics on it. Decoding
//! fails typed on any malformed byte, and before a single round runs the
//! decoded state is checked against the configuration it is resumed
//! under — counts per device, device ids, trace order, instants no later
//! than the next round, view-pool handles and reference counts — so a
//! well-formed but inconsistent state is [`CheckpointError::Inconsistent`]
//! rather than an index out of bounds mid-run.
//!
//! # Wire format
//!
//! A versioned little-endian byte stream: the 8-byte magic `HANCKPT1`,
//! a configuration fingerprint (checked at resume so a checkpoint cannot
//! be replayed into a different scenario), then every state field in a
//! fixed order. `Option` values carry a one-byte tag; variable-length
//! sequences a `u64` count. Timestamps are stored at full microsecond
//! resolution — the lossy 23-byte status wire format is deliberately
//! *not* reused here, because checkpointing must not round anything.
//! It is written and read through the crate's one wire codec, shared
//! with the `HANSRV01` service snapshot and the city formats.

use crate::cp::{CpExport, CpStats, PacketExport, StoreExport};
use crate::pool::{PoolSlotExport, ViewPoolExport, ViewPoolStats};
use crate::wire::{Dec, Enc, WireError};
use han_device::appliance::DeviceId;
use han_device::duty_cycle::{ActiveSnapshot, DutyCyclerSnapshot};
use han_device::interface::{DeviceInterfaceSnapshot, DiCounters};
use han_device::status::StatusRecord;
use han_metrics::ResilienceStats;
use han_sim::time::SimTime;
use han_st::stats::DisseminationStats;
use std::fmt;

/// The 8-byte stream magic, doubling as the format version.
const MAGIC: &[u8; 8] = b"HANCKPT1";

/// A point-in-time capture of a running simulation, restorable to a
/// bit-identical continuation (see the [module docs](self)).
///
/// Obtain one from
/// [`HanSimulation::run_checkpointed`](crate::simulation::HanSimulation::run_checkpointed),
/// persist it with [`Checkpoint::to_bytes`], and resume with
/// [`HanSimulation::resume`](crate::simulation::HanSimulation::resume).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub(crate) state: SimState,
}

impl Checkpoint {
    /// The round index the resumed run will execute first.
    pub fn round(&self) -> u64 {
        self.state.next_round
    }

    /// Serializes to the versioned byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(&self.state)
    }

    /// Deserializes a byte stream produced by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on a short, foreign or corrupted stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        decode(bytes).map(|state| Checkpoint { state })
    }
}

/// Errors reading or resuming a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The stream ended before the expected field.
    Truncated {
        /// Byte offset at which more input was required.
        offset: usize,
    },
    /// The stream does not start with the `HANCKPT1` magic.
    BadMagic,
    /// A tag or flag byte held an undefined value.
    BadValue {
        /// Byte offset of the offending value.
        offset: usize,
    },
    /// The checkpoint was taken under a different simulation
    /// configuration and cannot resume this one.
    ConfigMismatch {
        /// Fingerprint of the configuration being resumed.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
    /// Well-formed state followed by unexpected extra bytes.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// The state decoded, but contradicts itself or the configuration it
    /// is resumed under (a count, id, instant or reference that no run
    /// could have produced).
    Inconsistent {
        /// What failed the check.
        reason: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { offset } => {
                write!(f, "checkpoint truncated at byte {offset}")
            }
            CheckpointError::BadMagic => f.write_str("not a HANCKPT1 checkpoint stream"),
            CheckpointError::BadValue { offset } => {
                write!(f, "undefined tag or flag at byte {offset}")
            }
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different configuration \
                 (expected fingerprint {expected:#018x}, found {found:#018x})"
            ),
            CheckpointError::TrailingBytes { extra } => {
                write!(
                    f,
                    "{extra} unexpected trailing bytes after checkpoint state"
                )
            }
            CheckpointError::Inconsistent { reason } => {
                write!(f, "inconsistent checkpoint state: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { offset, .. } => CheckpointError::Truncated { offset },
            WireError::BadMagic => CheckpointError::BadMagic,
            WireError::BadValue { offset } => CheckpointError::BadValue { offset },
        }
    }
}

/// `Ok` if `holds`, else [`CheckpointError::Inconsistent`] with the
/// lazily built `reason` — the one shape every restore-time check takes.
pub(crate) fn ensure(holds: bool, reason: impl FnOnce() -> String) -> Result<(), CheckpointError> {
    if holds {
        Ok(())
    } else {
        Err(CheckpointError::Inconsistent { reason: reason() })
    }
}

/// The full dynamic state of a paused simulation, as captured by the
/// driver. Everything needed to continue bit-identically; nothing that
/// can be re-derived from the (fingerprinted) configuration.
#[derive(Debug, Clone)]
pub(crate) struct SimState {
    /// Fingerprint of the originating configuration.
    pub(crate) fingerprint: u64,
    /// The round index the resumed run executes first (== rounds done).
    pub(crate) next_round: u64,
    pub(crate) divergent_rounds: u64,
    pub(crate) delivered: u64,
    pub(crate) next_request: u64,
    pub(crate) last_load_kw: f64,
    pub(crate) schedule_digest: u64,
    pub(crate) trace: Vec<(SimTime, f64)>,
    pub(crate) last_command: Vec<bool>,
    pub(crate) dis: Vec<DeviceInterfaceSnapshot>,
    /// Per-planner `(level_kw, last_update)` persisted slew state.
    pub(crate) planners: Vec<(f64, Option<SimTime>)>,
    pub(crate) cp: CpExport,
    pub(crate) resilience: ResilienceStats,
    /// Round at which the last fault cleared, while re-agreement is
    /// still being awaited.
    pub(crate) recovery_since: Option<u64>,
    pub(crate) fault_active_last: bool,
    pub(crate) last_miss_total: u32,
}

// ---------------------------------------------------------------------
// State codec.
// ---------------------------------------------------------------------

fn encode(state: &SimState) -> Vec<u8> {
    let mut out = Vec::new();
    let mut e = Enc::new(&mut out);
    e.raw(MAGIC);
    e.u64(state.fingerprint);
    e.u64(state.next_round);
    e.u64(state.divergent_rounds);
    e.u64(state.delivered);
    e.u64(state.next_request);
    e.f64(state.last_load_kw);
    e.u64(state.schedule_digest);
    e.list(&state.trace, |e, &(t, kw)| {
        e.time(t);
        e.f64(kw);
    });
    e.list(&state.last_command, |e, &c| e.bool(c));
    e.list(&state.dis, encode_di);
    e.list(&state.planners, |e, &(level, last)| {
        e.f64(level);
        e.opt(last, Enc::time);
    });
    encode_cp(&mut e, &state.cp);
    encode_resilience(&mut e, &state.resilience);
    e.opt(state.recovery_since, Enc::u64);
    e.bool(state.fault_active_last);
    e.u32(state.last_miss_total);
    out
}

fn decode(bytes: &[u8]) -> Result<SimState, CheckpointError> {
    let mut d = Dec::new(bytes);
    d.magic(MAGIC)?;
    let state = decode_state(&mut d)?;
    if d.remaining() != 0 {
        return Err(CheckpointError::TrailingBytes {
            extra: d.remaining(),
        });
    }
    Ok(state)
}

// List arguments below are each element's minimum encoded size, the
// bound `Dec::list` clamps a claimed count against.
fn decode_state(d: &mut Dec<'_>) -> Result<SimState, WireError> {
    Ok(SimState {
        fingerprint: d.u64()?,
        next_round: d.u64()?,
        divergent_rounds: d.u64()?,
        delivered: d.u64()?,
        next_request: d.u64()?,
        last_load_kw: d.f64()?,
        schedule_digest: d.u64()?,
        trace: d.list(16, |d| Ok((d.time()?, d.f64()?)))?,
        last_command: d.list(1, Dec::bool)?,
        dis: d.list(19, decode_di)?,
        planners: d.list(9, |d| Ok((d.f64()?, d.opt(Dec::time)?)))?,
        cp: decode_cp(d)?,
        resilience: decode_resilience(d)?,
        recovery_since: d.opt(Dec::u64)?,
        fault_active_last: d.bool()?,
        last_miss_total: d.u32()?,
    })
}

/// Full-resolution status-record codec — microsecond-exact, unlike the
/// 23-byte second-granular wire format.
fn encode_record(e: &mut Enc<'_>, r: &StatusRecord) {
    e.u32(r.device.0);
    e.bool(r.active);
    e.bool(r.on);
    e.duration(r.owed);
    e.opt(r.deadline, Enc::time);
    e.u32(r.windows_remaining);
    e.opt(r.arrival, Enc::time);
    e.opt(r.planned_start, Enc::time);
    e.u16(r.power_w);
    e.duration(r.min_dcd);
    e.duration(r.max_dcp);
}

fn decode_record(d: &mut Dec<'_>) -> Result<StatusRecord, WireError> {
    Ok(StatusRecord {
        device: DeviceId(d.u32()?),
        active: d.bool()?,
        on: d.bool()?,
        owed: d.duration()?,
        deadline: d.opt(Dec::time)?,
        windows_remaining: d.u32()?,
        arrival: d.opt(Dec::time)?,
        planned_start: d.opt(Dec::time)?,
        power_w: d.u16()?,
        min_dcd: d.duration()?,
        max_dcp: d.duration()?,
    })
}

fn encode_opt_record(e: &mut Enc<'_>, r: &Option<StatusRecord>) {
    e.opt(r.as_ref(), encode_record);
}

fn decode_opt_record(d: &mut Dec<'_>) -> Result<Option<StatusRecord>, WireError> {
    d.opt(decode_record)
}

fn encode_di(e: &mut Enc<'_>, di: &DeviceInterfaceSnapshot) {
    e.opt(di.cycler.active.as_ref(), |e, a| {
        e.time(a.window_start);
        e.u32(a.windows_remaining);
        e.duration(a.served_in_window);
        e.opt(a.on_since, Enc::time);
        e.opt(a.instance_start, Enc::time);
        e.time(a.arrival);
    });
    e.u32(di.counters.deadline_misses);
    e.u32(di.counters.refused_early_off);
    e.u32(di.counters.windows_served);
    e.u32(di.seq);
    e.opt(di.planned_start, Enc::time);
    encode_opt_record(e, &di.last_published);
}

fn decode_di(d: &mut Dec<'_>) -> Result<DeviceInterfaceSnapshot, WireError> {
    Ok(DeviceInterfaceSnapshot {
        cycler: DutyCyclerSnapshot {
            active: d.opt(|d| {
                Ok(ActiveSnapshot {
                    window_start: d.time()?,
                    windows_remaining: d.u32()?,
                    served_in_window: d.duration()?,
                    on_since: d.opt(Dec::time)?,
                    instance_start: d.opt(Dec::time)?,
                    arrival: d.time()?,
                })
            })?,
        },
        counters: DiCounters {
            deadline_misses: d.u32()?,
            refused_early_off: d.u32()?,
            windows_served: d.u32()?,
        },
        seq: d.u32()?,
        planned_start: d.opt(Dec::time)?,
        last_published: decode_opt_record(d)?,
    })
}

fn encode_cp(e: &mut Enc<'_>, cp: &CpExport) {
    for w in cp.rng {
        e.u64(w);
    }
    e.u64(cp.round_index);
    encode_cp_stats(e, &cp.stats);
    e.list(&cp.last_refresh, |e, &r| e.u64(r));
    e.list(&cp.ge_bad, |e, &b| e.bool(b));
    e.bool(cp.per_node_rows);
    match &cp.store {
        StoreExport::Pooled { pool, handles } => {
            e.u8(0);
            e.list(&pool.slots, |e, slot| {
                e.u32(slot.refs);
                e.u64(slot.key);
                e.list(&slot.records, encode_opt_record);
            });
            e.list(&pool.free, |e, &f| e.u32(f));
            e.usize(pool.live);
            e.usize(pool.peak);
            e.list(handles, |e, &h| e.u32(h));
        }
        StoreExport::PerNode { views } => {
            e.u8(1);
            e.list(views, |e, row| e.list(row, encode_opt_record));
        }
    }
    e.opt(cp.packet.as_ref(), |e, p| {
        e.list(&p.items, |e, store| {
            e.list(store, |e, (origin, seq, payload)| {
                e.u32(*origin);
                e.u32(*seq);
                e.bytes(payload);
            });
        });
        e.list(&p.last_seen, |e, row| {
            e.list(row, |e, &seen| e.opt(seen, Enc::u32));
        });
        e.list(&p.staleness, |e, &s| e.u32(s));
    });
}

fn decode_cp(d: &mut Dec<'_>) -> Result<CpExport, WireError> {
    let mut rng = [0u64; 4];
    for w in &mut rng {
        *w = d.u64()?;
    }
    Ok(CpExport {
        rng,
        round_index: d.u64()?,
        stats: decode_cp_stats(d)?,
        last_refresh: d.list(8, Dec::u64)?,
        ge_bad: d.list(1, Dec::bool)?,
        per_node_rows: d.bool()?,
        store: decode_store(d)?,
        packet: d.opt(|d| {
            Ok(PacketExport {
                items: d.list(8, |d| {
                    d.list(16, |d| Ok((d.u32()?, d.u32()?, d.bytes()?.to_vec())))
                })?,
                last_seen: d.list(8, |d| d.list(1, |d| d.opt(Dec::u32)))?,
                staleness: d.list(4, Dec::u32)?,
            })
        })?,
    })
}

fn decode_store(d: &mut Dec<'_>) -> Result<StoreExport, WireError> {
    let offset = d.pos();
    match d.u8()? {
        0 => Ok(StoreExport::Pooled {
            pool: ViewPoolExport {
                slots: d.list(20, |d| {
                    Ok(PoolSlotExport {
                        refs: d.u32()?,
                        key: d.u64()?,
                        records: d.list(1, decode_opt_record)?,
                    })
                })?,
                free: d.list(4, Dec::u32)?,
                live: d.usize()?,
                peak: d.usize()?,
            },
            handles: d.list(4, Dec::u32)?,
        }),
        1 => Ok(StoreExport::PerNode {
            views: d.list(8, |d| d.list(1, decode_opt_record))?,
        }),
        _ => Err(WireError::BadValue { offset }),
    }
}

fn encode_cp_stats(e: &mut Enc<'_>, s: &CpStats) {
    e.u64(s.rounds);
    e.u64(s.refreshed_records);
    e.u64(s.expected_records);
    e.u64(s.full_rounds);
    e.opt(s.dissemination.as_ref(), |e, d| {
        let (rounds, a2a, rel_sum, worst, tx, radio_on, nodes) = d.raw_parts();
        e.u64(rounds);
        e.u64(a2a);
        e.f64(rel_sum);
        e.f64(worst);
        e.u64(tx);
        e.duration(radio_on);
        e.usize(nodes);
    });
    e.opt(s.worst_sync_error, Enc::duration);
    e.opt(s.view_pool.as_ref(), |e, p| {
        e.usize(p.live_views);
        e.usize(p.peak_views);
        e.usize(p.slots);
        e.usize(p.resident_bytes);
        e.usize(p.per_node_bytes);
    });
}

fn decode_cp_stats(d: &mut Dec<'_>) -> Result<CpStats, WireError> {
    Ok(CpStats {
        rounds: d.u64()?,
        refreshed_records: d.u64()?,
        expected_records: d.u64()?,
        full_rounds: d.u64()?,
        dissemination: d.opt(|d| {
            Ok(DisseminationStats::from_raw_parts((
                d.u64()?,
                d.u64()?,
                d.f64()?,
                d.f64()?,
                d.u64()?,
                d.duration()?,
                d.usize()?,
            )))
        })?,
        worst_sync_error: d.opt(Dec::duration)?,
        view_pool: d.opt(|d| {
            Ok(ViewPoolStats {
                live_views: d.usize()?,
                peak_views: d.usize()?,
                slots: d.usize()?,
                resident_bytes: d.usize()?,
                per_node_bytes: d.usize()?,
            })
        })?,
    })
}

fn encode_resilience(e: &mut Enc<'_>, r: &ResilienceStats) {
    e.u64(r.down_node_rounds);
    e.u64(r.outage_rounds);
    e.list(&r.recoveries, |e, &rec| e.u64(rec));
    e.u64(r.misses_while_down);
    e.u64(r.misses_during_outage);
}

fn decode_resilience(d: &mut Dec<'_>) -> Result<ResilienceStats, WireError> {
    Ok(ResilienceStats {
        down_node_rounds: d.u64()?,
        outage_rounds: d.u64()?,
        recoveries: d.list(8, Dec::u64)?,
        misses_while_down: d.u64()?,
        misses_during_outage: d.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_sim::time::SimDuration;

    fn sample_record(id: u32) -> StatusRecord {
        StatusRecord {
            device: DeviceId(id),
            active: true,
            on: id.is_multiple_of(2),
            owed: SimDuration::from_micros(90_000_001),
            deadline: Some(SimTime::from_micros(123_456_789)),
            windows_remaining: 3,
            arrival: Some(SimTime::from_micros(7)),
            planned_start: None,
            power_w: 1500,
            min_dcd: SimDuration::from_mins(15),
            max_dcp: SimDuration::from_mins(30),
        }
    }

    fn sample_state() -> SimState {
        SimState {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            next_round: 17,
            divergent_rounds: 2,
            delivered: 5,
            next_request: 5,
            last_load_kw: 3.25,
            schedule_digest: 42,
            trace: vec![(SimTime::ZERO, 0.0), (SimTime::from_micros(2_000_001), 2.5)],
            last_command: vec![false, true, false],
            dis: vec![
                DeviceInterfaceSnapshot {
                    cycler: DutyCyclerSnapshot { active: None },
                    counters: DiCounters::default(),
                    seq: 1,
                    planned_start: None,
                    last_published: None,
                },
                DeviceInterfaceSnapshot {
                    cycler: DutyCyclerSnapshot {
                        active: Some(ActiveSnapshot {
                            window_start: SimTime::from_mins(3),
                            windows_remaining: 2,
                            served_in_window: SimDuration::from_secs(30),
                            on_since: Some(SimTime::from_mins(4)),
                            instance_start: Some(SimTime::from_mins(4)),
                            arrival: SimTime::from_mins(1),
                        }),
                    },
                    counters: DiCounters {
                        deadline_misses: 1,
                        refused_early_off: 2,
                        windows_served: 3,
                    },
                    seq: 9,
                    planned_start: Some(SimTime::from_mins(6)),
                    last_published: Some(sample_record(1)),
                },
            ],
            planners: vec![(4.0, Some(SimTime::from_secs(10))), (0.0, None)],
            cp: CpExport {
                rng: [1, 2, 3, 4],
                round_index: 17,
                stats: CpStats {
                    rounds: 17,
                    refreshed_records: 120,
                    expected_records: 136,
                    full_rounds: 11,
                    dissemination: Some(DisseminationStats::from_raw_parts((
                        17,
                        15,
                        16.5,
                        0.88,
                        900,
                        SimDuration::from_millis(120),
                        8,
                    ))),
                    worst_sync_error: Some(SimDuration::from_micros(44)),
                    view_pool: Some(ViewPoolStats {
                        live_views: 2,
                        peak_views: 3,
                        slots: 3,
                        resident_bytes: 640,
                        per_node_bytes: 1280,
                    }),
                },
                last_refresh: vec![0, 3, u64::MAX, 16],
                ge_bad: vec![true, false],
                per_node_rows: true,
                store: StoreExport::Pooled {
                    pool: ViewPoolExport {
                        slots: vec![
                            PoolSlotExport {
                                refs: 2,
                                key: 77,
                                records: vec![Some(sample_record(0)), None],
                            },
                            PoolSlotExport {
                                refs: 0,
                                key: 0,
                                records: Vec::new(),
                            },
                        ],
                        free: vec![1],
                        live: 1,
                        peak: 2,
                    },
                    handles: vec![0, 0],
                },
                packet: Some(PacketExport {
                    items: vec![vec![(0, 4, vec![1, 2, 3])], vec![]],
                    last_seen: vec![vec![Some(4), None], vec![None, Some(2)]],
                    staleness: vec![0, 5],
                }),
            },
            resilience: ResilienceStats {
                down_node_rounds: 12,
                outage_rounds: 3,
                recoveries: vec![4, 9],
                misses_while_down: 1,
                misses_during_outage: 0,
            },
            recovery_since: Some(15),
            fault_active_last: true,
            last_miss_total: 1,
        }
    }

    fn assert_states_equal(a: &SimState, b: &SimState) {
        // SimState holds f64s, so no derived Eq; field-by-field via the
        // Debug rendering is exact for the payloads involved (bit-level
        // f64 round-trip through to_bits/from_bits).
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn round_trips_bit_exactly() {
        let state = sample_state();
        let bytes = Checkpoint {
            state: state.clone(),
        }
        .to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("decodes");
        assert_states_equal(&state, &back.state);
        assert_eq!(back.round(), 17);
        // Idempotent re-encode.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn per_node_store_round_trips() {
        let mut state = sample_state();
        state.cp.store = StoreExport::PerNode {
            views: vec![vec![Some(sample_record(0)), None], vec![None, None]],
        };
        state.cp.packet = None;
        let bytes = Checkpoint {
            state: state.clone(),
        }
        .to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("decodes");
        assert_states_equal(&state, &back.state);
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = Checkpoint {
            state: sample_state(),
        }
        .to_bytes();
        for cut in [0, 4, 8, 20, bytes.len() - 1] {
            let err = Checkpoint::from_bytes(&bytes[..cut]).expect_err("must fail");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::BadMagic
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn foreign_streams_rejected() {
        assert!(matches!(
            Checkpoint::from_bytes(b"NOTACKPT________"),
            Err(CheckpointError::BadMagic)
        ));
        let mut bytes = Checkpoint {
            state: sample_state(),
        }
        .to_bytes();
        bytes.push(0);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(CheckpointError::Truncated { offset: 12 }
            .to_string()
            .contains("12"));
        assert!(CheckpointError::BadMagic.to_string().contains("HANCKPT1"));
        assert!(CheckpointError::ConfigMismatch {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("different configuration"));
        assert!(CheckpointError::TrailingBytes { extra: 3 }
            .to_string()
            .contains("3"));
        assert!(CheckpointError::BadValue { offset: 9 }
            .to_string()
            .contains("9"));
        assert!(CheckpointError::Inconsistent {
            reason: "device id 40 outside the fleet".into()
        }
        .to_string()
        .contains("device id 40"));
    }
}
