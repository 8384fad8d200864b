//! Multi-process city runner: a worker fleet over `HANFAGG1` pipes.
//!
//! The in-process city runner ([`City::run`]) partitions feeders across
//! streaming shards inside one address space. This module runs the
//! *same* partitioned work as **worker processes**: a parent supervisor
//! assigns each worker a contiguous feeder range (the same pure
//! `partition` function shards use), and each
//! worker streams its per-feeder [`FeederAggregate`]s back over a byte
//! pipe as length-framed `HANFAGG1` records. In-process shards hand the
//! same aggregates over as values; the record format round-trips every
//! field bit-exactly, so the parent's reduction path — order by feeder
//! id, fold through `CityReport::reduce` — is shared, and the
//! multi-process report is `PartialEq`-identical to the in-process one
//! (pinned by `tests/prop_city_mp.rs` and the CLI golden battery).
//!
//! # Wire protocol
//!
//! A worker writes exactly one stream:
//!
//! ```text
//! stream    := handshake frame* fin
//! handshake := "HANCITY1" version:u32 fingerprint:u64
//!              worker:u32 workers:u32 first_feeder:u32 feeder_count:u32
//! frame     := len:u32 payload:[u8; len]     (one HANFAGG1 record)
//! fin       := 0:u32
//! ```
//!
//! All integers are little-endian, written and read through the crate's
//! one wire codec (shared with the `HANCKPT1`/`HANSRV01` snapshot
//! formats). The handshake is versioned and carries the parent's
//! expected `CitySpec::fingerprint` — a worker that derived a
//! different spec (version skew, mangled argv) fails with a typed
//! [`WorkerError::FingerprintMismatch`] before a single record is
//! reduced. Record frames are length-framed *and* the payload is a
//! self-delimiting record, so the parent can detect trailing garbage
//! inside a frame ([`MpWireError::TrailingBytes`]) as well as a short
//! stream ([`MpWireError::Truncated`]). The zero-length `fin` frame
//! closes the stream; bytes after it are [`MpWireError::TrailingData`].
//!
//! One deframer reads every stream, over any `Read`: the supervisor's
//! per-worker reader thread runs it over the worker's pipe, and
//! [`decode_stream`] runs it over a byte slice — which is what the
//! adversarial battery truncates and corrupts, so the battery attacks
//! the production reader. The two differ only in how a stream that
//! stops at a message boundary reads: [`MpWireError::Truncated`] over a
//! slice, [`WorkerError::Died`] from a live worker. A worker frames each
//! aggregate as it encodes it; nothing is decoded on the writing side.

//! # Supervisor robustness
//!
//! The parent owns the failure modes: a per-worker read **deadline**
//! (a stalled worker becomes [`WorkerError::Deadline`], never a hang),
//! typed errors for crash / short-read / garbage frames, and clean
//! teardown — on any worker failure the remaining fleet is killed
//! through each connection's shutdown hook before the error returns.
//! With [`MpOptions::restart`], a dead worker is relaunched **once**
//! and its partition re-read from scratch; this is sound because a
//! worker's stream is a pure function of `(spec, range)` — per-home
//! seeds derive from `mix_seed(city seed, home id)`, so a restarted
//! worker reproduces its predecessor's bytes exactly.
//!
//! # Transports
//!
//! The supervisor is transport-generic: a launcher callback hands back
//! a [`WorkerConnection`] wrapping any `Read + Send` stream. `hansim
//! city --workers N` re-execs itself as hidden `city-worker` children
//! over stdout pipes; the differential battery drives the identical
//! protocol over in-process [`std::io::pipe`] pairs.

use std::io::{Read, Write};
use std::ops::Range;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use han_obs::{Counter, Gauge, Obs};
use han_workload::fleet::ScenarioError;
use rayon::prelude::*;

use super::tree::FeederAggregate;
use super::{partition, City, CityReport, CitySpec};
use crate::wire::{Dec, Enc, WireError};

/// Version carried (and required) by the `HANCITY1` handshake.
pub(crate) const PROTOCOL_VERSION: u32 = 1;

/// Magic prefix of the worker handshake.
const MAGIC: &[u8; 8] = b"HANCITY1";

/// Exact encoded size of a [`Handshake`], bytes.
pub const HANDSHAKE_LEN: usize = 8 + 4 + 8 + 4 + 4 + 4 + 4;

/// Upper bound a record frame's length prefix may claim. Far above any
/// real aggregate (a 350-minute feeder record is a few kilobytes) but
/// low enough that a corrupted prefix fails typed instead of driving an
/// unbounded allocation in the parent.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// The versioned header a worker writes before its record stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handshake {
    /// Protocol version the worker speaks.
    pub version: u32,
    /// The worker's `CitySpec::fingerprint` of the spec it derived.
    pub fingerprint: u64,
    /// This worker's index in the fleet.
    pub worker: u32,
    /// Fleet size the worker believes it is part of.
    pub workers: u32,
    /// First feeder id of the worker's partition.
    pub first_feeder: u32,
    /// Feeders in the worker's partition.
    pub feeder_count: u32,
}

impl Handshake {
    /// Serializes the handshake ([`HANDSHAKE_LEN`] bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HANDSHAKE_LEN);
        let mut e = Enc::new(&mut out);
        e.raw(MAGIC);
        e.u32(self.version);
        e.u64(self.fingerprint);
        e.u32(self.worker);
        e.u32(self.workers);
        e.u32(self.first_feeder);
        e.u32(self.feeder_count);
        out
    }

    /// Decodes a handshake from the front of `bytes`, returning it and
    /// the bytes consumed.
    ///
    /// # Errors
    ///
    /// [`MpWireError::BadMagic`] or [`MpWireError::Truncated`]; the
    /// version is *not* checked here — the supervisor turns an
    /// unexpected version into the typed [`WorkerError::Version`].
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), MpWireError> {
        let mut d = Dec::new(bytes);
        d.magic(MAGIC)?;
        let handshake = Handshake {
            version: d.u32()?,
            fingerprint: d.u64()?,
            worker: d.u32()?,
            workers: d.u32()?,
            first_feeder: d.u32()?,
            feeder_count: d.u32()?,
        };
        Ok((handshake, d.pos()))
    }
}

/// Why a worker's byte stream failed to decode — the wire-layer half of
/// [`WorkerError`]. The supervisor's reader thread and the pure-slice
/// [`decode_stream`] the adversarial battery truncates and corrupts run
/// the same deframer, so both report the same variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpWireError {
    /// The stream did not start with the `HANCITY1` magic.
    BadMagic,
    /// The stream — or a record inside its frame — ended mid-structure,
    /// or claimed a count its remaining bytes cannot hold.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes it had left.
        have: usize,
    },
    /// A frame length prefix exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The claimed length.
        len: u32,
    },
    /// A frame payload did not start with the `HANFAGG1` record magic.
    BadRecordMagic,
    /// A frame payload decoded, but `extra` bytes followed the record
    /// inside the frame.
    TrailingBytes {
        /// Leftover bytes inside the frame.
        extra: usize,
    },
    /// Bytes followed the closing `fin` frame.
    TrailingData {
        /// Bytes after the end of the stream (at least this many).
        extra: usize,
    },
}

impl std::fmt::Display for MpWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpWireError::BadMagic => {
                write!(f, "worker stream does not start with HANCITY1")
            }
            MpWireError::Truncated { needed, have } => write!(
                f,
                "worker stream truncated: needed {needed} more byte(s), had {have}"
            ),
            MpWireError::FrameTooLarge { len } => write!(
                f,
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound"
            ),
            MpWireError::BadRecordMagic => {
                write!(f, "frame payload does not start with HANFAGG1")
            }
            MpWireError::TrailingBytes { extra } => {
                write!(f, "{extra} stray byte(s) after the record inside a frame")
            }
            MpWireError::TrailingData { extra } => {
                write!(f, "{extra} stray byte(s) after the closing fin frame")
            }
        }
    }
}

impl std::error::Error for MpWireError {}

impl From<WireError> for MpWireError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { needed, have, .. } => MpWireError::Truncated { needed, have },
            WireError::BadMagic => MpWireError::BadMagic,
            // `Dec` reports a bad value only for tag bytes and stored
            // sizes, and neither the handshake nor a record has one.
            WireError::BadValue { offset } => {
                unreachable!("HANCITY1 and HANFAGG1 hold no tag at byte {offset}")
            }
        }
    }
}

/// Decodes one complete worker stream — handshake, record frames, fin —
/// from a byte slice. It runs the supervisor's own deframer over the
/// slice, minus the deadlines, so the adversarial battery can truncate
/// and bit-flip it at every offset and require a typed error (never a
/// panic) from exactly the code a live fleet runs. A stream that simply
/// stops at a message boundary is [`MpWireError::Truncated`] here (the
/// supervisor reports a dead worker instead).
///
/// # Errors
///
/// [`MpWireError`] for any malformed byte; the handshake's version and
/// fingerprint are *not* validated (that is supervisor policy, not wire
/// shape).
pub fn decode_stream(bytes: &[u8]) -> Result<(Handshake, Vec<FeederAggregate>), MpWireError> {
    let mut stream = StreamReader::new(bytes);
    let handshake = stream.handshake().map_err(StreamEnd::into_wire)?;
    let mut records = Vec::new();
    loop {
        match stream.next_frame().map_err(StreamEnd::into_wire)? {
            Frame::Record { record, .. } => records.push(record),
            Frame::Fin => return Ok((handshake, records)),
        }
    }
}

/// One message of a worker stream after its handshake.
enum Frame {
    /// A decoded record and the length its frame claimed.
    Record {
        record: FeederAggregate,
        payload_len: u32,
    },
    /// The zero-length closing frame, with nothing after it.
    Fin,
}

/// Why [`StreamReader`] stopped short of a message.
enum StreamEnd {
    /// Bytes arrived that do not parse.
    Wire(MpWireError),
    /// No byte of the next message arrived (`needed` were due): the
    /// writer closed the stream at a message boundary, or reading failed
    /// outright.
    Closed { needed: usize, detail: String },
}

impl StreamEnd {
    /// The byte-slice reading of an end: a stream that stops at a
    /// message boundary is a truncated one.
    fn into_wire(self) -> MpWireError {
        match self {
            StreamEnd::Wire(e) => e,
            StreamEnd::Closed { needed, .. } => MpWireError::Truncated { needed, have: 0 },
        }
    }
}

/// The one `HANCITY1` deframer, over any byte source: [`decode_stream`]
/// runs it over a slice, the supervisor's reader thread over a worker
/// pipe.
struct StreamReader<R> {
    reader: R,
    /// Reused frame-payload buffer.
    payload: Vec<u8>,
}

impl<R: Read> StreamReader<R> {
    fn new(reader: R) -> Self {
        StreamReader {
            reader,
            payload: Vec::new(),
        }
    }

    /// Reads until `buf` is full or the stream ends, returning how many
    /// bytes arrived; none at all is [`StreamEnd::Closed`].
    fn fill(&mut self, buf: &mut [u8], next: &str) -> Result<usize, StreamEnd> {
        let needed = buf.len();
        let closed = |detail: String| StreamEnd::Closed { needed, detail };
        match read_full(&mut self.reader, buf) {
            Ok(0) => Err(closed(format!("stream closed before {next}"))),
            Ok(n) => Ok(n),
            Err(e) => Err(closed(e.to_string())),
        }
    }

    fn handshake(&mut self) -> Result<Handshake, StreamEnd> {
        let mut header = [0u8; HANDSHAKE_LEN];
        let n = self.fill(&mut header, "the handshake")?;
        Handshake::decode(&header[..n])
            .map(|(handshake, _)| handshake)
            .map_err(StreamEnd::Wire)
    }

    fn next_frame(&mut self) -> Result<Frame, StreamEnd> {
        let mut prefix = [0u8; 4];
        let n = self.fill(&mut prefix, "the fin frame")?;
        let len = Dec::new(&prefix[..n])
            .u32()
            .map_err(|e| StreamEnd::Wire(e.into()))?;
        if len == 0 {
            // Fin. Anything after it is garbage.
            let mut probe = [0u8; 64];
            return match read_full(&mut self.reader, &mut probe) {
                Ok(0) => Ok(Frame::Fin),
                Ok(extra) => Err(StreamEnd::Wire(MpWireError::TrailingData { extra })),
                Err(e) => Err(StreamEnd::Closed {
                    needed: 0,
                    detail: e.to_string(),
                }),
            };
        }
        if len > MAX_FRAME_LEN {
            return Err(StreamEnd::Wire(MpWireError::FrameTooLarge { len }));
        }
        // Read through `take` rather than into a `len`-sized buffer: a
        // lying prefix then costs only the bytes that actually arrive.
        self.payload.clear();
        let have = (&mut self.reader)
            .take(u64::from(len))
            .read_to_end(&mut self.payload)
            .map_err(|e| StreamEnd::Closed {
                needed: len as usize,
                detail: e.to_string(),
            })?;
        let needed = len as usize;
        if have < needed {
            return Err(StreamEnd::Wire(MpWireError::Truncated { needed, have }));
        }
        let (record, used) = FeederAggregate::decode(&self.payload).map_err(StreamEnd::Wire)?;
        if used != needed {
            return Err(StreamEnd::Wire(MpWireError::TrailingBytes {
                extra: needed - used,
            }));
        }
        Ok(Frame::Record {
            record,
            payload_len: len,
        })
    }
}

/// Reads `buf.len()` bytes or returns how many arrived before EOF.
fn read_full(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut have = 0;
    while have < buf.len() {
        match reader.read(&mut buf[have..]) {
            Ok(0) => break,
            Ok(n) => have += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(have)
}

/// Why the multi-process supervisor failed. Every variant names the
/// worker it came from; the supervisor tears the remaining fleet down
/// before returning one.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerError {
    /// The worker count is outside `1..=feeders` (feeders are the
    /// partitioning unit, as for shards).
    BadWorkerCount {
        /// The requested fleet size.
        workers: usize,
        /// Feeders available to partition.
        feeders: usize,
    },
    /// The launcher failed to establish a worker connection.
    Spawn {
        /// Worker index.
        worker: usize,
        /// Launcher-reported cause.
        detail: String,
    },
    /// The worker's byte stream failed to decode.
    Wire {
        /// Worker index.
        worker: usize,
        /// The wire-layer cause.
        error: MpWireError,
    },
    /// The handshake carried an unsupported protocol version.
    Version {
        /// Worker index.
        worker: usize,
        /// The version the worker sent.
        found: u32,
    },
    /// The worker derived a different spec than the parent.
    FingerprintMismatch {
        /// Worker index.
        worker: usize,
        /// The parent's `CitySpec::fingerprint`.
        expected: u64,
        /// The fingerprint the worker sent.
        found: u64,
    },
    /// The handshake claimed a different partition than assigned.
    Partition {
        /// Worker index.
        worker: usize,
        /// The feeder range the parent assigned.
        expected: Range<usize>,
        /// The range the worker claimed.
        found: Range<usize>,
    },
    /// A record arrived for the wrong feeder (workers emit their range
    /// in feeder order).
    UnexpectedFeeder {
        /// Worker index.
        worker: usize,
        /// The feeder id due next.
        expected: u32,
        /// The feeder id that arrived.
        found: u32,
    },
    /// The worker's stream ended (crash, kill, or I/O failure) before
    /// the fin frame.
    Died {
        /// Worker index.
        worker: usize,
        /// What the reader observed.
        detail: String,
    },
    /// The worker went silent past the read deadline.
    Deadline {
        /// Worker index.
        worker: usize,
        /// How long the supervisor waited.
        waited: Duration,
    },
    /// The spec itself was invalid.
    Scenario(ScenarioError),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::BadWorkerCount { workers, feeders } => write!(
                f,
                "cannot run {feeders} feeder(s) across {workers} worker process(es) \
                 (need 1..={feeders})"
            ),
            WorkerError::Spawn { worker, detail } => {
                write!(f, "worker {worker} failed to start: {detail}")
            }
            WorkerError::Wire { worker, error } => write!(f, "worker {worker}: {error}"),
            WorkerError::Version { worker, found } => write!(
                f,
                "worker {worker} speaks protocol version {found}, parent speaks \
                 {PROTOCOL_VERSION}"
            ),
            WorkerError::FingerprintMismatch {
                worker,
                expected,
                found,
            } => write!(
                f,
                "worker {worker} derived config fingerprint {found:016x}, parent expected \
                 {expected:016x}"
            ),
            WorkerError::Partition {
                worker,
                expected,
                found,
            } => write!(
                f,
                "worker {worker} claimed feeders {found:?}, parent assigned {expected:?}"
            ),
            WorkerError::UnexpectedFeeder {
                worker,
                expected,
                found,
            } => write!(
                f,
                "worker {worker} sent a record for feeder {found}, expected feeder {expected}"
            ),
            WorkerError::Died { worker, detail } => {
                write!(f, "worker {worker} died mid-stream: {detail}")
            }
            WorkerError::Deadline { worker, waited } => write!(
                f,
                "worker {worker} sent nothing for {}ms (read deadline)",
                waited.as_millis()
            ),
            WorkerError::Scenario(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<ScenarioError> for WorkerError {
    fn from(e: ScenarioError) -> Self {
        WorkerError::Scenario(e)
    }
}

/// Why [`serve_worker`] — the worker side — failed.
#[derive(Debug)]
pub enum ServeError {
    /// The spec was invalid.
    Scenario(ScenarioError),
    /// The worker index/count pair does not partition this spec.
    BadWorkerCount {
        /// The fleet size claimed.
        workers: usize,
        /// Feeders available.
        feeders: usize,
    },
    /// Writing the stream failed (parent gone, pipe closed).
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Scenario(e) => write!(f, "{e}"),
            ServeError::BadWorkerCount { workers, feeders } => write!(
                f,
                "cannot serve a {feeders}-feeder city as worker fleet of {workers}"
            ),
            ServeError::Io(e) => write!(f, "worker stream: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ScenarioError> for ServeError {
    fn from(e: ScenarioError) -> Self {
        ServeError::Scenario(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Runs worker `worker` of a fleet of `workers` over `spec`'s feeder
/// partition and writes the complete protocol stream — handshake,
/// length-framed `HANFAGG1` records in feeder order, fin — into `out`.
///
/// The worker's feeder range is re-derived from `(spec, worker,
/// workers)` through the same `partition` function
/// the supervisor uses, so assignment needs no parent→worker channel.
/// Within its range the worker still parallelizes across the spec's
/// shard partition (rayon), exactly as the in-process runner does —
/// the emitted records are byte-identical either way.
///
/// # Errors
///
/// [`ServeError`] for an invalid spec, an impossible `(worker,
/// workers)` pair, or a write failure.
pub fn serve_worker(
    spec: &CitySpec,
    worker: usize,
    workers: usize,
    out: &mut dyn Write,
) -> Result<(), ServeError> {
    let city = City::new(spec.clone()).map_err(ServeError::Scenario)?;
    if workers == 0 || workers > spec.feeders || worker >= workers {
        return Err(ServeError::BadWorkerCount {
            workers,
            feeders: spec.feeders,
        });
    }
    let range = partition(spec.feeders, workers)[worker].clone();
    let handshake = Handshake {
        version: PROTOCOL_VERSION,
        fingerprint: spec.fingerprint(),
        worker: worker as u32,
        workers: workers as u32,
        first_feeder: range.start as u32,
        feeder_count: range.len() as u32,
    };
    out.write_all(&handshake.encode())?;
    // Flush so the parent sees the handshake before the (possibly long)
    // simulation fills the first frame.
    out.flush()?;

    // Sub-shard the worker's range with the same partition function, so
    // a wide worker still uses its cores; streams concatenate in feeder
    // order, which keeps the emitted record order deterministic.
    let subranges: Vec<Range<usize>> = partition(range.len(), spec.effective_shards())
        .into_iter()
        .map(|r| range.start + r.start..range.start + r.end)
        .collect();
    let shards = crate::experiment::collect_results(
        subranges
            .par_iter()
            .map(|r| city.run_shard_range(r.clone()))
            .collect(),
    )
    .map_err(ServeError::Scenario)?;

    // Each aggregate is framed as it is encoded; the fin is the empty
    // frame.
    let mut frame = Vec::new();
    for agg in shards.iter().flatten() {
        frame.clear();
        Enc::new(&mut frame).frame(|e| agg.write(e));
        out.write_all(&frame)?;
    }
    frame.clear();
    Enc::new(&mut frame).frame(|_| {});
    out.write_all(&frame)?;
    out.flush()?;
    Ok(())
}

/// What the launcher must start: worker `worker` of `workers`, covering
/// feeder `range` of the city.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerTask {
    /// Worker index, `0..workers`.
    pub worker: usize,
    /// Fleet size.
    pub workers: usize,
    /// The contiguous feeder range this worker must emit, in order.
    pub range: Range<usize>,
}

/// A live worker connection: the byte stream the supervisor reads, plus
/// an optional shutdown hook it invokes exactly once when it is done
/// with the worker — on clean completion (reap), on fleet teardown
/// after another worker's failure (kill), or before a restart.
pub struct WorkerConnection {
    reader: Box<dyn Read + Send>,
    shutdown: Option<Box<dyn FnMut() + Send>>,
}

impl std::fmt::Debug for WorkerConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerConnection")
            .field("has_shutdown", &self.shutdown.is_some())
            .finish()
    }
}

impl WorkerConnection {
    /// Wraps a readable worker stream.
    pub fn new(reader: impl Read + Send + 'static) -> Self {
        WorkerConnection {
            reader: Box::new(reader),
            shutdown: None,
        }
    }

    /// Attaches the shutdown hook (kill + reap for a process-backed
    /// worker; a no-op or join for a thread-backed one).
    #[must_use]
    pub fn with_shutdown(mut self, shutdown: impl FnMut() + Send + 'static) -> Self {
        self.shutdown = Some(Box::new(shutdown));
        self
    }
}

/// Supervisor tuning knobs.
#[derive(Debug, Clone)]
pub struct MpOptions {
    /// Worker processes to run; must be `1..=feeders`.
    pub workers: usize,
    /// Per-worker inactivity deadline: the longest the supervisor waits
    /// for the *next* protocol message before declaring
    /// [`WorkerError::Deadline`].
    pub deadline: Duration,
    /// Relaunch a dead worker once and re-read its partition
    /// (deterministic: a worker's stream is a pure function of
    /// `(spec, range)`).
    pub restart: bool,
}

impl MpOptions {
    /// Options for a fleet of `workers` with a 30-second deadline and
    /// no restart.
    pub fn new(workers: usize) -> Self {
        MpOptions {
            workers,
            deadline: Duration::from_secs(30),
            restart: false,
        }
    }

    /// Replaces the read deadline (builder-style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Enables the one-shot dead-worker restart (builder-style).
    #[must_use]
    pub fn with_restart(mut self, restart: bool) -> Self {
        self.restart = restart;
        self
    }
}

/// Transport statistics of one supervised run, for the bench harness
/// and the observability plane.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MpStats {
    /// Workers in the fleet.
    pub workers: usize,
    /// Record frames received (one per feeder).
    pub frames: u64,
    /// Framed payload bytes received.
    pub payload_bytes: u64,
    /// Dead workers relaunched.
    pub restarts: u64,
    /// Wall clock from each worker's launch to its fin frame.
    pub worker_wall: Vec<Duration>,
}

/// One protocol message, shipped from a reader thread to the
/// supervisor so every receive can carry a deadline.
enum Msg {
    Handshake(Handshake),
    Frame(Frame),
    /// The stream stopped short: malformed bytes, or it closed or failed
    /// before the fin frame.
    End(StreamEnd),
}

impl StreamEnd {
    /// The supervisor's reading of an end: a stream that stops at a
    /// message boundary belongs to a worker that died.
    fn into_worker_error(self, worker: usize) -> WorkerError {
        match self {
            StreamEnd::Wire(error) => WorkerError::Wire { worker, error },
            StreamEnd::Closed { detail, .. } => WorkerError::Died { worker, detail },
        }
    }
}

/// The reader-thread loop: deframe one worker stream into messages.
fn read_worker_stream(reader: Box<dyn Read + Send>, tx: &mpsc::Sender<Msg>) {
    // The supervisor may have torn the run down; a dead channel just
    // ends the thread.
    let send = |msg: Msg| {
        let _ = tx.send(msg);
    };
    let mut stream = StreamReader::new(reader);
    match stream.handshake() {
        Ok(handshake) => send(Msg::Handshake(handshake)),
        Err(end) => return send(Msg::End(end)),
    }
    loop {
        match stream.next_frame() {
            Ok(Frame::Fin) => return send(Msg::Frame(Frame::Fin)),
            Ok(frame) => send(Msg::Frame(frame)),
            Err(end) => return send(Msg::End(end)),
        }
    }
}

/// One launched worker as the supervisor tracks it.
struct LiveWorker {
    rx: mpsc::Receiver<Msg>,
    shutdown: Option<Box<dyn FnMut() + Send>>,
    started: Instant,
    restarted: bool,
}

impl LiveWorker {
    fn launch(
        task: &WorkerTask,
        launch: &mut dyn FnMut(&WorkerTask) -> Result<WorkerConnection, String>,
    ) -> Result<LiveWorker, WorkerError> {
        let connection = launch(task).map_err(|detail| WorkerError::Spawn {
            worker: task.worker,
            detail,
        })?;
        let (tx, rx) = mpsc::channel();
        let reader = connection.reader;
        std::thread::spawn(move || read_worker_stream(reader, &tx));
        Ok(LiveWorker {
            rx,
            shutdown: connection.shutdown,
            started: Instant::now(),
            restarted: false,
        })
    }

    fn shut_down(&mut self) {
        if let Some(mut hook) = self.shutdown.take() {
            hook();
        }
    }
}

/// Runs a city as a supervised multi-process worker fleet and reduces
/// the streamed records through the unchanged feeder → substation →
/// city path.
///
/// `launch` is called once per worker (plus once per restart) and must
/// return a connection to a worker that speaks the module protocol —
/// typically a spawned `hansim city-worker` child reading nothing and
/// writing its stream to stdout, but any `Read + Send` transport works.
/// The returned report is `PartialEq`-identical to [`City::run`] on the
/// same spec, for every valid worker count.
///
/// Worker metrics flow into `obs`: fleet size, frames, payload bytes,
/// restarts, and the per-worker wall imbalance (1000 = perfectly
/// balanced). As everywhere, observation never changes the report.
///
/// # Errors
///
/// [`WorkerError`] — after tearing down the remaining fleet — when a
/// worker fails to spawn, hands back a malformed or mismatched
/// handshake, streams garbage, dies mid-stream, or outwaits the read
/// deadline. No partial report is ever returned.
pub fn run_city_mp(
    spec: &CitySpec,
    options: &MpOptions,
    obs: &Obs,
    launch: &mut dyn FnMut(&WorkerTask) -> Result<WorkerConnection, String>,
) -> Result<(CityReport, MpStats), WorkerError> {
    spec.validate()?;
    if options.workers == 0 || options.workers > spec.feeders {
        return Err(WorkerError::BadWorkerCount {
            workers: options.workers,
            feeders: spec.feeders,
        });
    }
    let tasks: Vec<WorkerTask> = partition(spec.feeders, options.workers)
        .into_iter()
        .enumerate()
        .map(|(worker, range)| WorkerTask {
            worker,
            workers: options.workers,
            range,
        })
        .collect();

    // Launch the whole fleet up front; each reader thread drains its
    // pipe concurrently so no worker blocks on a full pipe while the
    // supervisor is busy with another.
    let mut fleet: Vec<LiveWorker> = Vec::with_capacity(tasks.len());
    let mut stats = MpStats {
        workers: options.workers,
        ..MpStats::default()
    };
    for task in &tasks {
        match LiveWorker::launch(task, launch) {
            Ok(live) => fleet.push(live),
            Err(e) => {
                for live in &mut fleet {
                    live.shut_down();
                }
                return Err(e);
            }
        }
    }

    let expected_fingerprint = spec.fingerprint();
    let mut feeders: Vec<FeederAggregate> = Vec::with_capacity(spec.feeders);
    let mut outcome: Result<(), WorkerError> = Ok(());
    'workers: for (i, task) in tasks.iter().enumerate() {
        loop {
            match read_partition(
                &fleet[i],
                task,
                options.deadline,
                expected_fingerprint,
                &mut stats,
            ) {
                Ok(mut records) => {
                    stats.worker_wall.push(fleet[i].started.elapsed());
                    fleet[i].shut_down();
                    feeders.append(&mut records);
                    break;
                }
                Err(e) => {
                    fleet[i].shut_down();
                    let retryable = !matches!(e, WorkerError::Spawn { .. });
                    if options.restart && retryable && !fleet[i].restarted {
                        match LiveWorker::launch(task, launch) {
                            Ok(mut fresh) => {
                                fresh.restarted = true;
                                stats.restarts += 1;
                                fleet[i] = fresh;
                                continue;
                            }
                            Err(spawn_err) => {
                                outcome = Err(spawn_err);
                                break 'workers;
                            }
                        }
                    }
                    outcome = Err(e);
                    break 'workers;
                }
            }
        }
    }

    // Teardown: every hook fires exactly once — kill-and-reap for
    // workers still running after a failure, plain reap otherwise.
    for live in &mut fleet {
        live.shut_down();
    }
    outcome?;

    feeders.sort_by_key(|f| f.feeder);
    let report = CityReport::reduce(spec.name.clone(), feeders, spec.effective_fanin());
    publish_obs(obs, &report, &stats);
    Ok((report, stats))
}

/// Receives and validates one worker's full partition stream.
fn read_partition(
    live: &LiveWorker,
    task: &WorkerTask,
    deadline: Duration,
    expected_fingerprint: u64,
    stats: &mut MpStats,
) -> Result<Vec<FeederAggregate>, WorkerError> {
    let worker = task.worker;
    let recv = |what: &'static str| -> Result<Msg, WorkerError> {
        match live.rx.recv_timeout(deadline) {
            Ok(msg) => Ok(msg),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(WorkerError::Deadline {
                worker,
                waited: deadline,
            }),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(WorkerError::Died {
                worker,
                detail: format!("reader thread gone before {what}"),
            }),
        }
    };
    let handshake = match recv("the handshake")? {
        Msg::Handshake(h) => h,
        Msg::End(end) => return Err(end.into_worker_error(worker)),
        Msg::Frame(_) => unreachable!("reader sends the handshake first"),
    };
    if handshake.version != PROTOCOL_VERSION {
        return Err(WorkerError::Version {
            worker,
            found: handshake.version,
        });
    }
    if handshake.fingerprint != expected_fingerprint {
        return Err(WorkerError::FingerprintMismatch {
            worker,
            expected: expected_fingerprint,
            found: handshake.fingerprint,
        });
    }
    let claimed = handshake.first_feeder as usize
        ..handshake.first_feeder as usize + handshake.feeder_count as usize;
    if handshake.worker as usize != worker
        || handshake.workers as usize != task.workers
        || claimed != task.range
    {
        return Err(WorkerError::Partition {
            worker,
            expected: task.range.clone(),
            found: claimed,
        });
    }

    let mut records = Vec::with_capacity(task.range.len());
    for expected_feeder in task.range.clone() {
        match recv("a record frame")? {
            Msg::Frame(Frame::Record {
                record,
                payload_len,
            }) => {
                if record.feeder as usize != expected_feeder {
                    return Err(WorkerError::UnexpectedFeeder {
                        worker,
                        expected: expected_feeder as u32,
                        found: record.feeder,
                    });
                }
                stats.frames += 1;
                stats.payload_bytes += u64::from(payload_len);
                records.push(record);
            }
            Msg::Frame(Frame::Fin) => {
                return Err(WorkerError::Wire {
                    worker,
                    error: MpWireError::Truncated { needed: 4, have: 0 },
                })
            }
            Msg::End(end) => return Err(end.into_worker_error(worker)),
            Msg::Handshake(_) => unreachable!("reader sends one handshake"),
        }
    }
    match recv("the fin frame")? {
        Msg::Frame(Frame::Fin) => Ok(records),
        Msg::Frame(Frame::Record { record, .. }) => Err(WorkerError::UnexpectedFeeder {
            worker,
            expected: task.range.end as u32,
            found: record.feeder,
        }),
        Msg::End(end) => Err(end.into_worker_error(worker)),
        Msg::Handshake(_) => unreachable!("reader sends one handshake"),
    }
}

/// Publishes fleet totals into the observability plane. The city round
/// counter matches the in-process path, so the obs coherence battery
/// holds on either runner; the wall-imbalance gauge mirrors the shard
/// imbalance convention (1000 = perfectly balanced, lower = the slowest
/// worker dominates).
fn publish_obs(obs: &Obs, report: &CityReport, stats: &MpStats) {
    if !obs.enabled() {
        return;
    }
    obs.add(Counter::CityRounds, report.rounds);
    obs.add(Counter::CityMpFrames, stats.frames);
    obs.add(Counter::CityMpPayloadBytes, stats.payload_bytes);
    obs.add(Counter::CityMpRestarts, stats.restarts);
    obs.gauge(Gauge::CityMpWorkers, stats.workers as u64);
    let max_us = stats
        .worker_wall
        .iter()
        .map(|w| w.as_micros() as u64)
        .max()
        .unwrap_or(0);
    if max_us > 0 {
        let total_us: u64 = stats.worker_wall.iter().map(|w| w.as_micros() as u64).sum();
        let k = stats.worker_wall.len() as u64;
        obs.gauge(
            Gauge::CityMpWallImbalancePermille,
            (total_us * 1000) / (k * max_us),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::CpModel;
    use han_sim::time::SimDuration;
    use han_workload::scenario::{ArrivalRate, Scenario};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tiny_spec(feeders: usize) -> CitySpec {
        let template = Scenario {
            duration: SimDuration::from_mins(20),
            ..Scenario::paper(ArrivalRate::Low, 0)
        };
        CitySpec::uniform("mp unit", &template, CpModel::Ideal, feeders, 1).with_seed(9)
    }

    /// A launcher running `serve_worker` on an OS pipe in a thread —
    /// the same transport shape as a child process, minus the exec.
    fn pipe_launcher(
        spec: CitySpec,
        shutdowns: Arc<AtomicUsize>,
    ) -> impl FnMut(&WorkerTask) -> Result<WorkerConnection, String> {
        move |task| {
            let (reader, mut writer) = std::io::pipe().map_err(|e| e.to_string())?;
            let spec = spec.clone();
            let (worker, workers) = (task.worker, task.workers);
            std::thread::spawn(move || {
                let _ = serve_worker(&spec, worker, workers, &mut writer);
            });
            let shutdowns = shutdowns.clone();
            Ok(WorkerConnection::new(reader).with_shutdown(move || {
                shutdowns.fetch_add(1, Ordering::SeqCst);
            }))
        }
    }

    #[test]
    fn handshake_round_trips() {
        let h = Handshake {
            version: PROTOCOL_VERSION,
            fingerprint: 0xDEAD_BEEF_0123_4567,
            worker: 2,
            workers: 4,
            first_feeder: 10,
            feeder_count: 5,
        };
        let bytes = h.encode();
        assert_eq!(bytes.len(), HANDSHAKE_LEN);
        let (back, used) = Handshake::decode(&bytes).unwrap();
        assert_eq!(used, HANDSHAKE_LEN);
        assert_eq!(back, h);
    }

    #[test]
    fn mp_report_equals_in_process_and_every_hook_fires() {
        let spec = tiny_spec(3);
        let in_process = City::new(spec.clone()).unwrap().run().unwrap();
        let shutdowns = Arc::new(AtomicUsize::new(0));
        let mut launch = pipe_launcher(spec.clone(), shutdowns.clone());
        let (report, stats) = run_city_mp(
            &spec,
            &MpOptions::new(2).with_deadline(Duration::from_secs(60)),
            &Obs::off(),
            &mut launch,
        )
        .unwrap();
        assert_eq!(report, in_process);
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.worker_wall.len(), 2);
        assert_eq!(shutdowns.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn worker_count_is_validated_like_shards() {
        let spec = tiny_spec(2);
        let shutdowns = Arc::new(AtomicUsize::new(0));
        let mut launch = pipe_launcher(spec.clone(), shutdowns);
        for workers in [0usize, 3] {
            let err =
                run_city_mp(&spec, &MpOptions::new(workers), &Obs::off(), &mut launch).unwrap_err();
            assert_eq!(
                err,
                WorkerError::BadWorkerCount {
                    workers,
                    feeders: 2
                }
            );
        }
    }

    #[test]
    fn fingerprint_mismatch_is_typed_and_tears_down() {
        let spec = tiny_spec(2);
        // The worker derives a *different* spec (other seed).
        let skewed = spec.clone().with_seed(spec.seed + 1);
        let shutdowns = Arc::new(AtomicUsize::new(0));
        let mut launch = pipe_launcher(skewed, shutdowns.clone());
        let err = run_city_mp(&spec, &MpOptions::new(2), &Obs::off(), &mut launch).unwrap_err();
        assert!(
            matches!(err, WorkerError::FingerprintMismatch { worker: 0, .. }),
            "got {err:?}"
        );
        // Both hooks fired: the failed worker and the torn-down peer.
        assert_eq!(shutdowns.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn dead_worker_is_typed_and_restart_recovers_deterministically() {
        let spec = tiny_spec(2);
        let in_process = City::new(spec.clone()).unwrap().run().unwrap();

        // A launcher whose worker 1 dies mid-stream on its first life.
        let spec_for_launch = spec.clone();
        let deaths = Arc::new(AtomicUsize::new(0));
        let deaths_in = deaths.clone();
        let mut launch = move |task: &WorkerTask| -> Result<WorkerConnection, String> {
            let (reader, mut writer) = std::io::pipe().map_err(|e| e.to_string())?;
            let spec = spec_for_launch.clone();
            let (worker, workers) = (task.worker, task.workers);
            let die =
                worker == 1 && deaths_in.fetch_add(usize::from(worker == 1), Ordering::SeqCst) == 0;
            std::thread::spawn(move || {
                if die {
                    let mut stream = Vec::new();
                    let _ = serve_worker(&spec, worker, workers, &mut stream);
                    // Handshake plus half a frame, then hang up: the
                    // parent must see a typed death, never a hang.
                    let _ = writer.write_all(&stream[..HANDSHAKE_LEN + 7]);
                } else {
                    let _ = serve_worker(&spec, worker, workers, &mut writer);
                }
            });
            Ok(WorkerConnection::new(reader))
        };

        // Without restart: typed error, no partial report.
        let err = run_city_mp(&spec, &MpOptions::new(2), &Obs::off(), &mut launch).unwrap_err();
        assert!(
            matches!(
                err,
                WorkerError::Died { worker: 1, .. } | WorkerError::Wire { worker: 1, .. }
            ),
            "got {err:?}"
        );

        // With restart: the relaunched worker re-emits its partition and
        // the report is byte-identical to the in-process run.
        deaths.store(0, Ordering::SeqCst);
        let (report, stats) = run_city_mp(
            &spec,
            &MpOptions::new(2).with_restart(true),
            &Obs::off(),
            &mut launch,
        )
        .unwrap();
        assert_eq!(report, in_process);
        assert_eq!(stats.restarts, 1);
    }

    #[test]
    fn stalled_worker_hits_the_deadline() {
        let spec = tiny_spec(2);
        let mut launch = |task: &WorkerTask| -> Result<WorkerConnection, String> {
            let (reader, mut writer) = std::io::pipe().map_err(|e| e.to_string())?;
            let spec = spec.clone();
            let (worker, workers) = (task.worker, task.workers);
            std::thread::spawn(move || {
                if worker == 0 {
                    // Handshake, then silence with the pipe held open.
                    let handshake = Handshake {
                        version: PROTOCOL_VERSION,
                        fingerprint: spec.fingerprint(),
                        worker: 0,
                        workers: workers as u32,
                        first_feeder: 0,
                        feeder_count: 1,
                    };
                    let _ = writer.write_all(&handshake.encode());
                    std::thread::sleep(Duration::from_secs(5));
                } else {
                    let _ = serve_worker(&spec, worker, workers, &mut writer);
                }
            });
            Ok(WorkerConnection::new(reader))
        };
        let started = Instant::now();
        let err = run_city_mp(
            &spec,
            &MpOptions::new(2).with_deadline(Duration::from_millis(200)),
            &Obs::off(),
            &mut launch,
        )
        .unwrap_err();
        assert!(
            matches!(err, WorkerError::Deadline { worker: 0, .. }),
            "got {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "deadline must fire well before the stall ends"
        );
    }
}
