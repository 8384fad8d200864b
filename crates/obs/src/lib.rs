//! # han-obs — the observability plane
//!
//! Structured, *observationally inert* instrumentation for the HAN
//! simulation: a zero-cost-when-disabled hook API ([`Obs`] / [`Observer`]),
//! an atomic metrics [`registry::Registry`] with Prometheus text-format
//! exposition, a bounded [`flight::FlightRecorder`] ring of recent
//! structured events (dumped as JSONL when a fault fires or on demand),
//! and an opt-in Chrome `trace_event` span log ([`trace::TraceWriter`]).
//!
//! ## The inertness contract
//!
//! Instrumentation must never change what a simulation computes: an
//! instrumented run is digest-, trace- and CP-stats-identical to an
//! uninstrumented one (proptest-pinned in
//! `han-core/tests/prop_obs.rs`). The hooks therefore only *read*
//! simulation state and publish copies of it — no hook result ever flows
//! back into a scheduling or delivery decision, and no wall-clock value
//! enters sim semantics. Wall-clock appears in exactly two places, both
//! outside the deterministic core: the daemon's operational latency
//! histograms ([`Hist::IngestLatencyUs`], [`Hist::ReplanLatencyUs`])
//! and the diagnostic span log.
//!
//! ## Zero cost when disabled
//!
//! The simulation threads an [`Obs`] handle — a cheap-to-clone
//! `Option<Arc<dyn Observer>>` — through its layers. Every hook method
//! is `#[inline]` and early-outs on `None`, so a run without an
//! attached sink pays one predicted branch per *publish boundary*
//! (never per round-loop iteration: subsystems count in plain `u64`
//! fields and the driver publishes at span boundaries). The perf bin's
//! `observability` section gates both directions: disabled overhead
//! within noise, enabled overhead ≤ 5% on the paper-config round loop.
//!
//! # Examples
//!
//! ```
//! use han_obs::{Counter, Obs, ObsConfig, ObsSink};
//! use std::sync::Arc;
//!
//! // Disabled: every hook is a no-op.
//! let off = Obs::off();
//! off.add(Counter::PlannerInvocations, 1); // goes nowhere
//! assert!(!off.enabled());
//!
//! // Enabled: hooks land in the sink's registry.
//! let sink = Arc::new(ObsSink::new(ObsConfig::default()));
//! let obs = Obs::new(sink.clone());
//! obs.add(Counter::PlannerInvocations, 3);
//! assert_eq!(sink.registry().counter(Counter::PlannerInvocations), 3);
//! assert!(sink.exposition().contains("han_planner_invocations_total 3"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod flight;
pub mod registry;
pub mod sink;
pub mod trace;

pub use flight::{FlightEvent, FlightRecorder};
pub use registry::Registry;
pub use sink::{ObsConfig, ObsSink};
pub use trace::TraceWriter;

use std::sync::Arc;
use std::time::Instant;

/// The simulation layer a metric or flight event originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// The coordinated planner (one plan per distinct view and level).
    Planner,
    /// The content-addressed, pooled view store.
    Pool,
    /// The communication plane (ideal / lossy / packet models).
    Cp,
    /// The inter-home feeder coordinator.
    Feeder,
    /// The online service driver (`hansim serve`).
    Online,
    /// The fault plane (node churn, CP outages, signal dropout).
    Fault,
    /// The round driver itself.
    Sim,
}

impl Subsystem {
    /// Stable lower-case label, used in flight-recorder JSONL.
    pub fn as_str(self) -> &'static str {
        match self {
            Subsystem::Planner => "planner",
            Subsystem::Pool => "pool",
            Subsystem::Cp => "cp",
            Subsystem::Feeder => "feeder",
            Subsystem::Online => "online",
            Subsystem::Fault => "fault",
            Subsystem::Sim => "sim",
        }
    }
}

macro_rules! metric_enum {
    (
        $(#[$outer:meta])*
        $name:ident {
            $( $(#[$doc:meta])* $variant:ident => ($metric:literal, $help:literal), )*
        }
    ) => {
        $(#[$outer])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $( $(#[$doc])* $variant, )*
        }

        impl $name {
            /// Every variant, in declaration (and exposition) order.
            pub const ALL: &'static [$name] = &[ $( $name::$variant, )* ];

            /// The Prometheus metric name.
            pub fn metric_name(self) -> &'static str {
                match self { $( $name::$variant => $metric, )* }
            }

            /// The one-line `# HELP` text.
            pub fn help(self) -> &'static str {
                match self { $( $name::$variant => $help, )* }
            }

            /// Dense index into the registry's storage.
            pub(crate) fn index(self) -> usize {
                self as usize
            }
        }
    };
}

metric_enum! {
    /// Monotonic counters. Cumulative subsystem counts (planner, pool,
    /// CP) are *published* — the registry stores the subsystem's own
    /// running total — while incremental sources add deltas; either way
    /// the exposed series is monotonic within a process.
    Counter {
        /// Planner invocations: every `plan_at_level` call.
        PlannerInvocations => ("han_planner_invocations_total", "Planner invocations"),
        /// Retired: the planner keeps no plan memo, so nothing publishes
        /// this and it always reads 0. It stays only while the repo
        /// benchmark still reads it.
        PlannerMemoHits => ("han_planner_memo_hits_total", "Retired: always 0 (the planner keeps no plan memo)"),
        /// View-pool entries created (a view forked off shared content).
        PoolForks => ("han_pool_forks_total", "View-pool entries created (view forks)"),
        /// Sole-owner in-place view edits (the copy-free CoW half).
        PoolInPlaceEdits => ("han_pool_in_place_edits_total", "Sole-owner in-place view edits"),
        /// Record deliveries the CP attempted ((node, origin) refreshes).
        CpAttemptedRecords => ("han_cp_attempted_records_total", "Record refreshes attempted by the communication plane"),
        /// Record deliveries that arrived.
        CpDeliveredRecords => ("han_cp_delivered_records_total", "Record refreshes delivered"),
        /// Record deliveries lost to the CP model.
        CpDroppedRecords => ("han_cp_dropped_records_total", "Record refreshes dropped by the CP model"),
        /// Rounds blacked out by a scripted CP outage.
        CpOutageRounds => ("han_cp_outage_rounds_total", "Rounds under a communication-plane outage"),
        /// Rounds executed so far.
        RoundsExecuted => ("han_sim_rounds_total", "Simulation rounds executed"),
        /// Rounds in which the fleet disagreed on the schedule.
        DivergentRounds => ("han_sim_divergent_rounds_total", "Rounds with disagreeing schedules"),
        /// Feeder coordination iterations executed.
        FeederIterations => ("han_feeder_iterations_total", "Feeder coordination iterations executed"),
        /// Telemetry events absorbed by the round loop's inject phase.
        OnlineEventsAbsorbed => ("han_online_events_absorbed_total", "Injected telemetry events absorbed at round boundaries"),
        /// Auto-checkpoints the daemon failed to write (it keeps running).
        OnlineCheckpointFailures => ("han_online_checkpoint_failures_total", "Auto-checkpoints that failed to write"),
        /// Connections the daemon accepted and served.
        OnlineConnectionsAccepted => ("han_online_connections_accepted_total", "Connections accepted by the daemon"),
        /// Connections the daemon refused because every client slot was taken.
        OnlineConnectionsRefused => ("han_online_connections_refused_total", "Connections refused by the daemon (too many clients)"),
        /// Rounds executed across all homes of a city run (city level).
        CityRounds => ("han_city_rounds_total", "Rounds executed across all homes of a city run"),
        /// Rounds executed per shard, summed (must equal the city total).
        CityShardRounds => ("han_city_shard_rounds_total", "Rounds executed by city shards (sum over shards)"),
        /// `HANFAGG1` record frames received from city worker processes.
        CityMpFrames => ("han_city_mp_frames_total", "Record frames received from city workers"),
        /// Framed payload bytes received from city worker processes.
        CityMpPayloadBytes => ("han_city_mp_payload_bytes_total", "Framed payload bytes received from city workers"),
        /// Dead city workers relaunched by the supervisor.
        CityMpRestarts => ("han_city_mp_restarts_total", "Dead city workers relaunched by the supervisor"),
    }
}

metric_enum! {
    /// Point-in-time gauges (last published value wins; `set_max` keeps
    /// the high-water mark instead).
    Gauge {
        /// Distinct views currently alive in the pool.
        PoolLiveViews => ("han_pool_live_views", "Distinct views currently alive in the view pool"),
        /// High-water mark of concurrently live distinct views.
        PoolPeakViews => ("han_pool_peak_views", "Peak concurrently live distinct views"),
        /// The feeder iterate committed by the coordinator.
        FeederSelectedIteration => ("han_feeder_selected_iteration", "Feeder iterate committed (0 = signal-free baseline)"),
        /// Why feeder coordination stopped (0 converged, 1 max iterations, 2 oscillating).
        FeederStopReason => ("han_feeder_stop_reason", "Feeder stop reason (0 converged, 1 max iterations, 2 oscillating)"),
        /// Injected actions still waiting for their absorbing round.
        OnlinePendingInjections => ("han_online_pending_injections", "Injected actions awaiting their round"),
        /// Homes on the most-loaded shard of the last city run.
        CityShardHomes => ("han_city_shard_homes", "Homes on the most-loaded shard of a city run"),
        /// Shard load imbalance, permille (1000 = perfectly balanced;
        /// max shard devices x shards x 1000 / total devices).
        CityShardImbalancePermille => ("han_city_shard_imbalance_permille", "City shard imbalance, permille (1000 = balanced)"),
        /// Worker processes in the last multi-process city fleet.
        CityMpWorkers => ("han_city_mp_workers", "Worker processes in the last city fleet"),
        /// Per-worker wall-clock imbalance, permille (1000 = balanced;
        /// total wall x 1000 / (workers x slowest worker)).
        CityMpWallImbalancePermille => ("han_city_mp_wall_imbalance_permille", "City worker wall imbalance, permille (1000 = balanced)"),
    }
}

metric_enum! {
    /// Fixed-bucket histograms (powers of two; deterministic layout).
    /// The two latency histograms are the daemon's *operational* wall
    /// clock — by design outside sim semantics (see the crate docs).
    Hist {
        /// Wall-clock latency of one telemetry ingest, µs.
        IngestLatencyUs => ("han_online_ingest_latency_us", "Wall-clock latency of one telemetry ingest (us)"),
        /// Wall-clock latency of one ADVANCE replan span, µs.
        ReplanLatencyUs => ("han_online_replan_latency_us", "Wall-clock latency of one advance/replan span (us)"),
        /// Telemetry events absorbed at one round boundary.
        AbsorbedPerBoundary => ("han_online_absorbed_per_boundary", "Telemetry events absorbed at one round boundary"),
        /// Feeder peak per coordination iterate, watts.
        FeederIteratePeakW => ("han_feeder_iterate_peak_watts", "Feeder peak per coordination iterate (W)"),
    }
}

/// The hook surface the simulation calls into. Every method has a no-op
/// default, so a sink implements only what it stores; the production
/// sink is [`ObsSink`] (registry + flight recorder + optional spans).
pub trait Observer: Send + Sync {
    /// Adds `delta` to a monotonic counter.
    fn counter_add(&self, _counter: Counter, _delta: u64) {}
    /// Publishes a subsystem's own running total for a counter.
    fn counter_publish(&self, _counter: Counter, _total: u64) {}
    /// Sets a gauge to `value`.
    fn gauge_set(&self, _gauge: Gauge, _value: u64) {}
    /// Raises a gauge to `value` if it exceeds the stored one.
    fn gauge_max(&self, _gauge: Gauge, _value: u64) {}
    /// Records `value` into a fixed-bucket histogram.
    fn observe(&self, _hist: Hist, _value: u64) {}
    /// Records a structured flight event.
    fn event(&self, _round: u64, _subsystem: Subsystem, _kind: &'static str, _payload: String) {}
    /// Whether [`Observer::span`] wants to be fed (span timing costs a
    /// wall-clock read per phase, so callers gate on this).
    fn wants_spans(&self) -> bool {
        false
    }
    /// Records one timed span (diagnostic wall clock, never sim time).
    fn span(&self, _name: &'static str, _round: u64, _start: Instant, _end: Instant) {}
}

/// The cheap handle the simulation threads through its layers: `None` means
/// observability is off and every hook is an inlined early-out.
#[derive(Clone, Default)]
pub struct Obs {
    sink: Option<Arc<dyn Observer>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Obs {
    /// The disabled handle (the default everywhere).
    pub const fn off() -> Obs {
        Obs { sink: None }
    }

    /// Attaches a sink; all hooks flow into it from here on.
    pub fn new(sink: Arc<dyn Observer>) -> Obs {
        Obs { sink: Some(sink) }
    }

    /// Whether a sink is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Adds `delta` to a monotonic counter.
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.counter_add(counter, delta);
        }
    }

    /// Publishes a subsystem's running total for a counter.
    #[inline]
    pub fn publish(&self, counter: Counter, total: u64) {
        if let Some(sink) = &self.sink {
            sink.counter_publish(counter, total);
        }
    }

    /// Sets a gauge.
    #[inline]
    pub fn gauge(&self, gauge: Gauge, value: u64) {
        if let Some(sink) = &self.sink {
            sink.gauge_set(gauge, value);
        }
    }

    /// Raises a gauge to a new high-water mark.
    #[inline]
    pub fn gauge_max(&self, gauge: Gauge, value: u64) {
        if let Some(sink) = &self.sink {
            sink.gauge_max(gauge, value);
        }
    }

    /// Records a histogram sample.
    #[inline]
    pub fn observe(&self, hist: Hist, value: u64) {
        if let Some(sink) = &self.sink {
            sink.observe(hist, value);
        }
    }

    /// Records a flight event. The payload closure runs only when a sink
    /// is attached, so disabled runs never build the string.
    #[inline]
    pub fn event(
        &self,
        round: u64,
        subsystem: Subsystem,
        kind: &'static str,
        payload: impl FnOnce() -> String,
    ) {
        if let Some(sink) = &self.sink {
            sink.event(round, subsystem, kind, payload());
        }
    }

    /// Whether span timing is wanted (see [`Observer::wants_spans`]).
    #[inline]
    pub fn wants_spans(&self) -> bool {
        self.sink.as_ref().is_some_and(|s| s.wants_spans())
    }

    /// Starts a span clock — `None` unless a sink wants spans, so the
    /// disabled cost is one branch.
    #[inline]
    pub fn span_begin(&self) -> Option<Instant> {
        if self.wants_spans() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a span started by [`Obs::span_begin`]. A `None` start (the
    /// disabled case) is a no-op.
    #[inline]
    pub fn span_end(&self, name: &'static str, round: u64, start: Option<Instant>) {
        if let (Some(sink), Some(start)) = (&self.sink, start) {
            sink.span(name, round, start, Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_and_cheap() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        assert!(!obs.wants_spans());
        assert!(obs.span_begin().is_none());
        // The payload closure must not run when disabled.
        obs.event(0, Subsystem::Sim, "never", || {
            panic!("payload built while disabled")
        });
        obs.add(Counter::RoundsExecuted, 1);
        obs.gauge(Gauge::PoolLiveViews, 1);
        obs.observe(Hist::AbsorbedPerBoundary, 1);
    }

    #[test]
    fn enabled_handle_routes_to_the_sink() {
        let sink = Arc::new(ObsSink::new(ObsConfig::default()));
        let obs = Obs::new(sink.clone());
        assert!(obs.enabled());
        obs.add(Counter::OnlineEventsAbsorbed, 2);
        obs.add(Counter::OnlineEventsAbsorbed, 3);
        obs.publish(Counter::PlannerInvocations, 7);
        obs.gauge(Gauge::PoolLiveViews, 4);
        obs.gauge_max(Gauge::PoolPeakViews, 9);
        obs.gauge_max(Gauge::PoolPeakViews, 5);
        obs.observe(Hist::AbsorbedPerBoundary, 3);
        let r = sink.registry();
        assert_eq!(r.counter(Counter::OnlineEventsAbsorbed), 5);
        assert_eq!(r.counter(Counter::PlannerInvocations), 7);
        assert_eq!(r.gauge(Gauge::PoolLiveViews), 4);
        assert_eq!(r.gauge(Gauge::PoolPeakViews), 9);
        assert_eq!(r.hist_count(Hist::AbsorbedPerBoundary), 1);
        assert_eq!(r.hist_sum(Hist::AbsorbedPerBoundary), 3);
    }

    #[test]
    fn subsystem_labels_are_stable() {
        assert_eq!(Subsystem::Planner.as_str(), "planner");
        assert_eq!(Subsystem::Fault.as_str(), "fault");
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL
            .iter()
            .map(|c| c.metric_name())
            .chain(Gauge::ALL.iter().map(|g| g.metric_name()))
            .chain(Hist::ALL.iter().map(|h| h.metric_name()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }
}
