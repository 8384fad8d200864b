//! The collaborative duty-cycle coordination algorithm.
//!
//! This is the paper's core contribution, formalized. Every Device
//! Interface runs the *same pure function* over the *same shared view*
//! after each communication round, so all nodes derive the same schedule
//! with no central controller.
//!
//! The paper's sketch: *"coordinate the ON periods of the duty-cycles of
//! the active devices with each other in a way that multiple requests,
//! instead of getting stacked on each other, get scheduled one by one …
//! execution of at least one instance (minDCD) of each active and newly
//! requested device should take place within a single period of maxDCP in
//! an organized way … the total load thus increases in small steps."*
//!
//! We formalize that as a **level-capped EDF queue**
//! ([`SchedulingRule::LevelCappedQueue`], the default), served at a level
//! that tracks *demand*, not backlog:
//!
//! 1. Every active device owes one contiguous minDCD instance inside its
//!    current maxDCP window; the outstanding work is
//!    `W = Σ owed_d · power_d`.
//! 2. The admission **level** is `L = ⌈max(W / maxDCP, R̂)⌉` where
//!    * `W / maxDCP` is the *water level* — the average power the current
//!      obligations need over the coordination horizon no matter how they
//!      are arranged (this is what splits a synchronized burst of
//!      8 × 15-of-30 min into 4 + 4: the load halves); and
//!    * `R̂ = Σ_{open windows} power_d · minDCD_d / maxDCP_d` is the
//!      **demand rate** visible in the shared view: every window opened in
//!      the trailing maxDCP contributes its duty fraction, so `R̂` is a
//!      trailing-window average of the work-arrival rate. Serving at the
//!      demand rate keeps queues short at sustained high rates; a pure
//!      backlog-based level converges to just-in-time service, which
//!      re-synchronizes Poisson clumps at their deadlines and *raises*
//!      the peak.
//! 3. Requests are admitted **one by one** in deadline order until the
//!    admitted power reaches `L`; the rest queue.
//! 4. **Forcing** (safety net): a device whose laxity
//!    `(deadline − now) − owed` drops strictly below one planning round is
//!    switched ON regardless of the cap, so the minDCD-per-maxDCP
//!    guarantee survives queueing, lost rounds and stale views.
//! 5. Devices that met their window obligation (owed = 0) are released;
//!    running devices mid-instance are never interrupted.
//!
//! Three ablation rules quantify the design choices: two-choice
//! [`SchedulingRule::BalancedPlacement`] on the instance grid,
//! [`SchedulingRule::Earliest`] (≈ greedy baseline) and
//! [`SchedulingRule::Latest`] (pure procrastination — re-clusters load at
//! deadlines). Every rule is a pure function of the shared view, so DIs
//! with the same view compute the same plan with no central controller.

use crate::schedule::Schedule;
use crate::state::SystemView;
use han_device::appliance::DeviceId;
use han_device::status::StatusRecord;
use han_sim::time::{SimDuration, SimTime};
use han_workload::signal::PowerCapProfile;

/// How outstanding instances are scheduled inside their windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulingRule {
    /// The paper's scheme: requests admitted one by one in deadline order
    /// up to `⌈max(water level, demand-rate estimate)⌉` (default).
    LevelCappedQueue {
        /// Extra admission headroom above the level, in kW (default 0).
        headroom_kw: f64,
    },
    /// Two-choice balanced placement on the instance grid (ablation).
    BalancedPlacement,
    /// Always the earliest feasible start — degenerates to the
    /// uncoordinated greedy baseline (ablation).
    Earliest,
    /// Always the latest feasible start — a pure procrastinator that
    /// re-clusters load at deadlines (ablation).
    Latest,
}

/// Tuning knobs of the planner.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanConfig {
    /// Scheduling rule (default: level-capped queue, the paper's scheme).
    pub rule: SchedulingRule,
    /// Forcing threshold: a device is forced ON when its laxity drops
    /// *strictly below* this value. One round period is exactly enough —
    /// forcing earlier overlaps the outgoing instances and spikes the load.
    pub laxity_guard: SimDuration,
    /// The smoothing horizon used for the water level; the paper's uniform
    /// maxDCP (30 min) by default.
    pub smoothing_horizon: SimDuration,
    /// Slew-rate limit of the served level, in kW per hour (default 15).
    /// The level follows sustained demand ramps at this rate but refuses to
    /// chase Poisson clumps on the maxDCP timescale — that refusal is the
    /// smoothing. The water level floor keeps bursts feasible regardless.
    pub level_slew_kw_per_hour: f64,
    /// Optional grid-side admission cap (the per-home face of a
    /// feeder-level signal). When set, the served level of the
    /// [`SchedulingRule::LevelCappedQueue`] rule is clipped to the cap in
    /// force at planning time. `None` (the default) and an
    /// [unlimited](PowerCapProfile::unlimited) profile are bit-identical:
    /// the level is untouched. Forcing is cap-oblivious, so obligations
    /// are met under any signal.
    pub admission_cap: Option<PowerCapProfile>,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            rule: SchedulingRule::LevelCappedQueue { headroom_kw: 0.0 },
            // One 2-second round.
            laxity_guard: SimDuration::from_secs(2),
            smoothing_horizon: SimDuration::from_mins(30),
            level_slew_kw_per_hour: 12.0,
            admission_cap: None,
        }
    }
}

/// The planner's full output: the ON-set for this round plus the start
/// assignment of every outstanding instance (committed and newly placed).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Plan {
    /// Devices whose element should be ON this round.
    pub schedule: Schedule,
    /// `(device, start)` for every active device with outstanding work,
    /// sorted by device id. A DI adopts its own entry as its committed
    /// placement.
    pub starts: Vec<(DeviceId, SimTime)>,
}

impl Plan {
    /// The assigned start for a device, if it has outstanding work.
    pub(crate) fn start_of(&self, device: DeviceId) -> Option<SimTime> {
        self.starts
            .binary_search_by_key(&device, |&(d, _)| d)
            .ok()
            .map(|i| self.starts[i].1)
    }
}

/// Reusable working memory of the planning kernel ([`plan_into`]). A
/// caller that keeps one across rounds, together with the [`Plan`]s it
/// plans into, plans without allocating once the buffers have grown to
/// the fleet's size.
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// Outstanding instances, in device order.
    pending: Vec<Pending>,
    /// Level-capped queue: instances waiting for admission.
    queue: Vec<Pending>,
    /// Placement: committed and newly placed spans.
    spans: Vec<(u64, u64, f64)>,
    /// Placement: instances still to place.
    unplaced: Vec<Pending>,
    /// Placement: one instance's candidate starts.
    candidates: Vec<SimTime>,
    /// The ON set under construction.
    on_set: Vec<DeviceId>,
}

/// One outstanding instance extracted from the view.
#[derive(Debug, Clone, Copy)]
struct Pending {
    device: DeviceId,
    owed: SimDuration,
    deadline: SimTime,
    arrival: SimTime,
    on: bool,
    planned: Option<SimTime>,
    power_kw: f64,
}

impl Pending {
    fn from_record(rec: &StatusRecord, now: SimTime) -> Option<Self> {
        if !rec.active || rec.owed.is_zero() {
            return None;
        }
        Some(Pending {
            device: rec.device,
            owed: rec.owed,
            // A missing deadline in an active record is a publisher bug;
            // treating it as already due forces the device (fail-safe).
            deadline: rec.deadline.unwrap_or(now),
            arrival: rec.arrival.unwrap_or(SimTime::ZERO),
            on: rec.on,
            planned: rec.planned_start,
            power_kw: f64::from(rec.power_w) / 1000.0,
        })
    }

    fn laxity_micros(&self, now: SimTime) -> i64 {
        let slack = self.deadline.as_micros() as i64 - now.as_micros() as i64;
        slack - self.owed.as_micros() as i64
    }

    /// The latest feasible start for the remaining obligation.
    fn latest_start(&self, now: SimTime) -> SimTime {
        let latest = self
            .deadline
            .as_micros()
            .saturating_sub(self.owed.as_micros());
        SimTime::from_micros(latest).max(now)
    }

    /// The span `[start, start + owed)` this instance will occupy given an
    /// assigned start (running devices occupy `[now, now + owed)`).
    fn span(&self, assigned: SimTime, now: SimTime) -> (u64, u64, f64) {
        let start = if self.on { now } else { assigned.max(now) };
        (
            start.as_micros(),
            (start + self.owed).as_micros(),
            self.power_kw,
        )
    }
}

/// Predicted concurrency (kW) at instant `c` given the spans already
/// assigned.
///
/// Placement scores candidates by the load they would *join*, not by the
/// integral overlap of the whole span: integral scoring systematically
/// underestimates later slots (future arrivals are invisible) and makes
/// every request defer — the whole population then herds into the same
/// late slot. Instant scoring is the classic two-choice balancing signal
/// and is symmetric between "now" and "later" in equilibrium.
fn concurrency_at(c: u64, spans: &[(u64, u64, f64)]) -> f64 {
    spans
        .iter()
        .filter(|&&(bs, be, _)| bs <= c && c < be)
        .map(|&(_, _, kw)| kw)
        .sum()
}

/// Writes the candidate starts for a new instance into `out`: the grid
/// `now + k·owed` clipped to the feasible range, plus the latest feasible
/// start.
fn candidate_starts(p: &Pending, now: SimTime, out: &mut Vec<SimTime>) {
    let latest = p.latest_start(now);
    out.clear();
    let step = p.owed.as_micros().max(1);
    let mut t = now.as_micros();
    while t < latest.as_micros() {
        out.push(SimTime::from_micros(t));
        t = t.saturating_add(step);
    }
    out.push(latest);
    out.dedup();
}

/// The planning kernel: writes the plan of `view` at `now` under `config`,
/// served at `level_kw`, into `out`, reusing the buffers of `out` and
/// `scratch`. Whatever `out` held before is replaced.
///
/// Pure and deterministic: identical `(view, now, config, level_kw)`
/// always yields an identical [`Plan`], regardless of record insertion
/// order — the foundation of decentralized agreement. The level only
/// affects the [`SchedulingRule::LevelCappedQueue`] rule; placement rules
/// ignore it. [`CoordinatedPlanner`] supplies its slew-limited level, so
/// the grouped execution plane and its naive reference path share this
/// one definition of the algorithm.
pub(crate) fn plan_into(
    view: &SystemView,
    now: SimTime,
    config: &PlanConfig,
    level_kw: f64,
    scratch: &mut PlanScratch,
    out: &mut Plan,
) {
    collect_pending(view, now, &mut scratch.pending);
    match config.rule {
        SchedulingRule::LevelCappedQueue { headroom_kw } => {
            plan_level_capped(now, config, headroom_kw, level_kw, scratch, out)
        }
        SchedulingRule::BalancedPlacement | SchedulingRule::Earliest | SchedulingRule::Latest => {
            plan_by_placement(now, config, scratch, out)
        }
    }
}

/// The demand rate visible in a view, in kW: every open activity window
/// contributes its duty fraction × power, whether or not its obligation is
/// already served. Because each window stays open for one maxDCP, this is a
/// trailing-window moving average of the work-arrival rate — the level the
/// system will need in the near future regardless of how instances are
/// arranged.
pub(crate) fn demand_rate_kw(view: &SystemView) -> f64 {
    view.iter()
        .filter(|rec| rec.active && !rec.max_dcp.is_zero())
        .map(|rec| {
            f64::from(rec.power_w) / 1000.0 * rec.min_dcd.as_secs_f64() / rec.max_dcp.as_secs_f64()
        })
        .sum()
}

/// Writes the view's outstanding instances into `out`, in device order.
fn collect_pending(view: &SystemView, now: SimTime, out: &mut Vec<Pending>) {
    out.clear();
    out.extend(view.iter().filter_map(|rec| Pending::from_record(rec, now)));
    // Device ids are unique, so the unstable sort has one result.
    out.sort_unstable_by_key(|p| p.device);
}

/// The per-node planner: the scheduling rule plus the slew-limited level
/// tracker.
///
/// The raw demand rate [`demand_rate_kw`] is a trailing-maxDCP moving
/// average and still carries Poisson noise on the 30-minute timescale. The
/// planner's served level follows it with a bounded slew rate
/// ([`PlanConfig::level_slew_kw_per_hour`]): sustained ramps are tracked,
/// clumps are flattened — queued requests wait a few minutes and the
/// laxity net guarantees their window obligation regardless. The tracker
/// is a deterministic function of the observed view history, so nodes that
/// saw the same rounds hold identical levels; nodes that missed rounds
/// re-converge as their views do.
#[derive(Debug, Clone)]
pub(crate) struct CoordinatedPlanner {
    config: PlanConfig,
    level_kw: f64,
    last_update: Option<SimTime>,
    /// Every [`plan_at_level`](CoordinatedPlanner::plan_at_level) call.
    /// Observability-only: published to the metrics registry at span
    /// boundaries, never read by planning itself, and deliberately
    /// absent from checkpoints.
    invocations: u64,
}

impl CoordinatedPlanner {
    /// Creates a planner.
    pub(crate) fn new(config: PlanConfig) -> Self {
        CoordinatedPlanner {
            config,
            level_kw: 0.0,
            last_update: None,
            invocations: 0,
        }
    }

    /// Plans computed so far: every call of the planning kernel, through
    /// [`plan`](CoordinatedPlanner::plan) or the grouped execution plane.
    pub(crate) fn invocations(&self) -> u64 {
        self.invocations
    }

    /// The level tracker's persistent state `(level_kw, last_update)`, for
    /// checkpointing. Together with the configuration it is the whole
    /// planning state: no plan is kept from one round to the next.
    pub(crate) fn persisted_level(&self) -> (f64, Option<SimTime>) {
        (self.level_kw, self.last_update)
    }

    /// Restores the level tracker captured by
    /// [`persisted_level`](CoordinatedPlanner::persisted_level).
    pub(crate) fn restore_level(&mut self, level_kw: f64, last_update: Option<SimTime>) {
        self.level_kw = level_kw;
        self.last_update = last_update;
    }

    /// Advances the slew-limited level tracker to `now` given the demand
    /// rate observed in this round's view, returning the updated level.
    ///
    /// Split out of [`plan`](CoordinatedPlanner::plan) so the grouped
    /// execution plane can keep every node's level tracker live while
    /// running the expensive planning kernel only once per distinct view.
    pub(crate) fn advance_level(&mut self, demand_kw: f64, now: SimTime) -> f64 {
        let dt = match self.last_update {
            Some(last) => now.saturating_since(last),
            None => SimDuration::ZERO,
        };
        self.last_update = Some(now);
        let max_step = self.config.level_slew_kw_per_hour.max(0.0) * dt.as_hours_f64();
        let gap = demand_kw - self.level_kw;
        self.level_kw += gap.clamp(-max_step, max_step);
        self.level_kw
    }

    /// Replaces the admission cap in force — the online ingest path's
    /// cap-change hook. The next plan reads the new cap.
    pub(crate) fn set_admission_cap(&mut self, cap: Option<PowerCapProfile>) {
        self.config.admission_cap = cap;
    }

    /// Computes this round's plan and updates the level tracker.
    pub(crate) fn plan(&mut self, view: &SystemView, now: SimTime) -> Plan {
        self.advance_level(demand_rate_kw(view), now);
        let mut plan = Plan::default();
        self.plan_at_level(view, now, &mut PlanScratch::default(), &mut plan);
        plan
    }

    /// Writes this round's plan into `out`, reusing its buffers and
    /// `scratch`'s (see [`plan_into`]), assuming
    /// [`advance_level`](CoordinatedPlanner::advance_level) already ran.
    pub(crate) fn plan_at_level(
        &mut self,
        view: &SystemView,
        now: SimTime,
        scratch: &mut PlanScratch,
        out: &mut Plan,
    ) {
        self.invocations += 1;
        plan_into(view, now, &self.config, self.level_kw, scratch, out);
    }
}

/// The paper's scheme: EDF admission capped at
/// `⌈max(water level, demand rate)⌉ + headroom`.
fn plan_level_capped(
    now: SimTime,
    config: &PlanConfig,
    headroom_kw: f64,
    rate_kw: f64,
    scratch: &mut PlanScratch,
    out: &mut Plan,
) {
    let PlanScratch {
        pending,
        queue,
        on_set,
        ..
    } = scratch;
    let guard = config.laxity_guard.as_micros() as i64;
    // Outstanding work (kW·µs) and the level it needs on average.
    let work_kw_us: f64 = pending
        .iter()
        .map(|p| p.owed.as_micros() as f64 * p.power_kw)
        .sum();
    let horizon_us = config.smoothing_horizon.as_micros().max(1) as f64;
    let mut level_kw = (work_kw_us / horizon_us).max(rate_kw).ceil() + headroom_kw;
    // Grid-side signal: the admission level never exceeds the cap in force.
    // An unlimited profile clips nothing, keeping the uncapped behavior
    // bit-identical.
    if let Some(cap) = &config.admission_cap {
        level_kw = level_kw.min(cap.cap_at(now));
    }

    // Safety sets first: running instances continue; endangered
    // obligations are forced regardless of the cap. Everything else
    // queues.
    on_set.clear();
    queue.clear();
    let mut admitted_kw = 0.0;
    for p in pending.iter() {
        if p.on || p.laxity_micros(now) < guard {
            on_set.push(p.device);
            admitted_kw += p.power_kw;
        } else {
            queue.push(*p);
        }
    }

    // Admission one by one, earliest deadline first, up to the level.
    // Device ids break every tie, so the unstable sorts have one result.
    queue.sort_unstable_by_key(|p| (p.deadline, p.arrival, p.device));
    let starts = &mut out.starts;
    starts.clear();
    starts.extend(on_set.iter().map(|&d| (d, now)));
    for p in queue.iter() {
        if admitted_kw + p.power_kw <= level_kw + 1e-9 {
            admitted_kw += p.power_kw;
            on_set.push(p.device);
            starts.push((p.device, now));
        } else {
            // Queued: it will run no later than its forced start.
            starts.push((p.device, p.latest_start(now)));
        }
    }
    starts.sort_unstable_by_key(|&(d, _)| d);
    out.schedule.refill(on_set.iter().copied());
}

/// Placement-based variants (ablations): assign each instance an explicit
/// start on its feasibility grid.
fn plan_by_placement(now: SimTime, config: &PlanConfig, scratch: &mut PlanScratch, out: &mut Plan) {
    let PlanScratch {
        pending,
        spans,
        unplaced,
        candidates,
        on_set,
        ..
    } = scratch;
    // Committed spans: running devices and devices with a published
    // placement.
    spans.clear();
    unplaced.clear();
    let starts = &mut out.starts;
    starts.clear();
    for p in pending.iter() {
        if p.on {
            let span = p.span(now, now);
            spans.push(span);
            starts.push((p.device, now));
        } else if let Some(planned) = p.planned {
            let start = planned.max(now).min(p.latest_start(now));
            spans.push(p.span(start, now));
            starts.push((p.device, start));
        } else {
            unplaced.push(*p);
        }
    }

    // Place new instances one by one, in arrival order, each seeing the
    // placements made before it.
    unplaced.sort_unstable_by_key(|p| (p.arrival, p.device));
    for p in unplaced.iter() {
        candidate_starts(p, now, candidates);
        let chosen = match config.rule {
            SchedulingRule::Earliest => candidates[0],
            SchedulingRule::Latest => *candidates.last().expect("at least one candidate"),
            SchedulingRule::BalancedPlacement => {
                let mut best = candidates[0];
                let mut best_cost = f64::INFINITY;
                for &c in candidates.iter() {
                    let (s, _, _) = p.span(c, now);
                    let cost = concurrency_at(s, spans);
                    if cost + 1e-9 < best_cost {
                        best_cost = cost;
                        best = c;
                    }
                }
                best
            }
            SchedulingRule::LevelCappedQueue { .. } => unreachable!("dispatched earlier"),
        };
        spans.push(p.span(chosen, now));
        starts.push((p.device, chosen));
    }
    starts.sort_unstable_by_key(|&(d, _)| d);

    // ON-set: running or due instances, plus the forced safety net.
    let guard = config.laxity_guard.as_micros() as i64;
    on_set.clear();
    for p in pending.iter() {
        let start = starts
            .binary_search_by_key(&p.device, |&(d, _)| d)
            .map(|i| starts[i].1)
            .expect("every pending device was assigned a start");
        if p.on || start <= now || p.laxity_micros(now) < guard {
            on_set.push(p.device);
        }
    }
    out.schedule.refill(on_set.iter().copied());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(mins: u64) -> SimTime {
        SimTime::from_mins(mins)
    }

    fn mins(m: u64) -> SimDuration {
        SimDuration::from_mins(m)
    }

    /// An active, unplaced device owing `owed` minutes.
    fn rec(
        id: u32,
        on: bool,
        owed_mins: u64,
        deadline_mins: u64,
        arrival_mins: u64,
    ) -> StatusRecord {
        StatusRecord {
            device: DeviceId(id),
            active: true,
            on,
            owed: mins(owed_mins),
            deadline: Some(t(deadline_mins)),
            windows_remaining: 1,
            arrival: Some(t(arrival_mins)),
            planned_start: None,
            power_w: 1000,
            min_dcd: mins(15),
            max_dcp: mins(30),
        }
    }

    fn placed(mut r: StatusRecord, start_mins: u64) -> StatusRecord {
        r.planned_start = Some(t(start_mins));
        r
    }

    fn view_of(records: impl IntoIterator<Item = StatusRecord>, n: usize) -> SystemView {
        let mut v = SystemView::new(n);
        for r in records {
            v.refresh(r);
        }
        v
    }

    /// The kernel's plan with fresh buffers, served at `level_kw`.
    fn fresh_plan(view: &SystemView, now: SimTime, config: &PlanConfig, level_kw: f64) -> Plan {
        let mut plan = Plan::default();
        plan_into(
            view,
            now,
            config,
            level_kw,
            &mut PlanScratch::default(),
            &mut plan,
        );
        plan
    }

    /// The default configuration's plan at the view's raw demand rate.
    fn plan(records: impl IntoIterator<Item = StatusRecord>, n: usize, now: SimTime) -> Plan {
        let view = view_of(records, n);
        fresh_plan(&view, now, &PlanConfig::default(), demand_rate_kw(&view))
    }

    #[test]
    fn empty_view_empty_plan() {
        let p = plan([], 5, t(0));
        assert_eq!(p.schedule, Schedule::empty());
        assert!(p.starts.is_empty());
        assert_eq!(p.start_of(DeviceId(0)), None);
    }

    #[test]
    fn single_request_starts_immediately() {
        // Empty system: both half-slots cost zero; the tie goes to the
        // earliest so the user is served at once.
        let p = plan([rec(3, false, 15, 30, 0)], 5, t(0));
        assert_eq!(p.start_of(DeviceId(3)), Some(t(0)));
        assert!(p.schedule.is_on(DeviceId(3)));
    }

    #[test]
    fn burst_splits_into_halves() {
        // Eight simultaneous requests, each 15-of-30: balanced placement
        // alternates between the two feasible slots — 4 now, 4 at +15.
        let p = plan((0..8).map(|i| rec(i, false, 15, 30, 0)), 8, t(0));
        let now_count = (0..8u32)
            .filter(|&i| p.start_of(DeviceId(i)) == Some(t(0)))
            .count();
        let later_count = (0..8u32)
            .filter(|&i| p.start_of(DeviceId(i)) == Some(t(15)))
            .count();
        assert_eq!(now_count, 4);
        assert_eq!(later_count, 4);
        assert_eq!(p.schedule.on_count(), 4, "only the first half runs now");
    }

    #[test]
    fn placement_prefers_the_valley() {
        // Two devices already running until +15; a newcomer with window
        // [0, 30) should take the empty second half.
        let p = plan(
            [
                rec(0, true, 15, 30, 0),
                rec(1, true, 15, 30, 0),
                rec(2, false, 15, 30, 0),
            ],
            3,
            t(0),
        );
        assert_eq!(p.start_of(DeviceId(2)), Some(t(15)));
        assert_eq!(p.schedule.on_count(), 2);
    }

    #[test]
    fn committed_placements_are_respected() {
        // Placement ablation: device 1 published start=20; the planner must
        // keep it and place the newcomer around it.
        let cfg = PlanConfig {
            rule: SchedulingRule::BalancedPlacement,
            ..PlanConfig::default()
        };
        let v = view_of(
            [
                placed(rec(1, false, 10, 30, 0), 20),
                rec(2, false, 10, 30, 1),
            ],
            3,
        );
        let p = fresh_plan(&v, t(5), &cfg, demand_rate_kw(&v));
        assert_eq!(p.start_of(DeviceId(1)), Some(t(20)));
        // Newcomer's candidates {5, 15, 20}: 5 and 15 are free until 20;
        // earliest free slot wins.
        assert_eq!(p.start_of(DeviceId(2)), Some(t(5)));
        assert!(p.schedule.is_on(DeviceId(2)));
        assert!(!p.schedule.is_on(DeviceId(1)));
    }

    #[test]
    fn due_placements_switch_on() {
        let p = plan([placed(rec(1, false, 10, 30, 0), 4)], 3, t(5));
        assert!(p.schedule.is_on(DeviceId(1)), "start has passed: run");
    }

    #[test]
    fn forced_when_laxity_below_guard() {
        // Unplaced device at its last feasible instant: forced regardless
        // of placement preferences.
        let p = plan((0..10).map(|i| rec(i, false, 15, 15, 0)), 10, t(0));
        assert_eq!(p.schedule.on_count(), 10);
    }

    #[test]
    fn guard_threshold_is_strict() {
        // Use the Latest ablation so nothing but the forcing rule can turn
        // the device ON before its (deferred) start.
        let cfg = PlanConfig {
            rule: SchedulingRule::Latest,
            ..PlanConfig::default() // guard = 2 s
        };
        let r = placed(rec(0, false, 15, 30, 0), 15);
        let v = view_of([r], 1);
        // At 14 min 59 s laxity is 1 s < 2 s: forced.
        let almost = SimTime::from_secs(14 * 60 + 59);
        let p = fresh_plan(&v, almost, &cfg, demand_rate_kw(&v));
        assert!(p.schedule.is_on(DeviceId(0)), "forced inside the guard");
        // At t=14:00 laxity is 60 s ≥ guard and start not reached: off.
        let p = fresh_plan(&v, t(14), &cfg, demand_rate_kw(&v));
        assert!(!p.schedule.is_on(DeviceId(0)));
    }

    #[test]
    fn running_devices_stay_on() {
        let p = plan([rec(0, true, 7, 30, 0), rec(1, false, 15, 60, 5)], 2, t(10));
        assert!(p.schedule.is_on(DeviceId(0)), "mid-instance device stays");
    }

    #[test]
    fn finished_devices_are_released() {
        let done_on = StatusRecord {
            owed: SimDuration::ZERO,
            ..rec(0, true, 0, 30, 0)
        };
        let done_off = StatusRecord {
            owed: SimDuration::ZERO,
            ..rec(1, false, 0, 30, 0)
        };
        let p = plan([done_on, done_off], 2, t(20));
        assert_eq!(p.schedule, Schedule::empty());
        assert!(p.starts.is_empty());
    }

    #[test]
    fn fifo_admission_in_arrival_order() {
        // Water level 1: the earlier arrival is admitted now, the later is
        // queued until capacity frees (no later than its forced start).
        let p = plan(
            [rec(5, false, 15, 40, 9), rec(2, false, 15, 41, 12)],
            6,
            t(10),
        );
        assert_eq!(p.start_of(DeviceId(5)), Some(t(10)));
        assert_eq!(p.start_of(DeviceId(2)), Some(t(26)));
        assert_eq!(p.schedule.on_count(), 1);
        assert!(p.schedule.is_on(DeviceId(5)));
    }

    #[test]
    fn deterministic_under_permutation() {
        let records = [
            rec(4, false, 15, 50, 3),
            rec(1, true, 8, 35, 1),
            placed(rec(7, false, 15, 35, 2), 20),
            rec(2, false, 10, 45, 0),
        ];
        let mut reversed = records.to_vec();
        reversed.reverse();
        assert_eq!(plan(records, 8, t(12)), plan(reversed, 8, t(12)));
    }

    #[test]
    fn earliest_rule_degenerates_to_greedy() {
        let cfg = PlanConfig {
            rule: SchedulingRule::Earliest,
            ..PlanConfig::default()
        };
        let v = view_of((0..6).map(|i| rec(i, false, 15, 30, 0)), 6);
        let p = fresh_plan(&v, t(0), &cfg, demand_rate_kw(&v));
        assert_eq!(p.schedule.on_count(), 6, "earliest-fit stacks like greedy");
    }

    #[test]
    fn latest_rule_procrastinates() {
        let cfg = PlanConfig {
            rule: SchedulingRule::Latest,
            ..PlanConfig::default()
        };
        let v = view_of((0..6).map(|i| rec(i, false, 15, 30, 0)), 6);
        let p = fresh_plan(&v, t(0), &cfg, demand_rate_kw(&v));
        assert_eq!(p.schedule.on_count(), 0, "latest-fit defers everything");
        for i in 0..6u32 {
            assert_eq!(p.start_of(DeviceId(i)), Some(t(15)));
        }
    }

    #[test]
    fn heterogeneous_power_weights_balancing() {
        // A 3 kW device runs in the first half; two 1 kW newcomers should
        // both go to the second half (3 kW > 2×1 kW overlap).
        let heavy = StatusRecord {
            power_w: 3000,
            ..rec(0, true, 15, 30, 0)
        };
        let p = plan(
            [heavy, rec(1, false, 15, 30, 1), rec(2, false, 15, 30, 2)],
            3,
            t(0),
        );
        assert_eq!(p.start_of(DeviceId(1)), Some(t(15)));
        // d2 sees: first half 3 kW, second half 1 kW → still the valley.
        assert_eq!(p.start_of(DeviceId(2)), Some(t(15)));
    }

    #[test]
    fn stale_overdue_deadline_treated_as_forced() {
        let p = plan([rec(0, false, 10, 5, 0)], 1, t(10));
        assert!(p.schedule.is_on(DeviceId(0)));
    }

    #[test]
    fn demand_rate_counts_open_windows() {
        // Two active 1 kW devices at 15/30 duty: 1.0 kW of demand — even
        // when one has already served its obligation (owed 0).
        let served = StatusRecord {
            owed: SimDuration::ZERO,
            ..rec(0, false, 0, 30, 0)
        };
        let v = view_of([served, rec(1, false, 15, 30, 2)], 3);
        assert!((demand_rate_kw(&v) - 1.0).abs() < 1e-12);
        // Inactive devices contribute nothing.
        let v = view_of([StatusRecord::idle(DeviceId(0))], 1);
        assert_eq!(demand_rate_kw(&v), 0.0);
    }

    #[test]
    fn planner_level_tracks_demand_with_bounded_slew() {
        let cfg = PlanConfig {
            level_slew_kw_per_hour: 6.0, // 0.1 kW per minute
            ..PlanConfig::default()
        };
        let mut planner = CoordinatedPlanner::new(cfg);
        // First observation snaps nowhere: level starts at 0 and may only
        // climb 0.1 kW per minute toward the 5 kW demand.
        let v = view_of((0..10).map(|i| rec(i, false, 15, 300, 0)), 10);
        planner.plan(&v, t(0));
        assert_eq!(planner.persisted_level().0, 0.0, "no time elapsed yet");
        planner.plan(&v, t(10));
        assert!(
            (planner.persisted_level().0 - 1.0).abs() < 1e-9,
            "10 min x 0.1 kW/min, got {}",
            planner.persisted_level().0
        );
        // Demand drops to zero: the level decays at the same bounded rate.
        let empty = SystemView::new(10);
        planner.plan(&empty, t(15));
        assert!(
            (planner.persisted_level().0 - 0.5).abs() < 1e-9,
            "decay is slew-limited too, got {}",
            planner.persisted_level().0
        );
    }

    #[test]
    fn planner_admits_more_as_level_rises() {
        let mut planner = CoordinatedPlanner::new(PlanConfig::default());
        // Ten pending 15-of-30 obligations with a far deadline: the water
        // level alone admits 5; the demand term cannot exceed that here.
        let v = view_of((0..10).map(|i| rec(i, false, 15, 30, 0)), 10);
        let p0 = planner.plan(&v, t(0));
        assert_eq!(p0.schedule.on_count(), 5, "water level = ceil(150/30)");
    }

    #[test]
    fn cap_change_takes_effect_on_the_next_plan() {
        // Steady view, frozen level (0 kW): the water level
        // ceil(4 × 15 / 30) = 2 admits two.
        let mut planner = CoordinatedPlanner::new(PlanConfig {
            level_slew_kw_per_hour: 0.0,
            ..PlanConfig::default()
        });
        let v = view_of((0..4).map(|i| rec(i, false, 15, 300, 0)), 4);
        assert_eq!(planner.plan(&v, t(0)).schedule.on_count(), 2);
        // A cap above the level clips nothing.
        planner.set_admission_cap(Some(PowerCapProfile::constant(50.0).unwrap()));
        assert_eq!(planner.plan(&v, t(2)).schedule.on_count(), 2);
        // A cap below it governs the very next plan.
        planner.set_admission_cap(Some(PowerCapProfile::constant(1.0).unwrap()));
        let p = planner.plan(&v, t(3));
        assert_eq!(p.schedule.on_count(), 1, "the new 1 kW cap admits one");
    }

    #[test]
    fn queued_device_is_forced_when_its_laxity_crosses_the_guard() {
        // One queued device approaches its forcing threshold while the
        // view stays the same.
        let mut planner = CoordinatedPlanner::new(PlanConfig {
            // Freeze the level so only the clock moves.
            level_slew_kw_per_hour: 0.0,
            ..PlanConfig::default()
        });
        // Two devices, level 1 admits one: device with the later deadline
        // queues, then gets forced as its laxity melts.
        let records = [rec(0, false, 15, 30, 0), rec(1, false, 15, 31, 1)];
        let v = view_of(records, 2);
        let p0 = planner.plan(&v, t(0));
        assert_eq!(p0.schedule.on_count(), 1, "level admits one");
        // Re-plan each minute with the *same* view: the forced switch-on
        // at laxity < guard must appear.
        let mut first_forced_at = None;
        for minute in 1..=16 {
            let p = planner.plan(&v, t(minute));
            if p.schedule.on_count() == 2 && first_forced_at.is_none() {
                first_forced_at = Some(minute);
            }
        }
        // d1: deadline 31, owed 15 ⟹ forced strictly after minute 16 - 2 s.
        assert_eq!(
            first_forced_at,
            Some(16),
            "queued device must be forced exactly when its laxity crosses the guard"
        );
    }

    #[test]
    fn planner_matches_the_kernel_at_its_level() {
        let v = view_of((0..6).map(|i| rec(i, false, 15, 40, 0)), 6);
        let mut planner = CoordinatedPlanner::new(PlanConfig::default());
        planner.advance_level(demand_rate_kw(&v), t(3));
        let mut from_planner = Plan::default();
        planner.plan_at_level(&v, t(3), &mut PlanScratch::default(), &mut from_planner);
        let (level_kw, _) = planner.persisted_level();
        let from_kernel = fresh_plan(&v, t(3), &PlanConfig::default(), level_kw);
        assert_eq!(from_planner, from_kernel);
    }

    #[test]
    fn recycled_buffers_plan_like_fresh_ones() {
        // One plan and one scratch set, reused across views of different
        // sizes, an empty view, a capped config and every placement rule:
        // nothing left over from the previous call may leak into the next.
        let busy = view_of(
            [
                rec(0, true, 7, 30, 0),
                rec(1, false, 15, 40, 2),
                placed(rec(2, false, 10, 45, 1), 20),
                rec(3, false, 15, 15, 0),
                rec(5, false, 15, 60, 5),
            ],
            8,
        );
        let crowd = view_of(
            (0..8).map(|i| rec(i, false, 15, 30 + i as u64, i as u64)),
            8,
        );
        let empty = SystemView::new(8);
        let with_rule = |rule| PlanConfig {
            rule,
            ..PlanConfig::default()
        };
        let capped = PlanConfig {
            admission_cap: Some(PowerCapProfile::constant(2.0).unwrap()),
            ..PlanConfig::default()
        };
        let cases = [
            (&crowd, PlanConfig::default(), 3.0),
            (&busy, PlanConfig::default(), 1.0),
            (&empty, PlanConfig::default(), 0.0),
            (&crowd, capped, 5.0),
            (&busy, with_rule(SchedulingRule::BalancedPlacement), 0.0),
            (&crowd, with_rule(SchedulingRule::BalancedPlacement), 0.0),
            (&busy, with_rule(SchedulingRule::Earliest), 0.0),
            (&crowd, with_rule(SchedulingRule::Latest), 0.0),
            (&empty, with_rule(SchedulingRule::Latest), 0.0),
            (&busy, PlanConfig::default(), 2.0),
        ];
        let mut scratch = PlanScratch::default();
        let mut plan = Plan::default();
        for (i, (view, cfg, level)) in cases.iter().enumerate() {
            plan_into(view, t(3), cfg, *level, &mut scratch, &mut plan);
            assert_eq!(plan, fresh_plan(view, t(3), cfg, *level), "case {i}");
        }
    }

    #[test]
    fn admission_cap_limits_served_level() {
        // Ten pending 15-of-30 obligations with far deadlines: the water
        // level alone would admit 5; a 2 kW cap admits 2, and the rest
        // queue at their latest feasible starts.
        let cfg = PlanConfig {
            admission_cap: Some(PowerCapProfile::constant(2.0).unwrap()),
            ..PlanConfig::default()
        };
        let v = view_of((0..10).map(|i| rec(i, false, 15, 60, 0)), 10);
        let p = fresh_plan(&v, t(0), &cfg, demand_rate_kw(&v));
        assert_eq!(p.schedule.on_count(), 2, "cap clips the admission level");
        // All ten still have committed starts (queued at latest start).
        assert_eq!(p.starts.len(), 10);
    }

    #[test]
    fn unlimited_cap_is_bit_identical_to_none() {
        let capped = PlanConfig {
            admission_cap: Some(PowerCapProfile::unlimited()),
            ..PlanConfig::default()
        };
        let v = view_of((0..8).map(|i| rec(i, false, 15, 40, i as u64)), 8);
        for minute in [0, 5, 12] {
            let a = fresh_plan(&v, t(minute), &PlanConfig::default(), demand_rate_kw(&v));
            let b = fresh_plan(&v, t(minute), &capped, demand_rate_kw(&v));
            assert_eq!(a, b, "unlimited profile must be the identity signal");
        }
    }

    #[test]
    fn cap_never_blocks_forced_devices() {
        // A zero cap admits nothing voluntarily, but a device at its last
        // feasible instant is still forced ON: obligations beat signals.
        let cfg = PlanConfig {
            admission_cap: Some(PowerCapProfile::constant(0.0).unwrap()),
            ..PlanConfig::default()
        };
        let v = view_of([rec(0, false, 15, 15, 0), rec(1, false, 15, 120, 0)], 2);
        let p = fresh_plan(&v, t(0), &cfg, demand_rate_kw(&v));
        assert!(p.schedule.is_on(DeviceId(0)), "forced despite the cap");
        assert!(!p.schedule.is_on(DeviceId(1)), "relaxed device respects it");
    }

    #[test]
    fn cap_step_takes_effect_at_its_boundary() {
        // The cap rises at minute 10; the plan follows it even though the
        // view and the level are unchanged.
        let cap = PowerCapProfile::from_steps(vec![(t(0), 1.0), (t(10), 5.0)]).unwrap();
        let mut planner = CoordinatedPlanner::new(PlanConfig {
            level_slew_kw_per_hour: 0.0, // freeze the level
            admission_cap: Some(cap),
            ..PlanConfig::default()
        });
        let v = view_of((0..5).map(|i| rec(i, false, 15, 120, 0)), 5);
        let before = planner.plan(&v, t(0));
        assert_eq!(before.schedule.on_count(), 1, "1 kW cap admits one");
        let still_before = planner.plan(&v, t(9));
        assert_eq!(still_before.schedule.on_count(), 1);
        let after = planner.plan(&v, t(10));
        assert_eq!(
            after.schedule.on_count(),
            3,
            "once the cap lifts, the water level (ceil 2.5) governs again"
        );
    }

    #[test]
    fn candidate_grid_shape() {
        // owed 10, window [now=0, deadline=45): grid {0, 10, 20, 30, 35}.
        let p = Pending::from_record(&rec(0, false, 10, 45, 0), t(0)).unwrap();
        let mut c = Vec::new();
        candidate_starts(&p, t(0), &mut c);
        assert_eq!(
            c,
            vec![t(0), t(10), t(20), t(30), t(35)],
            "grid plus latest start"
        );
        // Overdue: single candidate `now`, replacing the previous grid.
        let p = Pending::from_record(&rec(0, false, 10, 5, 0), t(10)).unwrap();
        candidate_starts(&p, t(10), &mut c);
        assert_eq!(c, vec![t(10)]);
    }
}
