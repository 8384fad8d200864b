//! The `home` tier: the paper's 26 × 1 kW home with Poisson arrivals at
//! 30 requests/h, coordinated, on the round loop, under the workload's
//! CP — planner-bound on the ideal CP, delivery rows and the view pool
//! on `lossy:0.3`, `han_st`, `han_radio` and `han_net` on the packet
//! CP. Every workload also computes the paper's two outcome claims,
//! coordinated against uncoordinated on the ideal CP.
//!
//! Each timed sample is one pass over a fixed set of scenarios, so
//! every sample covers the same work; the metric is the median pass, in
//! rounds per second of the simulating thread's CPU time.
//! Set-up, digest pinning and the outcome claims happen in
//! preparation, outside the timed loop.

use crate::probe::HostSpeed;
use crate::sink::{phase, PhaseSink, SpanLog, PHASES};
use crate::stats::{clock, cpu_timed, derive, median, thread_cpu_s, timed};
use crate::{check, Cp, Ctx, Report, Tier, Unit, Units};
use han_core::cp::CpModel;
use han_core::experiment::{summarize_outcome, Comparison};
use han_core::simulation::{HanSimulation, SimulationConfig, SimulationOutcome, Strategy};
use han_device::request::Request;
use han_obs::{Counter, Gauge, Obs};
use han_sim::time::SimDuration;
use han_workload::scenario::{ArrivalRate, Scenario};
use std::sync::Arc;

/// The paper's simulated day, minutes.
const PAPER_MINUTES: u64 = 350;
/// Scenarios behind the outcome metrics (coordinated vs uncoordinated,
/// ideal CP). On the ideal workload the first [`timed_cases`] of them
/// are also the timed ones.
const OUTCOME_CASES: u64 = 144;
/// Scenarios per CP checked against the naive reference plane.
const REFERENCE_CASES: usize = 1;
/// Timed passes, at least.
const MIN_PASSES: usize = 3;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;
/// Seed stream of the home scenarios.
const STREAM: u64 = 1;

/// Scenarios per timed pass and their horizon, minutes: eight paper
/// days on the ideal CP (~40 ms a run), one on the lossy CP (~300 ms a run),
/// and five minutes on the packet CP, whose ~1.7 ms rounds would make a
/// paper day take ~18 s.
fn timed_cases(cp: Cp) -> (u64, u64) {
    match cp {
        Cp::Ideal => (8, PAPER_MINUTES),
        Cp::Lossy => (1, PAPER_MINUTES),
        Cp::Packet => (1, 5),
    }
}

/// The CP model of the home scenarios, seeded from the workload seed.
fn model(cp: Cp, seed: u64) -> CpModel {
    cp.model(derive(seed, STREAM, 1 << 32))
}

/// One scenario ready to run: its configuration, request trace and the
/// digest every run of it must reproduce.
struct Case {
    config: SimulationConfig,
    requests: Vec<Request>,
    digest: u64,
}

impl Case {
    fn simulation(&self, obs: Obs) -> Result<HanSimulation, String> {
        let mut sim = HanSimulation::new(self.config.clone(), self.requests.clone())
            .map_err(|e| format!("home scenario rejected: {e}"))?;
        sim.set_observer(obs);
        Ok(sim)
    }
}

fn scenario(seed: u64, index: u64, minutes: u64) -> Scenario {
    Scenario {
        duration: SimDuration::from_mins(minutes),
        ..Scenario::paper(ArrivalRate::High, derive(seed, STREAM, index))
    }
}

fn config(scenario: &Scenario, strategy: Strategy, cp: CpModel) -> SimulationConfig {
    SimulationConfig {
        cp,
        duration: scenario.duration,
        ..SimulationConfig::paper(strategy, scenario.seed)
    }
}

/// Builds the cases of one CP: request generation and simulation
/// construction, timed as `(generate_s, new_s)` summed over the cases.
fn build(seed: u64, cp: Cp, count: u64, minutes: u64) -> Result<(Vec<Case>, f64, f64), String> {
    let model = model(cp, seed);
    let mut cases = Vec::new();
    let (mut generate_s, mut new_s) = (0.0, 0.0);
    for i in 0..count {
        let scenario = scenario(seed, i, minutes);
        let (requests, g) = timed(|| scenario.requests());
        let config = config(&scenario, Strategy::coordinated(), model.clone());
        let (sim, n) = timed(|| HanSimulation::new(config.clone(), requests.clone()));
        sim.map_err(|e| format!("home scenario rejected: {e}"))?;
        generate_s += g;
        new_s += n;
        cases.push(Case {
            config,
            requests,
            digest: 0,
        });
    }
    Ok((cases, generate_s, new_s))
}

/// A tier's cases with the median times of its [`SETUPS`] set-ups.
struct SetUp {
    /// One case set per CP, from the last set-up.
    sets: Vec<Vec<Case>>,
    /// Whole set-up, s.
    seconds: f64,
    /// `Scenario::requests` per case, s.
    generate_s: f64,
    /// `HanSimulation::new` per case, s.
    new_s: f64,
}

/// Sets a tier up [`SETUPS`] times: `(cp, cases, minutes)` per CP.
fn setup(seed: u64, cps: &[(Cp, u64, u64)]) -> Result<SetUp, String> {
    let mut totals = Vec::new();
    let mut generates = Vec::new();
    let mut news = Vec::new();
    let mut sets = Vec::new();
    for _ in 0..SETUPS {
        let (built, total) = timed(|| {
            cps.iter()
                .map(|&(cp, count, minutes)| build(seed, cp, count, minutes))
                .collect::<Result<Vec<_>, String>>()
        });
        let built = built?;
        let cases = built.iter().map(|b| b.0.len()).sum::<usize>() as f64;
        totals.push(total);
        generates.push(built.iter().map(|b| b.1).sum::<f64>() / cases);
        news.push(built.iter().map(|b| b.2).sum::<f64>() / cases);
        sets = built.into_iter().map(|b| b.0).collect();
    }
    Ok(SetUp {
        sets,
        seconds: median(&totals),
        generate_s: median(&generates),
        new_s: median(&news),
    })
}

/// Runs every case once, untraced — under its own strategy, or under
/// `strategy` when given — spread over `nproc` threads: preparation is
/// untimed, so it may use every core.
fn run_all(cases: &[Case], strategy: Option<&Strategy>) -> Result<Vec<SimulationOutcome>, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = cases.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = cases
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|case| {
                            let config = SimulationConfig {
                                strategy: strategy.unwrap_or(&case.config.strategy).clone(),
                                ..case.config.clone()
                            };
                            let sim = HanSimulation::new(config, case.requests.clone())
                                .map_err(|e| format!("home scenario rejected: {e}"))?;
                            Ok(sim.run())
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut outcomes = Vec::with_capacity(cases.len());
        for handle in handles {
            outcomes.extend(
                handle
                    .join()
                    .map_err(|_| "a preparation thread panicked")??,
            );
        }
        Ok(outcomes)
    })
}

/// Pins every case's digest from its first run, checks zero deadline
/// misses and, on the first cases, equality with the naive reference
/// plane.
fn pin_digests(
    cp: Cp,
    cases: &mut [Case],
    outcomes: &[SimulationOutcome],
    report: &mut Report,
) -> Result<(), String> {
    for (i, (case, outcome)) in cases.iter_mut().zip(outcomes).enumerate() {
        count_run(report, case, outcome)?;
        case.digest = outcome.schedule_digest;
        if i < REFERENCE_CASES {
            let mut naive = case.simulation(Obs::off())?;
            naive.set_reference_planning(true);
            let reference = naive.run();
            check(reference.schedule_digest == case.digest, || {
                format!(
                    "{} case {i}: memoized digest {:016x} differs from the naive reference {:016x}",
                    cp.name(),
                    case.digest,
                    reference.schedule_digest
                )
            })?;
        }
    }
    Ok(())
}

/// Counts one run's requests and deadline misses, failing on a miss.
fn count_run(report: &mut Report, case: &Case, outcome: &SimulationOutcome) -> Result<(), String> {
    let misses = u64::from(outcome.deadline_misses);
    report.ops(Tier::Home.name(), case.requests.len() as u64, misses);
    check(misses == 0, || {
        format!("{misses} deadline misses on seed {}", case.config.seed)
    })
}

/// What a traced pass adds up over its runs.
#[derive(Default)]
struct Tally {
    rounds: u64,
    nanos: [u64; 6],
    spans: [u64; 6],
    invocations: u64,
    memo_hits: u64,
    forks: u64,
    edits: u64,
    peak_views: u64,
    attempted_records: u64,
    delivered_records: u64,
}

impl Tally {
    fn add(&mut self, rounds: u64, sink: &PhaseSink) {
        let r = sink.registry();
        self.rounds += rounds;
        for i in 0..PHASES.len() {
            self.nanos[i] += sink.nanos(i);
            self.spans[i] += sink.spans(i);
        }
        self.invocations += r.counter(Counter::PlannerInvocations);
        self.memo_hits += r.counter(Counter::PlannerMemoHits);
        self.forks += r.counter(Counter::PoolForks);
        self.edits += r.counter(Counter::PoolInPlaceEdits);
        self.peak_views = self.peak_views.max(r.gauge(Gauge::PoolPeakViews));
        self.attempted_records += r.counter(Counter::CpAttemptedRecords);
        self.delivered_records += r.counter(Counter::CpDeliveredRecords);
    }
}

/// One timed pass over `cases`: runs each, checks its digest, and
/// returns the pass's rounds per CPU second. With `tally`, each run carries
/// a fresh [`PhaseSink`] whose totals are added in.
fn pass(
    cp: Cp,
    cases: &[Case],
    report: &mut Report,
    log: &mut SpanLog,
    mut tally: Option<&mut Tally>,
) -> Result<f64, String> {
    let mut rounds = 0u64;
    let mut seconds = 0.0;
    for case in cases {
        let sink = tally.is_some().then(|| Arc::new(PhaseSink::default()));
        let sim = case.simulation(sink.clone().map_or_else(Obs::off, |s| Obs::new(s)))?;
        let (outcome, dt) = log.call("HanSimulation::run", || {
            cpu_timed(thread_cpu_s, || sim.run())
        })?;
        let outcome = std::hint::black_box(outcome);
        check(outcome.schedule_digest == case.digest, || {
            format!(
                "{} seed {}: digest {:016x} differs from the pinned {:016x}{}",
                cp.name(),
                case.config.seed,
                outcome.schedule_digest,
                case.digest,
                if sink.is_some() { " (traced run)" } else { "" }
            )
        })?;
        count_run(report, case, &outcome)?;
        if let (Some(tally), Some(sink)) = (tally.as_deref_mut(), &sink) {
            tally.add(outcome.rounds, sink);
        }
        rounds += outcome.rounds;
        seconds += dt;
    }
    Ok(rounds as f64 / seconds)
}

/// The timed passes: untraced samples `(time, rounds per CPU second)`
/// give the end-to-end metric; traced samples, each run observed by a fresh
/// [`PhaseSink`], give the per-layer metrics.
struct HomeUnit {
    cp: Cp,
    cases: Vec<Case>,
    divergent: u64,
    untraced: Vec<(f64, f64)>,
    traced: Vec<f64>,
    tally: Tally,
}

impl Unit for HomeUnit {
    fn step(&mut self, traced: bool, report: &mut Report, log: &mut SpanLog) -> Result<(), String> {
        let tally = traced.then_some(&mut self.tally);
        let start = clock();
        let rate = pass(self.cp, &self.cases, report, log, tally)?;
        if traced {
            self.traced.push(rate);
        } else {
            self.untraced.push(((start + clock()) / 2.0, rate));
        }
        Ok(())
    }

    fn satisfied(&self, traced_run: bool) -> bool {
        self.untraced.len() >= MIN_PASSES && (!traced_run || self.traced.len() >= MIN_PASSES)
    }

    fn finish(
        self: Box<Self>,
        traced_run: bool,
        host: &HostSpeed,
        report: &mut Report,
        _: &mut SpanLog,
    ) -> Result<(), String> {
        let untraced = median(&self.untraced.iter().map(|s| s.1).collect::<Vec<_>>());
        report.raw("home_rounds_per_cpu_s", untraced, "1/s");
        report.e2e(
            "home_rounds_per_cpu_s",
            host.scaled_median(&self.untraced),
            "1/s",
        );
        if traced_run {
            let traced = median(&self.traced);
            layer_metrics(
                self.cp,
                &self.tally,
                self.divergent,
                untraced,
                traced,
                report,
            )?;
        }
        Ok(())
    }
}

fn layer_metrics(
    cp: Cp,
    t: &Tally,
    divergent: u64,
    untraced_rps: f64,
    traced_rps: f64,
    report: &mut Report,
) -> Result<(), String> {
    for (i, name) in PHASES.iter().enumerate() {
        check(t.spans[i] == 0 || t.nanos[i] > 0, || {
            format!(
                "{}: phase {name} ran {} times but summed 0 ns",
                cp.name(),
                t.spans[i]
            )
        })?;
    }
    let rounds = t.rounds as f64;
    for name in ["begin", "comms", "plan", "end"] {
        let ns = t.nanos[phase(name)] as f64;
        report.layer(format!("simulation.{name}_ns_per_round"), ns / rounds, "ns");
    }
    let all: u64 = t.nanos.iter().sum();
    let begin_comms = t.nanos[phase("begin")] + t.nanos[phase("comms")];
    report.layer(
        "simulation.begin_comms_share",
        begin_comms as f64 / all as f64,
        "ratio",
    );
    report.layer("simulation.divergent_rounds", divergent as f64, "count");
    report.layer(
        "algorithm.plans_per_round",
        t.invocations as f64 / rounds,
        "count",
    );
    report.layer(
        "algorithm.memo_hit_ratio",
        ratio(t.memo_hits, t.invocations),
        "ratio",
    );
    report.layer(
        "cp.delivered_ratio",
        ratio(t.delivered_records, t.attempted_records),
        "ratio",
    );
    report.layer("pool.forks_per_round", t.forks as f64 / rounds, "count");
    report.layer(
        "pool.in_place_edits_per_round",
        t.edits as f64 / rounds,
        "count",
    );
    report.layer("pool.peak_views", t.peak_views as f64, "count");
    report.layer(
        "obs.trace_overhead_pct",
        (untraced_rps / traced_rps - 1.0) * 100.0,
        "%",
    );
    Ok(())
}

/// `num / den`, or 1 when nothing was attempted (a CP with no record
/// accounting delivers everything).
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Prepares the `home` tier: set-up, the outcome claims, digest
/// pinning; returns the timed unit.
pub fn prepare(ctx: &Ctx, report: &mut Report, log: &mut SpanLog) -> Result<Units, String> {
    let (count, minutes) = timed_cases(ctx.cp);
    let mut plan = vec![(Cp::Ideal, OUTCOME_CASES, PAPER_MINUTES)];
    if ctx.cp != Cp::Ideal {
        plan.push((ctx.cp, count, minutes));
    }
    let set_up = log.call("setup", || setup(ctx.seed, &plan))?;
    report.setup(Tier::Home, set_up.seconds);
    report.layer("workload.generate_ms", set_up.generate_s * 1e3, "ms");
    report.layer("simulation.new_ms", set_up.new_s * 1e3, "ms");
    let mut sets = set_up.sets.into_iter();
    let mut outcome_cases = sets.next().ok_or("the outcome case set")?;

    // The outcome claims: coordinated against uncoordinated on every
    // outcome scenario; the coordinated runs also pin the ideal digests.
    let coordinated = run_all(&outcome_cases, None)?;
    let baselines = run_all(&outcome_cases, Some(&Strategy::Uncoordinated))?;
    pin_digests(Cp::Ideal, &mut outcome_cases, &coordinated, report)?;
    let (mut peak, mut std) = (0.0, 0.0);
    for (i, (case, baseline)) in outcome_cases.iter().zip(baselines).enumerate() {
        count_run(report, case, &baseline)?;
        let duration = case.config.duration;
        let comparison = Comparison {
            scenario: scenario(ctx.seed, i as u64, PAPER_MINUTES),
            uncoordinated: summarize_outcome(baseline, duration),
            coordinated: summarize_outcome(coordinated[i].clone(), duration),
        };
        peak += comparison.peak_reduction_percent();
        std += comparison.std_reduction_percent();
    }
    report.e2e("peak_reduction_pct", peak / OUTCOME_CASES as f64, "%");
    report.e2e("std_reduction_pct", std / OUTCOME_CASES as f64, "%");

    let (cases, runs) = match sets.next() {
        Some(mut cases) => {
            let runs = run_all(&cases, None)?;
            pin_digests(ctx.cp, &mut cases, &runs, report)?;
            (cases, runs)
        }
        None => {
            outcome_cases.truncate(count as usize);
            (outcome_cases, coordinated[..count as usize].to_vec())
        }
    };
    let unit = HomeUnit {
        cp: ctx.cp,
        cases,
        divergent: runs.iter().map(|o| o.divergent_rounds).sum(),
        untraced: Vec::new(),
        traced: Vec::new(),
        tally: Tally::default(),
    };
    Ok(vec![("home", Box::new(unit), 1.0)])
}
