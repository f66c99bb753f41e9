//! `replay` layer: `SimDriver::{run_observed, run_with_world,
//! run_profiled}` over the `sched`, `hpc` and `simkit` crates.

use std::collections::BTreeMap;
use std::time::Instant;

use greener_core::driver::{RunResult, SimDriver, World};
use greener_core::profile::{ProfileCounter, ProfilePhase};
use greener_core::scenario::Scenario;
use greener_core::{Observe, RunOutput};
use greener_sched::PolicyKind;

use crate::trace::{SpanId, Tracer};

pub fn run_observed(
    tracer: &Tracer,
    parent: Option<SpanId>,
    op: u64,
    scenario: &Scenario,
    world: &World,
    observe: Observe,
) -> RunOutput {
    tracer.span("replay.run_observed", parent, op, |_| {
        SimDriver::run_observed(scenario, world, observe)
    })
}

pub fn run_with_world(
    tracer: &Tracer,
    parent: Option<SpanId>,
    op: u64,
    scenario: &Scenario,
    world: &World,
) -> RunResult {
    tracer.span("replay.run_with_world", parent, op, |_| {
        SimDriver::run_with_world(scenario, world)
    })
}

/// The policy family of a scheduling policy, as the demand sweep's
/// manifest spells it (`cap:160` → `cap`).
pub fn family(policy: &PolicyKind) -> &'static str {
    match policy {
        PolicyKind::Fcfs => "fcfs",
        PolicyKind::Sjf => "sjf",
        PolicyKind::EasyBackfill | PolicyKind::EasyBackfillLimited { .. } => "easy",
        PolicyKind::StaticCap { .. } => "cap",
        PolicyKind::TempAware => "temp",
        PolicyKind::CarbonAware { .. } => "carbon",
        PolicyKind::GreenQueues { .. } => "green_queues",
        PolicyKind::CarbonAndTempAware => "carbon_temp",
    }
}

/// Every policy family, in the demand sweep's axis order.
pub const FAMILIES: [&str; 8] = [
    "fcfs",
    "sjf",
    "easy",
    "cap",
    "carbon",
    "temp",
    "green_queues",
    "carbon_temp",
];

/// Phase split and loop counters summed over profiled replays, with the
/// same replays' unprofiled times for the profiler's overhead ratio.
#[derive(Debug, Clone, Default)]
pub struct ProfileTotals {
    pub cells: usize,
    pub unprofiled_s: f64,
    pub profiled_s: f64,
    /// Seconds per [`ProfilePhase::ALL`] entry.
    pub phases_s: [f64; 4],
    pub unattributed_s: f64,
    pub events: u64,
    pub dispatch_calls: u64,
    pub fast_dispatches: u64,
    pub backfill_visits: u64,
    /// Policy-dispatch seconds per policy family.
    pub dispatch_by_family: BTreeMap<&'static str, f64>,
    /// Profiled outputs that differed from their unprofiled replay.
    pub mismatches: usize,
}

impl ProfileTotals {
    /// Replay `scenario` over `world` twice — unprofiled, then through
    /// `run_profiled` — and add the split to the totals. The profiled
    /// output must equal the unprofiled one; a difference is counted in
    /// [`ProfileTotals::mismatches`].
    pub fn add(&mut self, scenario: &Scenario, world: &World, observe: Observe) {
        let t = Instant::now();
        let plain = SimDriver::run_observed(scenario, world, observe);
        let unprofiled = t.elapsed().as_secs_f64();
        let (out, prof) = SimDriver::run_profiled(scenario, world, observe);
        if out.aggregates.energy_kwh.to_bits() != plain.aggregates.energy_kwh.to_bits()
            || out.jobs.completed != plain.jobs.completed
        {
            self.mismatches += 1;
        }
        self.cells += 1;
        self.unprofiled_s += unprofiled;
        self.profiled_s += prof.total.as_secs_f64();
        for (i, &p) in ProfilePhase::ALL.iter().enumerate() {
            self.phases_s[i] += prof.phase(p).as_secs_f64();
        }
        self.unattributed_s += prof.unattributed().as_secs_f64();
        self.events += prof.counter(ProfileCounter::Events);
        self.dispatch_calls += prof.counter(ProfileCounter::DispatchCalls);
        self.fast_dispatches += prof.counter(ProfileCounter::FastDispatches);
        self.backfill_visits += prof.counter(ProfileCounter::BackfillVisits);
        *self
            .dispatch_by_family
            .entry(family(&scenario.policy))
            .or_default() += prof.phase(ProfilePhase::PolicyDispatch).as_secs_f64();
    }

    pub fn phase_s(&self, phase: ProfilePhase) -> f64 {
        let i = ProfilePhase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("ProfilePhase::ALL lists every phase");
        self.phases_s[i]
    }

    /// The largest replay phase by attributed time (`none` when nothing
    /// was profiled).
    pub fn largest_phase(&self) -> &'static str {
        if self.cells == 0 {
            return "none";
        }
        ProfilePhase::ALL
            .iter()
            .zip(self.phases_s)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("none", |(p, _)| p.name())
    }
}
