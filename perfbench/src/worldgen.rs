//! `worldgen` layer: `World::{environment, build_trace, build}` over the
//! `climate`, `grid` and `workload` crates.

use greener_core::driver::World;
use greener_core::scenario::{Scenario, WorldGen};
use greener_simkit::par;

use crate::trace::{SpanId, Tracer};

/// Build `scenario`'s world the way `World::build` does — the environment
/// forked against the trace on the scenario's worldgen schedule — with a
/// span around the build and around each side of the fork, so the
/// environment and trace times are seen separately. The assembled world
/// is the one `World::build` returns (the workloads check the digests of
/// their outputs against the untraced path).
pub fn build(tracer: &Tracer, parent: Option<SpanId>, op: u64, scenario: &Scenario) -> World {
    tracer.span("worldgen.build", parent, op, |id| {
        let parallel = scenario.worldgen == WorldGen::Parallel;
        let ((weather, grid), trace) = par::join(
            parallel,
            || {
                tracer.span("worldgen.environment", Some(id), op, |_| {
                    World::environment(scenario)
                })
            },
            || {
                tracer.span("worldgen.build_trace", Some(id), op, |_| {
                    World::build_trace(scenario)
                })
            },
        );
        World {
            seed: scenario.seed,
            gpu_cap: scenario.cluster.total_gpus(),
            weather,
            grid,
            trace,
        }
    })
}
