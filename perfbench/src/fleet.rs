//! `fleet` layer: `FleetWorld::build`, `FleetDriver::route` and
//! `FleetDriver::run_observed`.

use std::collections::HashMap;

use greener_core::campaign::ShardSpec;
use greener_core::fleet::{FleetCellResult, FleetDriver, FleetPlan, FleetWorld};
use greener_core::Observe;

use crate::trace::{SpanId, Tracer};
use crate::Checks;

/// `FleetPlan::run_cells` for one shard, from its public parts: each
/// distinct fleet world built once, then every cell routed and replayed
/// over it. The routing pass is timed on its own (`fleet.route`) and then
/// again inside `fleet.run_observed`, which routes before it replays, so
/// the replay-and-rollup time is `run_observed − route`. The standalone
/// routes must equal the ones the run used.
pub fn run_cells(
    tracer: &Tracer,
    shard_span: SpanId,
    plan: &FleetPlan,
    spec: &ShardSpec,
    checks: &Checks,
) -> Vec<FleetCellResult> {
    let mut worlds = HashMap::new();
    plan.cells[spec.start..spec.end]
        .iter()
        .map(|cell| {
            let op = cell.index as u64;
            let world = worlds
                .entry(cell.fleet.world_inputs_key())
                .or_insert_with(|| {
                    tracer.span("fleet.world", Some(shard_span), op, |_| {
                        FleetWorld::build(&cell.fleet)
                    })
                });
            let routes = tracer.span("fleet.route", Some(shard_span), op, |_| {
                FleetDriver::route(&cell.fleet, world)
            });
            let out = tracer.span("fleet.run_observed", Some(shard_span), op, |_| {
                FleetDriver::run_observed(&cell.fleet, world, Observe::aggregates())
            });
            checks.check(routes == out.routes, || {
                format!("{}: standalone routing differs from the run's", cell.id)
            });
            FleetCellResult::from_output(cell.index, &cell.id, &out)
        })
        .collect()
}
