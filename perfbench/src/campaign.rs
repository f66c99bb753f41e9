//! `campaign` layer: `CampaignManifest::parse`/`expand`,
//! `plan_fingerprint`, `Plan::run_cells`, `ShardArtifact::compose` and
//! `merge_artifacts` (which validates every artifact).

use std::collections::HashMap;
use std::time::Instant;

use greener_core::campaign::{
    merge_artifacts, partition, plan_fingerprint, CampaignManifest, CampaignPlan, CampaignReport,
    CellResult, Plan, ShardArtifact, ShardSpec,
};
use greener_core::fleet::{FleetManifest, FleetPlan};
use greener_core::Observe;
use greener_simkit::sweep;

use crate::trace::{SpanId, Tracer};
use crate::{replay, worldgen};

/// The `demand_sweep` manifest: every policy family at three arrival
/// rates, two seeds (48 cells, 6 distinct worlds).
pub fn demand_manifest(seed: u64) -> String {
    format!(
        "name = demand_sweep\n\
         base = quick:14@{seed}\n\
         seeds = {seed}, {}\n\
         axis arrival_rate = 2, 4, 8\n\
         axis policy = fcfs, sjf, easy, cap:160, carbon:0.06, temp, green_queues:160, carbon_temp\n",
        seed + 1
    )
}

/// The `fleet_process` manifest: four routing policies over a 3-site
/// year-long fleet, four seeds (16 cells, 4 distinct fleet worlds).
pub fn fleet_manifest(seed: u64) -> String {
    format!(
        "name = fleet_process\n\
         base = quick:365@{seed}\n\
         sites = 3\n\
         seeds = {seed}..{}\n\
         axis routing = static, round-robin, greedy-carbon, cost-based\n",
        seed + 4
    )
}

/// Times of the three set-up steps of a plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub parse_s: f64,
    pub expand_s: f64,
    pub fingerprint_s: f64,
}

/// A parsed, expanded and fingerprinted plan.
#[derive(Debug)]
pub struct Prepared<P> {
    pub plan: P,
    pub fingerprint: u64,
    pub times: SetupTimes,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn prepared<P: Plan>(plan: P, parse_s: f64, expand_s: f64) -> Prepared<P> {
    let (fingerprint, fingerprint_s) = timed(|| plan_fingerprint(&plan));
    Prepared {
        plan,
        fingerprint,
        times: SetupTimes {
            parse_s,
            expand_s,
            fingerprint_s,
        },
    }
}

pub fn prepare_campaign(text: &str) -> Result<Prepared<CampaignPlan>, String> {
    let (manifest, parse_s) = timed(|| CampaignManifest::parse(text));
    let manifest = manifest.map_err(|e| format!("parse: {e}"))?;
    let (plan, expand_s) = timed(|| manifest.expand());
    let plan = plan.map_err(|e| format!("expand: {e}"))?;
    Ok(prepared(plan, parse_s, expand_s))
}

pub fn prepare_fleet(text: &str) -> Result<Prepared<FleetPlan>, String> {
    let (manifest, parse_s) = timed(|| FleetManifest::parse(text));
    let manifest = manifest.map_err(|e| format!("parse: {e}"))?;
    let (plan, expand_s) = timed(|| manifest.expand());
    let plan = plan.map_err(|e| format!("expand: {e}"))?;
    Ok(prepared(plan, parse_s, expand_s))
}

/// The shard artifacts `plan` produces for `report` at `shards` shards.
/// Composing is deterministic, so this reproduces the bytes a backend
/// handed to the merge.
pub fn artifacts<P: Plan>(
    fingerprint: u64,
    shards: usize,
    report: &CampaignReport<P::Record>,
) -> Vec<ShardArtifact> {
    partition(report.cells.len(), shards)
        .iter()
        .map(|spec| ShardArtifact::compose(fingerprint, spec, &report.cells[spec.start..spec.end]))
        .collect()
}

/// Run a plan the way `run_campaign` does — partition, one thread per
/// shard, compose each shard's artifact, merge — with a span around each
/// step. `run_cells` runs one shard's cells under the given shard span.
/// Returns the merged report and the artifacts' total bytes.
pub fn run_traced<P: Plan>(
    tracer: &Tracer,
    prepared: &Prepared<P>,
    shards: usize,
    run_cells: impl Fn(SpanId, &ShardSpec) -> Vec<P::Record> + Sync,
) -> Result<(CampaignReport<P::Record>, usize), String> {
    tracer.span("campaign.run", None, 0, |root| {
        let specs = partition(prepared.plan.len(), shards);
        let artifacts = sweep::run(&specs, |spec| {
            let op = spec.shard as u64;
            let cells = tracer.span("campaign.run_cells", Some(root), op, |sid| {
                run_cells(sid, spec)
            });
            tracer.span("campaign.compose", Some(root), op, |_| {
                ShardArtifact::compose(prepared.fingerprint, spec, &cells)
            })
        });
        let bytes = artifacts.iter().map(|a| a.text.len()).sum();
        let report = tracer.span("campaign.merge", Some(root), 0, |_| {
            merge_artifacts(&prepared.plan, &artifacts)
        });
        report.map(|r| (r, bytes)).map_err(|e| e.to_string())
    })
}

/// `CampaignPlan::run_cells` for one shard, from its public parts: each
/// distinct world (keyed by `Scenario::world_inputs_key`) built once, and
/// every cell replayed over it aggregates-only.
pub fn run_campaign_cells(
    tracer: &Tracer,
    shard_span: SpanId,
    plan: &CampaignPlan,
    spec: &ShardSpec,
) -> Vec<CellResult> {
    let mut worlds = HashMap::new();
    plan.cells[spec.start..spec.end]
        .iter()
        .map(|cell| {
            let op = cell.index as u64;
            let world = worlds
                .entry(cell.scenario.world_inputs_key())
                .or_insert_with(|| worldgen::build(tracer, Some(shard_span), op, &cell.scenario));
            let out = replay::run_observed(
                tracer,
                Some(shard_span),
                op,
                &cell.scenario,
                world,
                Observe::aggregates(),
            );
            CellResult {
                index: cell.index,
                id: cell.id.clone(),
                aggregates: out.aggregates,
                jobs: out.jobs,
                battery_cycles: out.battery_cycles,
            }
        })
        .collect()
}

/// Worlds a shard-local world cache builds at `shards` shards, and the
/// trace jobs it generates: `keys[i]` is cell `i`'s world key and
/// `trace_lens[i]` the length of its world's trace. This models the
/// world-cache rule of `Plan::run_cells` from outside; it does not count
/// what the program builds.
pub fn world_counts(keys: &[String], trace_lens: &[u64], shards: usize) -> (u64, u64) {
    let (mut worlds, mut jobs) = (0, 0);
    for spec in partition(keys.len(), shards) {
        let mut seen: Vec<&String> = Vec::new();
        for i in spec.start..spec.end {
            if !seen.contains(&&keys[i]) {
                seen.push(&keys[i]);
                worlds += 1;
                jobs += trace_lens[i];
            }
        }
    }
    (worlds, jobs)
}
