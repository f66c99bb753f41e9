//! The three workloads. Each has a set-up (manifest parse, expansion and
//! fingerprint, plus one untimed warm-up pass), an untraced repetition
//! through the API users call, and a traced repetition that makes the
//! same computation from the layers' public functions with a span around
//! each call. Both repetitions must give the same output digest.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::Instant;

use greener_core::campaign::{
    run_campaign, CampaignPlan, CampaignReport, CellRecord, InProcessBackend, Plan,
};
use greener_core::driver::JobStats;
use greener_core::fleet::{FleetCellResult, FleetPlan};
use greener_core::RunAggregates;

use crate::campaign::{self, Prepared, SetupTimes};
use crate::report::{cpu_s, digest};
use crate::trace::Tracer;
use crate::{fleet, paper, process, replay, Checks};

/// The workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["paper", "demand_sweep", "fleet_process"];

/// Exact work counters of one repetition (identical on every repetition
/// of one seed). `worlds_built` and `trace_jobs` are computed from the
/// plan by [`campaign::world_counts`], not observed inside the program;
/// on `paper` they cover the flagship world only.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counters {
    pub cells: u64,
    pub worlds_built: u64,
    pub trace_jobs: u64,
    pub completed_jobs: u64,
    pub artifact_bytes: u64,
    pub routed_jobs: u64,
    pub truncated_jobs: u64,
}

impl Counters {
    pub fn pairs(&self) -> [(&'static str, u64); 7] {
        [
            ("cells", self.cells),
            ("worlds_built", self.worlds_built),
            ("trace_jobs", self.trace_jobs),
            ("completed_jobs", self.completed_jobs),
            ("artifact_bytes", self.artifact_bytes),
            ("routed_jobs", self.routed_jobs),
            ("truncated_jobs", self.truncated_jobs),
        ]
    }
}

/// What one repetition produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Digest of the byte-stable output.
    pub digest: u64,
    pub counters: Counters,
    /// Supervisor counters (`fleet_process` only): attempts, retries,
    /// timeouts, resumed.
    pub supervisor: [u64; 4],
    /// Artifact directory to delete once the clock has stopped.
    pub artifacts: Option<PathBuf>,
    /// Wall and CPU seconds of the workload's own call (untraced
    /// repetitions only; the output checks run after the clock stops).
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Run `f`, returning its value with its wall and CPU seconds.
fn measured<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu = cpu_s();
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64(), cpu_s() - cpu)
}

enum Plans {
    Paper,
    Demand(Option<Prepared<CampaignPlan>>),
    Fleet(Option<Prepared<FleetPlan>>),
}

pub struct Workload {
    pub name: &'static str,
    seed: u64,
    shards: usize,
    worker: Option<PathBuf>,
    work_dir: PathBuf,
    manifest: String,
    plans: Plans,
    /// Supervised repetitions so far (names their artifact directories).
    reps: Cell<usize>,
}

impl Workload {
    pub fn new(
        name: &str,
        seed: u64,
        shards: usize,
        worker: Option<PathBuf>,
        work_dir: PathBuf,
    ) -> Result<Workload, String> {
        let (name, manifest, plans) = match name {
            "paper" => ("paper", String::new(), Plans::Paper),
            "demand_sweep" => (
                "demand_sweep",
                campaign::demand_manifest(seed),
                Plans::Demand(None),
            ),
            "fleet_process" => {
                if worker.is_none() {
                    return Err("fleet_process needs --worker <perfjson binary>".into());
                }
                (
                    "fleet_process",
                    campaign::fleet_manifest(seed),
                    Plans::Fleet(None),
                )
            }
            other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
        };
        Ok(Workload {
            name,
            seed,
            shards,
            worker,
            work_dir,
            manifest,
            plans,
            reps: Cell::new(0),
        })
    }

    /// One set-up pass: parse, expand and fingerprint the manifest, then
    /// one untimed warm-up repetition. Returns the warm-up's byte-stable
    /// output too, for [`Workload::check_in_process`].
    pub fn setup(&mut self, checks: &Checks) -> Result<(SetupTimes, Rep, String), String> {
        let mut times = SetupTimes::default();
        match &mut self.plans {
            Plans::Paper => {}
            Plans::Demand(slot) => {
                let p = campaign::prepare_campaign(&self.manifest)?;
                times = p.times;
                *slot = Some(p);
            }
            Plans::Fleet(slot) => {
                let p = campaign::prepare_fleet(&self.manifest)?;
                times = p.times;
                *slot = Some(p);
            }
        }
        let (rep, text) = self.run_with_text(checks)?;
        Ok((times, rep, text))
    }

    /// `fleet_process` only: the supervised report `text` must match an
    /// in-process `run_campaign` of the same plan byte for byte. Called
    /// outside the set-up timing and after the peak RSS is read, since
    /// the in-process run builds every fleet world in this process.
    pub fn check_in_process(&self, text: &str, checks: &Checks) -> Result<(), String> {
        if let Plans::Fleet(Some(p)) = &self.plans {
            let in_process = self.in_process(p)?.to_text();
            checks.check(in_process == text, || {
                "supervised report differs from the in-process run_campaign report".into()
            });
        }
        Ok(())
    }

    /// One untraced repetition through the API users call.
    pub fn run(&self, checks: &Checks) -> Result<Rep, String> {
        self.run_with_text(checks).map(|(rep, _)| rep)
    }

    fn run_with_text(&self, checks: &Checks) -> Result<(Rep, String), String> {
        match &self.plans {
            Plans::Paper => {
                let (p, wall_s, cpu_s) = measured(|| paper::run(self.seed, None));
                let rep = self.paper_rep(&p, checks);
                Ok((
                    Rep {
                        wall_s,
                        cpu_s,
                        ..rep
                    },
                    p.text,
                ))
            }
            Plans::Demand(Some(p)) => {
                let (report, wall_s, cpu_s) =
                    measured(|| run_campaign(&p.plan, &InProcessBackend::default(), self.shards));
                let report = report.map_err(|e| e.to_string())?;
                let bytes = artifact_bytes(p, self.shards, &report);
                let rep = self.demand_rep(p, &report, bytes, checks);
                Ok((
                    Rep {
                        wall_s,
                        cpu_s,
                        ..rep
                    },
                    report.to_text(),
                ))
            }
            Plans::Fleet(Some(p)) => {
                let dir = self.fresh_artifact_dir();
                let (sup, wall_s, cpu_s) = measured(|| self.supervise(&dir));
                let (rep, text) = self.supervised_rep(p, sup, dir, checks)?;
                Ok((
                    Rep {
                        wall_s,
                        cpu_s,
                        ..rep
                    },
                    text,
                ))
            }
            _ => Err("workload run before set-up".into()),
        }
    }

    /// A fresh artifact directory for one supervised repetition: with a
    /// shared one, resume would skip every shard and measure no work.
    fn fresh_artifact_dir(&self) -> PathBuf {
        self.reps.set(self.reps.get() + 1);
        self.work_dir.join(format!("rep-{}", self.reps.get()))
    }

    /// `fleet_process`'s timed call: the plan supervised into `dir`.
    fn supervise(&self, dir: &Path) -> Result<process::Supervised, String> {
        let worker = self.worker.as_deref().expect("checked in new()");
        process::run_supervised(&self.manifest, worker, dir, self.shards)
    }

    /// Check a supervised run's outputs (after its clock or span has
    /// stopped) and count its work. The published artifacts must equal
    /// the ones the merged report composes to, byte for byte.
    fn supervised_rep(
        &self,
        p: &Prepared<FleetPlan>,
        sup: Result<process::Supervised, String>,
        dir: PathBuf,
        checks: &Checks,
    ) -> Result<(Rep, String), String> {
        let published = sup.and_then(|sup| {
            let published =
                process::published_artifacts(&dir, sup.report.cells.len(), self.shards)?;
            Ok((sup, published))
        });
        let (sup, published) = match published {
            Ok(ok) => ok,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&dir);
                return Err(e);
            }
        };
        checks.check(sup.run.resumed == 0, || {
            format!("{} shards resumed from stale artifacts", sup.run.resumed)
        });
        let composed: Vec<String> =
            campaign::artifacts::<FleetPlan>(p.fingerprint, self.shards, &sup.report)
                .into_iter()
                .map(|a| a.text)
                .collect();
        checks.check(published == composed, || {
            "published artifacts differ from the composed ones".into()
        });
        let bytes = published.iter().map(String::len).sum();
        let mut rep = self.fleet_rep(p, &sup.report, bytes, checks);
        rep.supervisor = [
            sup.run.attempts as u64,
            sup.run.retries as u64,
            sup.run.timeouts as u64,
            sup.run.resumed as u64,
        ];
        rep.artifacts = Some(dir);
        Ok((rep, sup.report.to_text()))
    }

    /// The same plan through `run_campaign` in-process (`fleet_process`
    /// only): the baseline of `process.overhead_s`.
    pub fn run_in_process(&self) -> Result<f64, String> {
        match &self.plans {
            Plans::Fleet(Some(p)) => {
                let t = Instant::now();
                self.in_process(p)?;
                Ok(t.elapsed().as_secs_f64())
            }
            _ => Err("only fleet_process has an in-process twin".into()),
        }
    }

    fn in_process(
        &self,
        p: &Prepared<FleetPlan>,
    ) -> Result<CampaignReport<FleetCellResult>, String> {
        run_campaign(&p.plan, &InProcessBackend::default(), self.shards).map_err(|e| e.to_string())
    }

    /// One traced repetition: the same outputs, computed from the layers'
    /// public functions under spans.
    pub fn run_traced(&self, tracer: &Tracer, checks: &Checks) -> Result<Rep, String> {
        match &self.plans {
            Plans::Paper => {
                let p = paper::run(self.seed, Some(tracer));
                Ok(self.paper_rep(&p, checks))
            }
            Plans::Demand(Some(p)) => {
                let (report, bytes) = campaign::run_traced(tracer, p, self.shards, |sid, spec| {
                    campaign::run_campaign_cells(tracer, sid, &p.plan, spec)
                })?;
                Ok(self.demand_rep(p, &report, bytes, checks))
            }
            Plans::Fleet(Some(p)) => {
                let dir = self.fresh_artifact_dir();
                let sup = tracer.span("process.run_supervised", None, 0, |_| self.supervise(&dir));
                let (rep, supervised_text) = self.supervised_rep(p, sup, dir, checks)?;
                let (report, bytes) = campaign::run_traced(tracer, p, self.shards, |sid, spec| {
                    fleet::run_cells(tracer, sid, &p.plan, spec, checks)
                })?;
                checks.check(report.to_text() == supervised_text, || {
                    "traced in-process fleet report differs from the supervised one".into()
                });
                checks.check(bytes as u64 == rep.counters.artifact_bytes, || {
                    "traced artifacts differ in size from the supervised ones".into()
                });
                Ok(rep)
            }
            _ => Err("workload run before set-up".into()),
        }
    }

    /// Policy family of the cell a `replay.*` span served (`op` is the
    /// cell index), for the per-policy split.
    pub fn family(&self, op: u64) -> Option<&'static str> {
        match &self.plans {
            Plans::Demand(Some(p)) => p
                .plan
                .cells
                .get(op as usize)
                .map(|c| replay::family(&c.scenario.policy)),
            Plans::Paper => Some(replay::family(
                &greener_core::scenario::Scenario::two_year_baseline(self.seed).policy,
            )),
            _ => None,
        }
    }

    /// Profile every distinct replay once through `run_profiled` (never
    /// inside a timed repetition: the profiler costs several times the
    /// replay it attributes). `fleet_process` replays inside
    /// `FleetDriver::run_observed` and is not profiled.
    pub fn profile(&self) -> replay::ProfileTotals {
        use greener_core::driver::World;
        use greener_core::Observe;
        let mut totals = replay::ProfileTotals::default();
        match &self.plans {
            Plans::Demand(Some(p)) => {
                let mut worlds: std::collections::HashMap<String, World> = Default::default();
                for cell in &p.plan.cells {
                    let world = worlds
                        .entry(cell.scenario.world_inputs_key())
                        .or_insert_with(|| World::build(&cell.scenario));
                    totals.add(&cell.scenario, world, Observe::aggregates());
                }
            }
            Plans::Paper => {
                let scenario = greener_core::scenario::Scenario::two_year_baseline(self.seed);
                let world = World::build(&scenario);
                // What `SimDriver::run` retains.
                let observe = Observe::aggregates()
                    .with_telemetry()
                    .with_ledger()
                    .with_job_records();
                totals.add(&scenario, &world, observe);
            }
            _ => {}
        }
        totals
    }

    fn paper_rep(&self, p: &paper::Paper, checks: &Checks) -> Rep {
        check_jobs(checks, "paper flagship", &p.flagship_jobs);
        Rep {
            digest: digest(&p.text),
            counters: Counters {
                cells: 1,
                worlds_built: 1,
                trace_jobs: p.flagship_jobs.submitted as u64,
                completed_jobs: p.flagship_jobs.completed as u64,
                ..Counters::default()
            },
            ..Rep::default()
        }
    }

    fn demand_rep(
        &self,
        p: &Prepared<CampaignPlan>,
        report: &CampaignReport,
        artifact_bytes: usize,
        checks: &Checks,
    ) -> Rep {
        for c in &report.cells {
            check_cell(checks, &c.id, &c.jobs, &c.aggregates, 0);
        }
        let keys: Vec<String> = p
            .plan
            .cells
            .iter()
            .map(|c| c.scenario.world_inputs_key())
            .collect();
        let lens: Vec<u64> = report
            .cells
            .iter()
            .map(|c| c.jobs.submitted as u64)
            .collect();
        let (worlds_built, trace_jobs) = campaign::world_counts(&keys, &lens, self.shards);
        Rep {
            digest: digest(&report.to_text()),
            counters: Counters {
                cells: report.cells.len() as u64,
                worlds_built,
                trace_jobs,
                completed_jobs: report.cells.iter().map(|c| c.jobs.completed as u64).sum(),
                artifact_bytes: artifact_bytes as u64,
                ..Counters::default()
            },
            ..Rep::default()
        }
    }

    fn fleet_rep(
        &self,
        p: &Prepared<FleetPlan>,
        report: &CampaignReport<FleetCellResult>,
        artifact_bytes: usize,
        checks: &Checks,
    ) -> Rep {
        for c in &report.cells {
            check_cell(checks, c.id(), &c.jobs, &c.totals, c.truncated_jobs);
        }
        let keys: Vec<String> = p
            .plan
            .cells
            .iter()
            .map(|c| c.fleet.world_inputs_key())
            .collect();
        let lens: Vec<u64> = report.cells.iter().map(|c| c.routed_jobs as u64).collect();
        let (worlds_built, trace_jobs) = campaign::world_counts(&keys, &lens, self.shards);
        Rep {
            digest: digest(&report.to_text()),
            counters: Counters {
                cells: report.cells.len() as u64,
                worlds_built,
                trace_jobs,
                completed_jobs: report.cells.iter().map(|c| c.jobs.completed as u64).sum(),
                artifact_bytes: artifact_bytes as u64,
                routed_jobs: report.cells.iter().map(|c| c.routed_jobs as u64).sum(),
                truncated_jobs: report.cells.iter().map(|c| c.truncated_jobs as u64).sum(),
            },
            ..Rep::default()
        }
    }

    /// The span that builds one world in this workload's traced run.
    pub fn world_span(&self) -> &'static str {
        match self.plans {
            Plans::Fleet(_) => "fleet.world",
            _ => "worldgen.build",
        }
    }

    pub fn is_fleet(&self) -> bool {
        matches!(self.plans, Plans::Fleet(_))
    }
}

fn artifact_bytes<P: Plan>(
    p: &Prepared<P>,
    shards: usize,
    report: &CampaignReport<P::Record>,
) -> usize {
    campaign::artifacts::<P>(p.fingerprint, shards, report)
        .iter()
        .map(|a| a.text.len())
        .sum()
}

/// Job conservation: every submitted job completed or is still pending.
fn check_jobs(checks: &Checks, id: &str, jobs: &JobStats) {
    checks.check(jobs.submitted == jobs.completed + jobs.unfinished, || {
        format!(
            "{id}: submitted {} != completed {} + unfinished {}",
            jobs.submitted, jobs.completed, jobs.unfinished
        )
    });
}

/// The per-cell invariants: job conservation, total energy ≥ IT energy,
/// finite non-negative totals, and no gang truncated by routing.
fn check_cell(
    checks: &Checks,
    id: &str,
    jobs: &JobStats,
    totals: &RunAggregates,
    truncated: usize,
) {
    check_jobs(checks, id, jobs);
    checks.check(totals.energy_kwh >= totals.it_energy_kwh, || {
        format!(
            "{id}: energy {} kWh < IT energy {} kWh",
            totals.energy_kwh, totals.it_energy_kwh
        )
    });
    let named = [
        ("energy_kwh", totals.energy_kwh),
        ("it_energy_kwh", totals.it_energy_kwh),
        ("carbon_kg", totals.carbon_kg),
        ("cost_usd", totals.cost_usd),
        ("water_l", totals.water_l),
        ("peak_power_kw", totals.peak_power_kw),
        ("gpu_hours_completed", jobs.gpu_hours_completed),
    ];
    for (name, v) in named {
        checks.check(v.is_finite() && v >= 0.0, || format!("{id}: {name} = {v}"));
    }
    checks.check(truncated == 0, || {
        format!("{id}: {truncated} truncated jobs")
    });
}
