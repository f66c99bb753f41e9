//! The repository benchmark: three workloads, end-to-end metrics from
//! untraced repetitions, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <paper|demand_sweep|fleet_process> [--seed <n>]
//!           [--seconds <n>] [--trace <0|1>] [--worker <perfjson>] [--out <dir>]
//! ```
//!
//! `perfbench/run.py` builds this binary and `perfjson` and runs it; see
//! `perfbench/README.md` for the workloads, the metrics and what each
//! layer metric is predicted to move.

mod campaign;
mod fleet;
mod paper;
mod process;
mod replay;
mod report;
mod trace;
mod workloads;
mod worldgen;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use greener_core::profile::ProfilePhase;

use campaign::SetupTimes;
use report::{median, peak_rss_mb, quantile, Json};
use trace::{attribute, covered_s, Attribution, Span, Tracer};
use workloads::{Counters, Rep, Workload};

/// Set-up passes per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. Every workload reports
/// every one; a layer a workload does not reach reports 0.
const PER_LAYER: [(&str, &str); 84] = [
    ("worldgen.environment_s", "s"),
    ("worldgen.trace_s", "s"),
    ("worldgen.build_s", "s"),
    ("worldgen.worlds_built", "count"),
    ("worldgen.trace_jobs", "count"),
    ("replay.cell_s.p50", "s"),
    ("replay.cell_s.p75", "s"),
    ("replay.cell_s.samples", "count"),
    ("replay.completed_jobs", "count"),
    ("replay.ns_per_event", "ns"),
    ("replay.events", "count"),
    ("replay.dispatch_calls", "count"),
    ("replay.fast_dispatches", "count"),
    ("replay.backfill_visits", "count"),
    ("replay.signal_build_s", "s"),
    ("replay.policy_dispatch_s", "s"),
    ("replay.decision_apply_s", "s"),
    ("replay.tick_cooling_s", "s"),
    ("replay.unattributed_s", "s"),
    ("replay.profiled_s", "s"),
    ("replay.unprofiled_s", "s"),
    ("replay.profiler_overhead_ratio", "ratio"),
    ("replay.policy.fcfs.cell_s", "s"),
    ("replay.policy.sjf.cell_s", "s"),
    ("replay.policy.easy.cell_s", "s"),
    ("replay.policy.cap.cell_s", "s"),
    ("replay.policy.carbon.cell_s", "s"),
    ("replay.policy.temp.cell_s", "s"),
    ("replay.policy.green_queues.cell_s", "s"),
    ("replay.policy.carbon_temp.cell_s", "s"),
    ("replay.policy.fcfs.dispatch_s", "s"),
    ("replay.policy.sjf.dispatch_s", "s"),
    ("replay.policy.easy.dispatch_s", "s"),
    ("replay.policy.cap.dispatch_s", "s"),
    ("replay.policy.carbon.dispatch_s", "s"),
    ("replay.policy.temp.dispatch_s", "s"),
    ("replay.policy.green_queues.dispatch_s", "s"),
    ("replay.policy.carbon_temp.dispatch_s", "s"),
    ("campaign.parse_s", "s"),
    ("campaign.expand_s", "s"),
    ("campaign.fingerprint_s", "s"),
    ("campaign.run_cells_s", "s"),
    ("campaign.slowest_shard_s", "s"),
    ("campaign.compose_s", "s"),
    ("campaign.merge_s", "s"),
    ("campaign.cells", "count"),
    ("campaign.artifact_bytes", "bytes"),
    ("campaign.world_reuse_ratio", "ratio"),
    ("campaign.shard_imbalance", "ratio"),
    ("process.supervised_s", "s"),
    ("process.inprocess_s", "s"),
    ("process.overhead_s", "s"),
    ("process.attempts", "count"),
    ("process.retries", "count"),
    ("process.timeouts", "count"),
    ("process.resumed", "count"),
    ("fleet.world_s", "s"),
    ("fleet.route_s", "s"),
    ("fleet.replay_rollup_s", "s"),
    ("fleet.routed_jobs", "count"),
    ("fleet.truncated_jobs", "count"),
    ("paper.flagship_s", "s"),
    ("paper.figures_s", "s"),
    ("paper.e6_s", "s"),
    ("paper.e7_s", "s"),
    ("paper.e8_s", "s"),
    ("paper.e9_s", "s"),
    ("paper.e10_s", "s"),
    ("paper.e11_s", "s"),
    ("paper.e12_s", "s"),
    ("paper.e13_s", "s"),
    ("paper.e14_s", "s"),
    ("paper.e15_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.worldgen.self_s", "s"),
    ("trace.replay.self_s", "s"),
    ("trace.campaign.self_s", "s"),
    ("trace.process.self_s", "s"),
    ("trace.fleet.self_s", "s"),
    ("trace.paper.self_s", "s"),
];

/// The layers (span-name prefixes) and their traced self-time metrics.
const LAYERS: [(&str, &str); 6] = [
    ("worldgen", "trace.worldgen.self_s"),
    ("replay", "trace.replay.self_s"),
    ("campaign", "trace.campaign.self_s"),
    ("process", "trace.process.self_s"),
    ("fleet", "trace.fleet.self_s"),
    ("paper", "trace.paper.self_s"),
];

/// Correctness checks: every check attempted, every failure kept with its
/// reason. Shared across shard threads.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: AtomicU64,
    failed: AtomicU64,
    failures: Mutex<Vec<String>>,
}

impl Checks {
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.failures.lock().expect("a check panicked").push(msg);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    worker: Option<PathBuf>,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <paper|demand_sweep|fleet_process> \
    [--seed <n>] [--seconds <n>] [--trace <0|1>] [--worker <perfjson>] [--out <dir>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: greener_bench::seeds::WORLD,
        seconds: 10,
        trace: false,
        worker: None,
        out: PathBuf::from(".perfbench"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--worker" => args.worker = Some(PathBuf::from(value()?)),
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match run(&args, started) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Everything one traced repetition measured.
struct TracedRep {
    layers: BTreeMap<&'static str, f64>,
    spans: Vec<Span>,
}

fn run(args: &Args, started: Instant) -> Result<bool, String> {
    // Hermetic: no fault injection, and threads and shards pinned to the
    // host's cores whatever the caller's environment says. Set before any
    // thread starts.
    std::env::remove_var("GREENER_FAULT");
    std::env::remove_var("GREENER_WORKER_ATTEMPT");
    let shards = report::nproc();
    std::env::set_var("RAYON_NUM_THREADS", shards.to_string());

    let work_dir = args.out.join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    let mut wl = Workload::new(
        &args.workload,
        args.seed,
        shards,
        args.worker.clone(),
        work_dir.clone(),
    )?;
    let checks = Checks::default();
    let outcome = measure(&mut wl, args, started, &checks);
    let _ = std::fs::remove_dir_all(&work_dir);
    let (metrics, detail) = outcome?;

    let attempted = checks.attempted.load(Ordering::Relaxed);
    let failed = checks.failed.load(Ordering::Relaxed);
    let correct = failed == 0;
    let host = report::host_block(args.seed, shards);
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metric_json = Vec::new();
    for (name, unit) in names {
        let value = *metrics
            .get(name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        metric_json.push((
            name.to_string(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        ));
    }
    let failures = checks.failures.lock().expect("a check panicked").clone();
    let result = Json::obj([
        ("workload", Json::Str(wl.name.into())),
        ("trace", Json::Bool(args.trace)),
        ("host", host.clone()),
        (
            "error_rate",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Arr(failures.into_iter().map(Json::Str).collect()),
        ),
        ("metrics", Json::Obj(metric_json.clone())),
        ("detail", detail),
    ]);
    let results = args.out.join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("create {}: {e}", results.display()))?;
    let path = results.join(format!(
        "{}-seed{}-trace{}.json",
        wl.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, result.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("host {}", host.render());
    println!(
        "error_rate {} ({failed} of {attempted} checks failed); full result in {}",
        failed as f64 / attempted.max(1) as f64,
        path.display()
    );
    let last = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metric_json)),
    ]);
    println!("{}", last.render());
    Ok(correct)
}

/// Set up, run the timed (or traced) repetitions, and compute the
/// metrics plus a detail block for the results file.
fn measure(
    wl: &mut Workload,
    args: &Args,
    started: Instant,
    checks: &Checks,
) -> Result<(BTreeMap<&'static str, f64>, Json), String> {
    let mut setups = Vec::new();
    let mut setup_times = Vec::new();
    let mut first: Option<Rep> = None;
    // Every repetition must reproduce the first one's output digest and
    // work counters exactly.
    let mut same_as_first = |rep: &Rep, what: &str| match &first {
        None => first = Some(rep.clone()),
        Some(f) => {
            checks.check(rep.digest == f.digest, || {
                format!(
                    "{what}: output digest {:016x} != {:016x}",
                    rep.digest, f.digest
                )
            });
            checks.check(rep.counters == f.counters, || {
                format!("{what}: counters {:?} != {:?}", rep.counters, f.counters)
            });
        }
    };
    let mut peak_rss = 0.0;
    for i in 0..SETUPS {
        let t = if i == 0 { started } else { Instant::now() };
        let (times, rep, text) = wl.setup(checks)?;
        setups.push(t.elapsed().as_secs_f64());
        if i == 0 {
            // The peak of a process that ran the workload once, as a user
            // running it sees. Later passes raise the high-water mark a
            // little more each time (allocator arenas of short-lived
            // threads), so a later reading would depend on the pass count.
            peak_rss = peak_rss_mb();
            // Once is enough: later passes must reproduce the digest.
            wl.check_in_process(&text, checks)?;
        }
        setup_times.push(times);
        remove_artifacts(&rep);
        same_as_first(&rep, "set-up warm-up");
    }
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("setup_s", median(&setups));
    m.insert("peak_rss_mb", peak_rss);
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setup_times.iter().map(f).collect::<Vec<_>>());
    m.insert("campaign.parse_s", setup_median(|t| t.parse_s));
    m.insert("campaign.expand_s", setup_median(|t| t.expand_s));
    m.insert("campaign.fingerprint_s", setup_median(|t| t.fingerprint_s));

    let budget = Duration::from_secs(args.seconds);
    let clock = Instant::now();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut in_process = Vec::new();
    let mut traced: Vec<TracedRep> = Vec::new();
    let mut last = Rep::default();
    while walls.is_empty() || (args.trace && traced.is_empty()) || clock.elapsed() < budget {
        let rep = wl.run(checks)?;
        walls.push(rep.wall_s);
        cpus.push(rep.cpu_s);
        remove_artifacts(&rep);
        same_as_first(&rep, "repetition");
        last = rep;
        if args.trace {
            if wl.is_fleet() {
                in_process.push(wl.run_in_process()?);
            }
            let tracer = Tracer::new();
            let t0 = tracer.now();
            let rep = wl.run_traced(&tracer, checks)?;
            let t1 = tracer.now();
            remove_artifacts(&rep);
            same_as_first(&rep, "traced repetition");
            let spans = tracer.into_spans();
            let attr = attribute(&spans, t0, t1);
            check_ledger(checks, &spans, &attr, t0, t1);
            // The traced rebuild of `run_cells` must build as many worlds
            // as the counter, which models the per-shard world cache.
            let worlds = spans.iter().filter(|s| s.name == wl.world_span()).count() as u64;
            checks.check(worlds == rep.counters.worlds_built, || {
                format!(
                    "traced run built {worlds} worlds, counters say {}",
                    rep.counters.worlds_built
                )
            });
            traced.push(TracedRep {
                layers: span_metrics(wl, &spans, &attr),
                spans,
            });
        }
    }

    let c = &last.counters;
    let completed = c.completed_jobs as f64;
    let wall = median(&walls);
    m.insert("wall_s", wall);
    m.insert("cpu_s", cpus.iter().sum::<f64>() / cpus.len() as f64);
    m.insert("sim_jobs_per_s", completed / wall);

    let mut detail = vec![
        ("setup_runs_s", nums(&setups)),
        ("wall_runs_s", nums(&walls)),
        ("cpu_runs_s", nums(&cpus)),
        ("digest", Json::Str(format!("{:016x}", last.digest))),
        ("counters", counters_json(c)),
    ];

    if args.trace {
        for (name, _) in PER_LAYER {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|t| t.layers.get(name).copied())
                .collect();
            if !values.is_empty() {
                m.insert(name, median(&values));
            }
        }
        m.insert("worldgen.worlds_built", c.worlds_built as f64);
        m.insert("worldgen.trace_jobs", c.trace_jobs as f64);
        m.insert("replay.completed_jobs", completed);
        m.insert("campaign.cells", c.cells as f64);
        m.insert("campaign.artifact_bytes", c.artifact_bytes as f64);
        m.insert(
            "campaign.world_reuse_ratio",
            c.cells as f64 / c.worlds_built.max(1) as f64,
        );
        m.insert("fleet.routed_jobs", c.routed_jobs as f64);
        m.insert("fleet.truncated_jobs", c.truncated_jobs as f64);

        let (supervised, inprocess) = if wl.is_fleet() {
            (wall, median(&in_process))
        } else {
            (0.0, 0.0)
        };
        m.insert("process.supervised_s", supervised);
        m.insert("process.inprocess_s", inprocess);
        m.insert("process.overhead_s", supervised - inprocess);
        for (i, name) in [
            "process.attempts",
            "process.retries",
            "process.timeouts",
            "process.resumed",
        ]
        .into_iter()
        .enumerate()
        {
            m.insert(name, last.supervisor[i] as f64);
        }
        let untraced = wall + inprocess;
        let traced_wall = m["trace.wall_s"];
        m.insert("trace.untraced_wall_s", untraced);
        m.insert("trace.overhead_ratio", traced_wall / untraced);

        let prof = wl.profile();
        checks.check(prof.mismatches == 0, || {
            format!(
                "{} profiled replays differ from unprofiled ones",
                prof.mismatches
            )
        });
        profile_metrics(&mut m, &prof);
        println!(
            "replay phases ({} profiled cells): largest is {}",
            prof.cells,
            prof.largest_phase()
        );
        if let Some(t) = traced.last() {
            detail.push(("spans", spans_json(&t.spans)));
        }
        detail.push(("traced_reps", Json::Num(traced.len() as f64)));
        detail.push((
            "largest_replay_phase",
            Json::Str(prof.largest_phase().into()),
        ));
        detail.push(("in_process_runs_s", nums(&in_process)));
    }
    Ok((m, Json::obj(detail)))
}

fn remove_artifacts(rep: &Rep) {
    if let Some(dir) = &rep.artifacts {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The traced ledger must add up: the layers' self times plus the
/// remainder equal the traced wall time. The remainder is computed here
/// apart from the attribution, as the traced wall minus the union of the
/// top-level spans, so the check fails when a span escapes its top-level
/// span, a layer is missing from `LAYERS`, or the attribution loses time.
fn check_ledger(checks: &Checks, spans: &[Span], attr: &Attribution, t0: f64, t1: f64) {
    let layers: f64 = LAYERS.iter().map(|(l, _)| attr.layer_self(spans, l)).sum();
    let top = spans.iter().filter(|s| s.parent.is_none());
    let unattributed = (t1 - t0) - covered_s(top, t0, t1);
    checks.check(
        (layers + unattributed - (t1 - t0)).abs() <= 1e-9 * (t1 - t0).max(1.0),
        || {
            format!(
                "traced ledger does not add up: layers {layers} + unattributed {unattributed} \
                 != wall {} (attribution's unattributed {})",
                t1 - t0,
                attr.unattributed_s
            )
        },
    );
}

/// Per-layer metrics of one traced repetition, from its spans.
fn span_metrics(wl: &Workload, spans: &[Span], attr: &Attribution) -> BTreeMap<&'static str, f64> {
    let dur = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    };
    let mut m = BTreeMap::new();
    m.insert("worldgen.environment_s", dur("worldgen.environment"));
    m.insert("worldgen.trace_s", dur("worldgen.build_trace"));
    m.insert("worldgen.build_s", dur("worldgen.build"));

    let cells: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "replay.run_observed" || s.name == "replay.run_with_world")
        .collect();
    let cell_s: Vec<f64> = cells.iter().map(|s| s.duration()).collect();
    let q = |p: f64| {
        if cell_s.is_empty() {
            0.0
        } else {
            quantile(&cell_s, p)
        }
    };
    m.insert("replay.cell_s.p50", q(0.5));
    m.insert("replay.cell_s.p75", q(0.75));
    m.insert("replay.cell_s.samples", cell_s.len() as f64);
    let mut by_family: BTreeMap<&str, f64> = replay::FAMILIES.iter().map(|f| (*f, 0.0)).collect();
    for s in &cells {
        if let Some(f) = wl.family(s.op) {
            *by_family.entry(f).or_default() += s.duration();
        }
    }
    for (name, _) in PER_LAYER {
        if let Some(f) = name
            .strip_prefix("replay.policy.")
            .and_then(|r| r.strip_suffix(".cell_s"))
        {
            m.insert(name, by_family[f]);
        }
    }

    let shards: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "campaign.run_cells")
        .map(Span::duration)
        .collect();
    let slowest = shards.iter().copied().fold(0.0, f64::max);
    let total: f64 = shards.iter().sum();
    m.insert("campaign.run_cells_s", total);
    m.insert("campaign.slowest_shard_s", slowest);
    m.insert(
        "campaign.shard_imbalance",
        if total > 0.0 {
            slowest / (total / shards.len() as f64)
        } else {
            0.0
        },
    );
    m.insert("campaign.compose_s", dur("campaign.compose"));
    m.insert("campaign.merge_s", dur("campaign.merge"));

    let route = dur("fleet.route");
    m.insert("fleet.world_s", dur("fleet.world"));
    m.insert("fleet.route_s", route);
    m.insert("fleet.replay_rollup_s", dur("fleet.run_observed") - route);

    m.insert("paper.flagship_s", dur("paper.flagship"));
    m.insert("paper.figures_s", dur("paper.fig1") + dur("paper.figures"));
    for (span, metric) in paper::EXPERIMENTS {
        m.insert(metric, dur(span));
    }

    m.insert("trace.wall_s", attr.wall_s);
    m.insert("trace.unattributed_s", attr.unattributed_s);
    m.insert("trace.spans", spans.len() as f64);
    for (layer, metric) in LAYERS {
        m.insert(metric, attr.layer_self(spans, layer));
    }
    m
}

fn profile_metrics(m: &mut BTreeMap<&'static str, f64>, p: &replay::ProfileTotals) {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.insert(
        "replay.ns_per_event",
        ratio(p.unprofiled_s * 1e9, p.events as f64),
    );
    m.insert("replay.events", p.events as f64);
    m.insert("replay.dispatch_calls", p.dispatch_calls as f64);
    m.insert("replay.fast_dispatches", p.fast_dispatches as f64);
    m.insert("replay.backfill_visits", p.backfill_visits as f64);
    m.insert(
        "replay.signal_build_s",
        p.phase_s(ProfilePhase::SignalBuild),
    );
    m.insert(
        "replay.policy_dispatch_s",
        p.phase_s(ProfilePhase::PolicyDispatch),
    );
    m.insert(
        "replay.decision_apply_s",
        p.phase_s(ProfilePhase::DecisionApply),
    );
    m.insert(
        "replay.tick_cooling_s",
        p.phase_s(ProfilePhase::TickCooling),
    );
    m.insert("replay.unattributed_s", p.unattributed_s);
    m.insert("replay.profiled_s", p.profiled_s);
    m.insert("replay.unprofiled_s", p.unprofiled_s);
    m.insert(
        "replay.profiler_overhead_ratio",
        ratio(p.profiled_s, p.unprofiled_s),
    );
    for (name, _) in PER_LAYER {
        if let Some(f) = name
            .strip_prefix("replay.policy.")
            .and_then(|r| r.strip_suffix(".dispatch_s"))
        {
            m.insert(name, p.dispatch_by_family.get(f).copied().unwrap_or(0.0));
        }
    }
}

fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

fn counters_json(c: &Counters) -> Json {
    Json::obj(c.pairs().map(|(k, v)| (k, Json::Num(v as f64))))
}

fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent
                            .map_or(Json::Num(f64::NAN), |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::Str(s.name.into())),
                    ("op", Json::Num(s.op as f64)),
                    ("start", Json::Num(s.start)),
                    ("end", Json::Num(s.end)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units printed must be the ones
    /// `BENCHMARK.json` declares, in both lists.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = spec.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn per_layer_names_are_unique_and_cover_every_family() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for f in replay::FAMILIES {
            assert!(names.contains(&format!("replay.policy.{f}.dispatch_s").as_str()));
        }
        for (_, metric) in paper::EXPERIMENTS {
            assert!(names.contains(&metric));
        }
        for (_, metric) in LAYERS {
            assert!(names.contains(&metric));
        }
    }
}
