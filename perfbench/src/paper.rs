//! `paper` layer: `core::experiments` (`fig1`–`fig5`, `table1`) and
//! `core::ablations` (`e6_*`–`e15_*`), at the scales `repro` runs them.

use std::fmt::Write as _;

use greener_core::ablations::*;
use greener_core::driver::{JobStats, SimDriver};
use greener_core::experiments::*;
use greener_core::scenario::Scenario;
use greener_simkit::calendar::CalDate;
use greener_workload::ConferenceCalendar;

use crate::trace::{SpanId, Tracer};
use crate::{replay, worldgen};

/// Everything `repro` prints, rendered byte-stably (`{:?}` of every
/// result, which prints each float as its shortest exact round-trip).
pub struct Paper {
    pub text: String,
    /// The flagship run's job statistics.
    pub flagship_jobs: JobStats,
}

/// Run a step inside a span when tracing, bare otherwise.
fn step<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce(Option<SpanId>) -> R) -> R {
    match tracer {
        Some(t) => t.span(name, None, 0, |id| f(Some(id))),
        None => f(None),
    }
}

/// Compute the whole paper for world seed `seed`, in `repro`'s order.
/// With a tracer, every experiment gets a top-level `paper.*` span and
/// the flagship world's build and replay get `worldgen`/`replay` spans.
pub fn run(seed: u64, tracer: Option<&Tracer>) -> Paper {
    let mut text = String::new();
    let mut put = |label: &str, value: &dyn std::fmt::Debug| {
        let _ = writeln!(text, "{label} {value:?}");
    };
    put("fig1", &step(tracer, "paper.fig1", |_| fig1()));

    let scenario = Scenario::two_year_baseline(seed);
    let flagship = step(tracer, "paper.flagship", |id| match tracer {
        Some(t) => {
            let world = worldgen::build(t, id, 0, &scenario);
            replay::run_with_world(t, id, 0, &scenario, &world)
        }
        None => SimDriver::run(&scenario),
    });
    let figures = step(tracer, "paper.figures", |_| {
        (
            fig2(&flagship),
            fig3(&flagship),
            fig4(&flagship),
            fig5(&flagship, &ConferenceCalendar::table_i()),
            table1(),
        )
    });
    put("figures", &figures);

    let small = Scenario::two_year_small(seed);
    let quarter = small.clone().with_horizon_days(91);
    let summer_month = {
        let mut s = small.clone().with_horizon_days(31);
        s.start = CalDate::new(2020, 7, 1);
        s
    };
    let year = small.clone().with_horizon_days(366);
    let mechanism_seed = greener_bench::seeds::MECHANISM;

    put("e6", &step(tracer, "paper.e6", |_| e6_purchasing(&quarter)));
    let e7 = step(tracer, "paper.e7", |_| {
        let rows = e7_powercaps(
            &small.clone().with_horizon_days(45),
            &[100.0, 125.0, 150.0, 175.0, 200.0, 225.0, 250.0],
        );
        let optimal = e7_optimal_cap(&rows);
        (rows, optimal)
    });
    put("e7", &e7);
    put(
        "e8",
        &step(tracer, "paper.e8", |_| e8_mechanism(mechanism_seed)),
    );
    put(
        "e9",
        &step(tracer, "paper.e9", |_| e9_adverse_selection(mechanism_seed)),
    );
    put(
        "e10",
        &step(tracer, "paper.e10", |_| e10_stress(&summer_month)),
    );
    put(
        "e11",
        &step(tracer, "paper.e11", |_| e11_forecast(&quarter)),
    );
    put(
        "e12",
        &step(tracer, "paper.e12", |_| e12_restructure(&year)),
    );
    put(
        "e13",
        &step(tracer, "paper.e13", |_| e13_inference(768, 64)),
    );
    put("e15", &step(tracer, "paper.e15", |_| e15_redundancy()));
    put("e14", &step(tracer, "paper.e14", |_| e14_variance(1.0e6)));
    Paper {
        text,
        flagship_jobs: flagship.jobs,
    }
}

/// The ablation spans and their metrics.
pub const EXPERIMENTS: [(&str, &str); 10] = [
    ("paper.e6", "paper.e6_s"),
    ("paper.e7", "paper.e7_s"),
    ("paper.e8", "paper.e8_s"),
    ("paper.e9", "paper.e9_s"),
    ("paper.e10", "paper.e10_s"),
    ("paper.e11", "paper.e11_s"),
    ("paper.e12", "paper.e12_s"),
    ("paper.e13", "paper.e13_s"),
    ("paper.e14", "paper.e14_s"),
    ("paper.e15", "paper.e15_s"),
];
