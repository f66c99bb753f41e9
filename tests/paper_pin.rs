//! Whole-paper pin: every figure, table and ablation `repro` prints,
//! computed at `repro`'s scales on `seeds::WORLD`, digested as one text.
//!
//! The driver's golden table and `tests/deep_queue.rs` pin short `quick`
//! worlds. This pin covers what users actually run — the flagship two-year
//! world behind Figs. 2–5 and the 1/10-scale ablations — so engine work
//! can delete or rewrite code and prove that no published number moved.
//! The text is the `{:?}` rendering of each result (every float as its
//! shortest exact round-trip), one labelled line per experiment, in
//! `repro`'s order; it is byte-for-byte the output the `paper` benchmark
//! workload digests.
//!
//! World generation flows through `ln`/`sin`/`cos`, whose last bit is
//! platform- and toolchain-dependent, so the digest comparison only runs
//! on the platform it was captured on (x86-64 Linux); the flagship's job
//! accounting is asserted everywhere. To re-capture after an intentional
//! behaviour change, run
//! `cargo test --release --test paper_pin print_paper_digest -- --ignored --nocapture`
//! and replace the constant.

use std::fmt::Write as _;

use greener_world::core::ablations::*;
use greener_world::core::driver::{JobStats, SimDriver};
use greener_world::core::experiments::*;
use greener_world::core::scenario::Scenario;
use greener_world::simkit::calendar::CalDate;
use greener_world::simkit::rng::fnv1a;
use greener_world::workload::ConferenceCalendar;

use greener_bench::seeds;

/// FNV-1a of the whole-paper text at `seeds::WORLD`.
const PAPER_DIGEST: u64 = 0x867a39fc72a17076;

/// The whole paper as text, plus the flagship run's job statistics.
fn paper() -> (String, JobStats) {
    let mut text = String::new();
    let mut put = |label: &str, value: &dyn std::fmt::Debug| {
        writeln!(text, "{label} {value:?}").expect("writing to a String");
    };
    put("fig1", &fig1());

    let flagship = SimDriver::run(&Scenario::two_year_baseline(seeds::WORLD));
    put(
        "figures",
        &(
            fig2(&flagship),
            fig3(&flagship),
            fig4(&flagship),
            fig5(&flagship, &ConferenceCalendar::table_i()),
            table1(),
        ),
    );

    let small = Scenario::two_year_small(seeds::WORLD);
    let quarter = small.clone().with_horizon_days(91);
    let summer_month = {
        let mut s = small.clone().with_horizon_days(31);
        s.start = CalDate::new(2020, 7, 1);
        s
    };
    let year = small.clone().with_horizon_days(366);

    put("e6", &e6_purchasing(&quarter));
    let e7 = e7_powercaps(
        &small.clone().with_horizon_days(45),
        &[100.0, 125.0, 150.0, 175.0, 200.0, 225.0, 250.0],
    );
    let optimal = e7_optimal_cap(&e7);
    put("e7", &(e7, optimal));
    put("e8", &e8_mechanism(seeds::MECHANISM));
    put("e9", &e9_adverse_selection(seeds::MECHANISM));
    put("e10", &e10_stress(&summer_month));
    put("e11", &e11_forecast(&quarter));
    put("e12", &e12_restructure(&year));
    put("e13", &e13_inference(768, 64));
    put("e15", &e15_redundancy());
    put("e14", &e14_variance(1.0e6));
    (text, flagship.jobs)
}

#[test]
fn whole_paper_matches_pinned_digest() {
    let (text, jobs) = paper();
    assert_eq!(text.lines().count(), 12, "one line per experiment");
    assert_eq!(jobs.submitted, jobs.completed + jobs.unfinished);
    assert!(
        jobs.submitted > 300_000,
        "flagship submitted {}",
        jobs.submitted
    );
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert_eq!(
            fnv1a(text.as_bytes()),
            PAPER_DIGEST,
            "the paper's numbers moved"
        );
    }
}

/// Recapture helper for [`PAPER_DIGEST`].
#[test]
#[ignore = "digest recapture helper, run with --ignored --nocapture"]
fn print_paper_digest() {
    let (text, _) = paper();
    print!("{text}");
    println!("digest {:#018x}", fnv1a(text.as_bytes()));
}
