//! Golden pins for the queue-deep policies: SJF, green queues and the
//! carbon gate, on worlds whose waiting queue runs hundreds of jobs deep.
//!
//! The driver's own golden table covers FCFS, EASY, static caps and the
//! carbon gate on shallow `quick:14` queues, where a dispatch sees a
//! handful of jobs. These rows pin the policies whose dispatch walks the
//! whole queue, on the two saturated worlds the benchmarks use: `quick:14`
//! at 8 arrivals/hour (the deepest cell of the perfbench `demand_sweep`
//! campaign) and the bursty `dispatch_burst_7d` scenario. Any change to
//! how these policies walk, sort, filter or copy the queue must leave the
//! energy and carbon bits and the completed count exactly as captured.
//!
//! World generation flows through `ln`/`sin`/`cos`, whose last bit is
//! platform- and toolchain-dependent, so the f64 bit comparison only runs
//! on the platform the constants were captured on (x86-64 Linux);
//! completion counts and queue saturation are asserted everywhere. To
//! re-capture after an intentional behaviour change, run
//! `cargo test --test deep_queue print_deep_queue_golden -- --ignored --nocapture`
//! and replace the table.

use greener_world::core::driver::{SimDriver, World};
use greener_world::core::probe::Observe;
use greener_world::core::scenario::Scenario;
use greener_world::sched::PolicyKind;

use greener_bench::scenarios::dispatch_burst_7d;

const SEED: u64 = greener_bench::seeds::WORLD;

/// The saturated worlds, by name.
fn worlds() -> [(&'static str, Scenario); 2] {
    let mut quick = Scenario::quick(14, SEED);
    quick.trace.demand.base_rate_per_hour = 8.0;
    [("rate8", quick), ("burst", dispatch_burst_7d(SEED))]
}

/// The queue-deep policies, by name.
fn policies() -> [(&'static str, PolicyKind); 4] {
    [
        ("sjf", PolicyKind::Sjf),
        (
            "carbon",
            PolicyKind::CarbonAware {
                green_threshold: 0.06,
            },
        ),
        (
            "green_queues",
            PolicyKind::GreenQueues { green_cap_w: 160.0 },
        ),
        ("carbon_temp", PolicyKind::CarbonAndTempAware),
    ]
}

/// One row per (world, policy): energy kWh bits, carbon kg bits,
/// completed jobs and the deepest hourly queue sample.
struct Row {
    energy_bits: u64,
    carbon_bits: u64,
    completed: usize,
    max_depth: u32,
}

fn run_all() -> Vec<(String, Row)> {
    let mut rows = Vec::new();
    for (wname, base) in worlds() {
        let world = World::build(&base);
        for (pname, policy) in policies() {
            let s = base.clone().with_policy(policy);
            let out = SimDriver::run_observed(&s, &world, Observe::aggregates().with_queue_depth());
            rows.push((
                format!("{wname}/{pname}"),
                Row {
                    energy_bits: out.aggregates.energy_kwh.to_bits(),
                    carbon_bits: out.aggregates.carbon_kg.to_bits(),
                    completed: out.jobs.completed,
                    max_depth: out.queue_depth.expect("queue depth observed").max,
                },
            ));
        }
    }
    rows
}

/// `(world/policy, energy kWh bits, carbon kg bits, completed)`, captured
/// before the queue-deep policies stopped walking the whole queue.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, u64, usize); 8] = [
    ("rate8/sjf",          0x40cbea70be056435, 0x40b01f7d69b33197, 3123),
    ("rate8/carbon",       0x40cbf0cad3f829a1, 0x40b02292243a8064, 3123),
    ("rate8/green_queues", 0x40cbf1fa447dda10, 0x40b02381b14b08c8, 3123),
    ("rate8/carbon_temp",  0x40cbf0cad3f829a1, 0x40b02292243a8064, 3123),
    ("burst/sjf",          0x40bbe4387ef73ccb, 0x40a00203ea2debeb, 3865),
    ("burst/carbon",       0x40bbd5bc8d10d765, 0x409ff24be526d95f, 3865),
    ("burst/green_queues", 0x40bbe16449586a12, 0x40a0002b3fb15f34, 3865),
    ("burst/carbon_temp",  0x40bbd5bc8d10d765, 0x409ff24be526d95f, 3865),
];

#[test]
fn deep_queue_policies_match_golden() {
    let check_bits = cfg!(all(target_arch = "x86_64", target_os = "linux"));
    let rows = run_all();
    assert_eq!(rows.len(), GOLDEN.len());
    for ((cell, row), (want_cell, energy_bits, carbon_bits, completed)) in rows.iter().zip(GOLDEN) {
        assert_eq!(cell, want_cell);
        // The pin is only meaningful if the queue really is deep.
        assert!(
            row.max_depth >= 100,
            "{cell}: queue peaked at {} jobs, not a deep-queue world",
            row.max_depth
        );
        assert_eq!(row.completed, completed, "completions drifted: {cell}");
        if check_bits {
            assert_eq!(row.energy_bits, energy_bits, "energy drifted: {cell}");
            assert_eq!(row.carbon_bits, carbon_bits, "carbon drifted: {cell}");
        }
    }
}

/// Recapture helper for the table above.
#[test]
#[ignore = "golden recapture helper, run with --ignored --nocapture"]
fn print_deep_queue_golden() {
    for (cell, row) in run_all() {
        println!(
            "        ({cell:?}, {:#018x}, {:#018x}, {}), // max depth {}",
            row.energy_bits, row.carbon_bits, row.completed, row.max_depth
        );
    }
}
