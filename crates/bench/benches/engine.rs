//! Engine benchmarks: DES throughput, world generation, the year-scale
//! driver, parallel sweep scaling and forecaster fits — the hpc-parallel
//! performance surface of the workspace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use greener_core::driver::SimDriver;
use greener_core::scenario::Scenario;
use greener_forecast::ForecasterKind;
use greener_simkit::calq::CalendarQueue;
use greener_simkit::des::{EventQueue, EventScheduler};
use greener_simkit::rng::RngHub;
use greener_simkit::time::SimTime;
use std::hint::black_box;

/// Schedule/pop churn through any scheduler core: pseudo-random times via
/// splitmix so the structure actually works for its ordering.
fn churn<Q: EventScheduler<u64>>(n: u64) -> u64 {
    let mut q = Q::with_hints(n as usize, 1_000_000);
    for i in 0..n {
        let t = greener_simkit::rng::splitmix64(i) % 1_000_000;
        q.schedule(SimTime(t), i);
    }
    let mut acc = 0u64;
    while let Some((_, e)) = q.pop() {
        acc = acc.wrapping_add(e);
    }
    acc
}

fn bench_des(c: &mut Criterion) {
    let mut g = c.benchmark_group("des");
    for &n in &[10_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("schedule_pop_heap", n), &n, |b, &n| {
            b.iter(|| black_box(churn::<EventQueue<u64>>(n)))
        });
        g.bench_with_input(BenchmarkId::new("schedule_pop_calendar", n), &n, |b, &n| {
            b.iter(|| black_box(churn::<CalendarQueue<u64>>(n)))
        });
    }
    g.finish();
}

fn bench_world(c: &mut Criterion) {
    let mut g = c.benchmark_group("world");
    g.sample_size(10);
    g.bench_function("weather_2y", |b| {
        let cal = greener_simkit::calendar::Calendar::new(greener_simkit::calendar::CalDate::new(
            2020, 1, 1,
        ));
        let hub = RngHub::new(1);
        b.iter(|| {
            black_box(greener_climate::WeatherPath::generate(
                &greener_climate::WeatherConfig::default(),
                cal,
                731 * 24,
                &hub,
            ))
        })
    });
    // World-generation lane: the parallel (default) schedule against the
    // sequential reference, and weather alone — so the split the perfjson
    // snapshot reports is also visible under criterion timing.
    g.bench_function("worldgen_2y_parallel", |b| {
        let s = Scenario::two_year_small(greener_bench::seeds::WORLD);
        b.iter(|| black_box(greener_core::driver::World::build(&s)))
    });
    g.bench_function("worldgen_2y_sequential", |b| {
        let s = Scenario::two_year_small(greener_bench::seeds::WORLD)
            .with_worldgen(greener_core::scenario::WorldGen::Sequential);
        b.iter(|| black_box(greener_core::driver::World::build(&s)))
    });
    g.bench_function("driver_quick_30d", |b| {
        let s = Scenario::quick(30, 3);
        b.iter(|| black_box(SimDriver::run(&s)))
    });
    g.bench_function("driver_small_2y", |b| {
        let s = Scenario::two_year_small(greener_bench::seeds::WORLD);
        b.iter(|| black_box(SimDriver::run(&s)))
    });
    // Replay-only lanes over a shared pre-built world: the full probe set
    // (what `SimDriver::run` retains) against the aggregates-only fast
    // path (what a sweep cell retains). The delta is the cost of hourly
    // frame assembly + ledger growth + job-record retention.
    g.bench_function("replay_small_2y_full", |b| {
        let s = Scenario::two_year_small(greener_bench::seeds::WORLD);
        let world = greener_core::driver::World::build(&s);
        b.iter(|| black_box(SimDriver::run_with_world(&s, &world)))
    });
    g.bench_function("replay_small_2y_aggregates", |b| {
        let s = Scenario::two_year_small(greener_bench::seeds::WORLD);
        let world = greener_core::driver::World::build(&s);
        b.iter(|| {
            black_box(SimDriver::run_observed(
                &s,
                &world,
                greener_core::probe::Observe::aggregates(),
            ))
        })
    });
    // The same aggregates-only replay with the lone-arrival fast path
    // disabled (`DispatchPath::Reference`): the delta to the lane above is
    // what the fast path buys on a scenario whose arrivals mostly meet an
    // empty queue.
    g.bench_function("replay_small_2y_reference_dispatch", |b| {
        let s = Scenario::two_year_small(greener_bench::seeds::WORLD)
            .with_dispatch(greener_core::scenario::DispatchPath::Reference);
        let world = greener_core::driver::World::build(&s);
        b.iter(|| {
            black_box(SimDriver::run_observed(
                &s,
                &world,
                greener_core::probe::Observe::aggregates(),
            ))
        })
    });
    // The same aggregates-only replay with the SoA apply slab disabled
    // (`ApplyPath::Reference`): the delta to `replay_small_2y_aggregates`
    // isolates what the split hot/cold job-state columns buy on the
    // start/finish hot loop.
    g.bench_function("replay_small_2y_reference_apply", |b| {
        let s = Scenario::two_year_small(greener_bench::seeds::WORLD)
            .with_apply(greener_core::scenario::ApplyPath::Reference);
        let world = greener_core::driver::World::build(&s);
        b.iter(|| {
            black_box(SimDriver::run_observed(
                &s,
                &world,
                greener_core::probe::Observe::aggregates(),
            ))
        })
    });
    // Saturated queue: thousands of waiting jobs, so every dispatch
    // stresses signal building and queue application end to end.
    g.bench_function("dispatch_heavy_90d", |b| {
        let s = greener_bench::scenarios::dispatch_heavy_90d(greener_bench::seeds::WORLD);
        b.iter(|| black_box(SimDriver::run(&s)))
    });
    // The same saturated world under the two queue-deep §II levers, replayed
    // over one pre-built world so the lane times dispatch, not world-gen:
    // the carbon gate (hides a deadline range of the queue in dirty hours)
    // and green queues (per-tier first fit).
    for (lane, policy) in [
        (
            "dispatch_heavy_90d_carbon",
            greener_sched::PolicyKind::CarbonAware {
                green_threshold: 0.06,
            },
        ),
        (
            "dispatch_heavy_90d_green_queues",
            greener_sched::PolicyKind::GreenQueues { green_cap_w: 160.0 },
        ),
    ] {
        g.bench_function(lane, |b| {
            let s = greener_bench::scenarios::dispatch_heavy_90d(greener_bench::seeds::WORLD)
                .with_policy(policy);
            let world = greener_core::driver::World::build(&s);
            b.iter(|| {
                black_box(SimDriver::run_observed(
                    &s,
                    &world,
                    greener_core::probe::Observe::aggregates(),
                ))
            })
        });
    }
    // Bursty arrivals: deep queues that flood in spikes and drain against
    // completions — the worst case for backfill's candidate search.
    g.bench_function("dispatch_burst_7d", |b| {
        let s = greener_bench::scenarios::dispatch_burst_7d(greener_bench::seeds::WORLD);
        b.iter(|| black_box(SimDriver::run(&s)))
    });
    g.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    // Parallel Monte-Carlo replication scaling (Rayon).
    for &n in &[4usize, 16] {
        g.bench_with_input(BenchmarkId::new("replicate_7d", n), &n, |b, &n| {
            b.iter(|| {
                black_box(greener_simkit::sweep::replicate(n, 5, |_, hub| {
                    let s = Scenario::quick(7, hub.root());
                    SimDriver::run(&s).jobs.completed
                }))
            })
        });
    }
    g.finish();
}

fn bench_forecast(c: &mut Criterion) {
    let series: Vec<f64> = (0..24 * 30)
        .map(|i| {
            0.06 + 0.02 * (i as f64 / 24.0 * std::f64::consts::TAU).sin()
                + 0.005 * ((i * 7919) % 17) as f64 / 17.0
        })
        .collect();
    let mut g = c.benchmark_group("forecast");
    for kind in [
        ForecasterKind::SeasonalNaive,
        ForecasterKind::HoltWinters,
        ForecasterKind::Ar,
    ] {
        g.bench_function(format!("{kind:?}_fit_forecast"), |b| {
            b.iter(|| {
                let mut m = kind.build(24);
                m.fit(black_box(&series));
                black_box(m.forecast(24))
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = engine;
    config = Criterion::default();
    targets = bench_des, bench_world, bench_sweep, bench_forecast
}
criterion_main!(engine);
