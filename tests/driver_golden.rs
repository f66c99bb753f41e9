//! Facade-level smoke of the driver's golden table: FCFS, EASY backfill, a
//! static cap and the carbon gate on shallow `quick:14` queues, two seeds,
//! at default engine knobs.
//!
//! The full table lives in `greener-core`'s unit tests
//! (`golden_determinism_across_policies_cores_and_worldgen`), which sweep
//! every scheduler core, world-gen schedule, dispatch and apply path
//! against the same constants; only a `--workspace` test run reaches it.
//! This smoke replays each row once through the `greener-world` facade, so
//! a plain `cargo test` still pins the shallow-queue carbon-gate rows that
//! `tests/deep_queue.rs` (saturated worlds only) does not.
//!
//! World generation flows through `ln`/`sin`/`cos`, whose last bit is
//! platform- and toolchain-dependent, so the f64 bit comparison only runs
//! on the platform the constants were captured on (x86-64 Linux);
//! completion counts are asserted everywhere. The constants are copied
//! from the unit-test table and must change together with it.

use greener_world::core::driver::SimDriver;
use greener_world::core::scenario::Scenario;
use greener_world::sched::PolicyKind;

/// The table's policies, by index.
const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Fcfs,
    PolicyKind::EasyBackfill,
    PolicyKind::StaticCap { cap_w: 160.0 },
    PolicyKind::CarbonAware {
        green_threshold: 0.06,
    },
];

/// `(seed, policy index, energy kWh bits, carbon kg bits, completed)`.
#[rustfmt::skip]
const GOLDEN: [(u64, usize, u64, u64, usize); 8] = [
    (11, 0, 0x40c922ccafa87f03, 0x40ad00e248abd7b3, 321),
    (11, 1, 0x40c97d43b5f9dad8, 0x40ad6494efb8a584, 321),
    (11, 2, 0x40c8e65f69aa2d43, 0x40acb5962d6ffa92, 321),
    (11, 3, 0x40c97a5e07d1aa56, 0x40ad59dbd43780bb, 321),
    (42, 0, 0x40c95cee1ab15c8c, 0x40ad525d82962835, 355),
    (42, 1, 0x40c9599519f112ba, 0x40ad4fde80368340, 355),
    (42, 2, 0x40c8dc184035554d, 0x40acbc4003a4424b, 355),
    (42, 3, 0x40c9546aff58b809, 0x40ad454aca124726, 355),
];

#[test]
fn driver_golden_table_holds_at_default_knobs() {
    let check_bits = cfg!(all(target_arch = "x86_64", target_os = "linux"));
    for (seed, pi, energy_bits, carbon_bits, completed) in GOLDEN {
        let cell = format!("seed {seed}, policy {:?}", POLICIES[pi]);
        let r = SimDriver::run(&Scenario::quick(14, seed).with_policy(POLICIES[pi]));
        assert_eq!(r.jobs.completed, completed, "completions drifted: {cell}");
        if check_bits {
            assert_eq!(
                r.telemetry.total_energy_kwh().to_bits(),
                energy_bits,
                "energy drifted: {cell}"
            );
            assert_eq!(
                r.telemetry.total_carbon_kg().to_bits(),
                carbon_bits,
                "carbon drifted: {cell}"
            );
        }
    }
}
