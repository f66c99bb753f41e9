//! Quantified ablations of the paper's proposals (E6–E14).
//!
//! Each section of the paper makes a qualitative claim; these experiments
//! turn them into numbers on the simulated substrate. `tests/policies.rs`
//! checks the measured numbers against the paper's claims.

use greener_forecast::backtest::{backtest_all, BacktestReport};
use greener_forecast::ForecasterKind;
use greener_hpc::gpu::kind_utilization;
use greener_hpc::GpuModel;
use greener_mechanism::selection::{AdverseSelectionOutcome, ChoiceModel, QueueGame};
use greener_mechanism::twopart::{compare_regimes, RegimeComparison};
use greener_sched::PolicyKind;
use greener_workload::job::InferenceService;
use greener_workload::DeadlinePolicy;
use serde::{Deserialize, Serialize};

use crate::accounting::VarianceAnalysis;
use crate::driver::{SimDriver, World};
use crate::probe::Observe;
use crate::scenario::{ForecastMode, Scenario};
use crate::stress::{run_suite, StressReport};

/// E6: one purchasing-strategy row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E6Row {
    /// Strategy label.
    pub strategy: String,
    /// Total energy purchased, kWh.
    pub energy_kwh: f64,
    /// Total carbon, kg.
    pub carbon_kg: f64,
    /// Total cost, $.
    pub cost_usd: f64,
    /// Energy-weighted green share of purchases.
    pub green_share: f64,
    /// Carbon saved vs. the baseline row, percent.
    pub carbon_saved_pct: f64,
    /// Cost saved vs. the baseline row, percent.
    pub cost_saved_pct: f64,
    /// Mean job wait, hours (the activity-side price of the strategy).
    pub mean_wait_hours: f64,
}

/// E6 (§II-A): baseline vs. carbon-aware utilization shifting vs. battery
/// storage vs. both.
pub fn e6_purchasing(base: &Scenario) -> Vec<E6Row> {
    let carbon_aware = PolicyKind::CarbonAware {
        green_threshold: 0.065,
    };
    let cells: Vec<(String, Scenario)> = vec![
        ("baseline".into(), base.clone()),
        (
            "shift-utilization".into(),
            base.clone().with_policy(carbon_aware),
        ),
        ("battery-storage".into(), base.clone().with_battery()),
        (
            "shift+storage".into(),
            base.clone().with_policy(carbon_aware).with_battery(),
        ),
    ];
    // Outer level of the two-level threading model (see
    // `greener_simkit::sweep`): cells fan out across threads. Paired
    // design: every cell replays the base scenario's seed, so the per-cell
    // hub goes unused and one shared world serves all cells (the cells
    // differ only in policy/strategy, which never feed world generation).
    // Every E6 column is a total or a weighted total, so each cell is an
    // aggregates-only observation.
    let world = World::build(base);
    let runs = greener_simkit::sweep::run_seeded(&cells, base.seed, |_, (label, s), _hub| {
        let out = SimDriver::run_observed(s, &world, Observe::aggregates());
        (label.clone(), out)
    });
    let base_carbon = runs[0].1.aggregates.carbon_kg;
    let base_cost = runs[0].1.aggregates.cost_usd;
    runs.into_iter()
        .map(|(strategy, out)| E6Row {
            strategy,
            energy_kwh: out.aggregates.energy_kwh,
            carbon_kg: out.aggregates.carbon_kg,
            cost_usd: out.aggregates.cost_usd,
            green_share: out.aggregates.energy_weighted_green_share(),
            carbon_saved_pct: (1.0 - out.aggregates.carbon_kg / base_carbon) * 100.0,
            cost_saved_pct: (1.0 - out.aggregates.cost_usd / base_cost) * 100.0,
            mean_wait_hours: out.jobs.mean_wait_hours,
        })
        .collect()
}

/// E7: one power-cap row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E7Row {
    /// Fleet-wide cap, watts.
    pub cap_w: f64,
    /// Relative throughput at the cap (GPU model curve).
    pub speed: f64,
    /// Measured IT energy, kWh.
    pub it_energy_kwh: f64,
    /// Completed work, GPU-hours.
    pub gpu_hours: f64,
    /// Energy per completed GPU-hour, kWh.
    pub kwh_per_gpu_hour: f64,
    /// Mean job runtime stretch vs. nominal.
    pub runtime_stretch: f64,
}

/// E7 (§II-C, ref \[15\]): sweep fleet-wide power caps; the energy-per-work
/// curve has an interior optimum well below TDP.
pub fn e7_powercaps(base: &Scenario, caps: &[f64]) -> Vec<E7Row> {
    let gpu = base.cluster.gpu.clone();
    let cells: Vec<f64> = caps.to_vec();
    // Paired sweep over caps: one shared world (caps only change the
    // policy, never world generation), hub unused. Each cell needs IT
    // energy (an aggregate) plus per-job records for the stretch column —
    // but never hourly frames, so telemetry stays off.
    let world = World::build(base);
    greener_simkit::sweep::run_seeded(&cells, base.seed, |_, &cap, _hub| {
        let s = base
            .clone()
            .with_policy(PolicyKind::StaticCap { cap_w: cap })
            .named(format!("cap-{cap:.0}W"));
        let out = SimDriver::run_observed(&s, &world, Observe::aggregates().with_job_records());
        let it_kwh = out.aggregates.it_energy_kwh;
        let stretches: Vec<f64> = out
            .job_records
            .as_deref()
            .expect("job records observed")
            .iter()
            .map(|j| {
                let nominal_h = j.work_gpu_hours / j.gpus as f64;
                (j.finish - j.start).hours_f64() / nominal_h.max(1e-9)
            })
            .collect();
        E7Row {
            cap_w: cap,
            speed: gpu.speed_at_cap(cap),
            it_energy_kwh: it_kwh,
            gpu_hours: out.jobs.gpu_hours_completed,
            kwh_per_gpu_hour: it_kwh / out.jobs.gpu_hours_completed.max(1e-9),
            runtime_stretch: greener_simkit::stats::mean(&stretches),
        }
    })
}

/// The cap minimizing measured energy-per-work in an E7 sweep.
pub fn e7_optimal_cap(rows: &[E7Row]) -> f64 {
    rows.iter()
        .min_by(|a, b| {
            a.kwh_per_gpu_hour
                .partial_cmp(&b.kwh_per_gpu_hour)
                .expect("finite")
        })
        .map(|r| r.cap_w)
        .unwrap_or(f64::NAN)
}

/// E8 (§II-C): the two-part mechanism against laissez-faire and caps-only.
pub fn e8_mechanism(seed: u64) -> RegimeComparison {
    compare_regimes(seed)
}

/// E9 output: truthful vs. strategic queue games.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E9Outcome {
    /// Operator-assigned (truthful) outcome.
    pub truthful: AdverseSelectionOutcome,
    /// Self-selected (strategic) outcome.
    pub strategic: AdverseSelectionOutcome,
}

/// E9 (§II-C): adverse selection in segmented queues.
pub fn e9_adverse_selection(seed: u64) -> E9Outcome {
    let game = QueueGame::standard(seed);
    E9Outcome {
        truthful: game.solve(ChoiceModel::Truthful),
        strategic: game.solve(ChoiceModel::Strategic),
    }
}

/// E10 (§II-B): the Dodd-Frank-style stress suite on the baseline world.
pub fn e10_stress(base: &Scenario) -> Vec<StressReport> {
    run_suite(base, &greener_climate::StressScenario::standard_suite())
}

/// E11 output: forecaster backtests plus end-to-end value of forecasts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E11Report {
    /// Green-share forecaster backtests (sorted by MAE).
    pub green_share_backtests: Vec<BacktestReport>,
    /// Price forecaster backtests.
    pub price_backtests: Vec<BacktestReport>,
    /// `(forecast mode, total carbon kg)` under the carbon-aware policy.
    pub value_of_forecast: Vec<(String, f64)>,
}

/// E11 (§II-C): score the predictive-analytics layer and measure how much
/// forecast quality matters to carbon-aware scheduling.
pub fn e11_forecast(base: &Scenario) -> E11Report {
    // Backtests on the environment the scheduler would observe.
    let hub = greener_simkit::rng::RngHub::new(base.seed);
    let calendar = greener_simkit::calendar::Calendar::new(base.start);
    let weather = greener_climate::WeatherPath::generate(
        &base.weather,
        calendar,
        base.horizon_hours.min(120 * 24),
        &hub,
    );
    let grid = greener_grid::mix::GridPath::generate(&base.grid, &weather, &hub);
    let green: Vec<f64> = grid.green_share.clone();
    let price: Vec<f64> = grid.lmp_usd_mwh.clone();
    let green_share_backtests = backtest_all(&green, 24 * 14, 24, 48, 24);
    let price_backtests = backtest_all(&price, 24 * 14, 24, 48, 24);

    // Value of forecast: carbon-aware scheduling under three sources.
    let policy = PolicyKind::CarbonAware {
        green_threshold: 0.065,
    };
    let modes = [
        ("oracle".to_string(), ForecastMode::Oracle),
        (
            "holt-winters".to_string(),
            ForecastMode::Model(ForecasterKind::HoltWinters),
        ),
        ("naive".to_string(), ForecastMode::Naive),
    ];
    // One shared world: forecast mode only changes what the policy *sees*,
    // never the world itself. Only the carbon total is consumed, so the
    // cells run aggregates-only.
    let world = World::build(base);
    let value_of_forecast =
        greener_simkit::sweep::run_seeded(&modes, base.seed, |_, (label, mode), _hub| {
            let s = base.clone().with_policy(policy).with_forecast(*mode);
            let out = SimDriver::run_observed(&s, &world, Observe::aggregates());
            (label.clone(), out.aggregates.carbon_kg)
        });
    E11Report {
        green_share_backtests,
        price_backtests,
        value_of_forecast,
    }
}

/// E12: one deadline-restructuring row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E12Row {
    /// Restructuring policy label.
    pub policy: String,
    /// Total energy, kWh.
    pub energy_kwh: f64,
    /// Total carbon, kg.
    pub carbon_kg: f64,
    /// Peak monthly mean power, kW (grid-stress proxy).
    pub peak_month_power_kw: f64,
    /// Std-dev of monthly mean power (how spiky the year is).
    pub monthly_power_std_kw: f64,
    /// Std-dev of monthly mean *IT* power (the demand-side spikiness the
    /// deadline calendar controls; total power adds the cooling season).
    pub monthly_it_std_kw: f64,
    /// Share of annual energy consumed in Jun–Aug (the paper's worst
    /// season: hot + dirty fuel mix).
    pub summer_energy_share: f64,
    /// Mean job wait, hours.
    pub mean_wait_hours: f64,
}

/// E12 (§III): compare the paper's deadline-restructuring options (1)–(3).
pub fn e12_restructure(base: &Scenario) -> Vec<E12Row> {
    let cells: Vec<DeadlinePolicy> = DeadlinePolicy::ALL.to_vec();
    greener_simkit::sweep::run_seeded(&cells, base.seed, |_, &dp, _hub| {
        // Deadline policies reshape the workload trace, so each cell
        // builds its own world. Monthly seasonality columns need hourly
        // telemetry; ledger and job records stay off.
        let s = base.clone().named(dp.label()).with_deadline_policy(dp);
        let world = World::build(&s);
        let out = SimDriver::run_observed(&s, &world, Observe::aggregates().with_telemetry());
        let telemetry = out.telemetry.as_ref().expect("telemetry observed");
        let monthly = telemetry.monthly_power_kw();
        let values: Vec<f64> = monthly.iter().map(|r| r.value).collect();
        let it_values: Vec<f64> = telemetry
            .series_of(|f| f.it_power_w / 1_000.0)
            .monthly(greener_simkit::series::MonthlyAgg::Mean)
            .iter()
            .map(|r| r.value)
            .collect();
        let summer: f64 = telemetry
            .frames()
            .iter()
            .filter(|f| {
                let ym = telemetry
                    .calendar()
                    .year_month_at(greener_simkit::time::SimTime::from_hours(f.hour));
                (6..=8).contains(&ym.month.number())
            })
            .map(|f| f.energy_kwh)
            .sum();
        E12Row {
            policy: dp.label().into(),
            energy_kwh: out.aggregates.energy_kwh,
            carbon_kg: out.aggregates.carbon_kg,
            peak_month_power_kw: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            monthly_power_std_kw: greener_simkit::stats::std_dev(&values),
            monthly_it_std_kw: greener_simkit::stats::std_dev(&it_values),
            summer_energy_share: summer / out.aggregates.energy_kwh,
            mean_wait_hours: out.jobs.mean_wait_hours,
        }
    })
}

/// E13 output: training vs. inference in a production fleet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E13Report {
    /// Inference share of fleet energy (paper: 80–90 % of energy costs).
    pub inference_energy_share: f64,
    /// Mean inference GPU utilization (paper/AWS: 10–30 %).
    pub inference_utilization: f64,
    /// Mean training GPU utilization.
    pub training_utilization: f64,
    /// Inference energy per useful GPU-hour relative to training (the
    /// efficiency penalty of low utilization).
    pub inference_efficiency_penalty: f64,
}

/// E13 (§IV-B): a production fleet where inference dominates capacity.
///
/// `inference_gpus` replicas serve a diurnal query load at low utilization;
/// `training_gpus` run saturated training. Energy integrates the GPU power
/// model over a day.
pub fn e13_inference(inference_gpus: u32, training_gpus: u32) -> E13Report {
    let gpu = GpuModel::default();
    let svc = InferenceService {
        name: "production-ranker".into(),
        gpus: inference_gpus,
        mean_utilization: 0.20,
        diurnal_swing: 0.6,
    };
    let train_util = kind_utilization(greener_workload::JobKind::Training);
    let mut inf_energy = 0.0;
    let mut inf_util_sum = 0.0;
    let mut inf_useful = 0.0;
    let mut train_energy = 0.0;
    let mut train_useful = 0.0;
    for hod in 0..24u32 {
        let u = svc.utilization_at(hod);
        inf_util_sum += u;
        inf_energy +=
            inference_gpus as f64 * gpu.power_at(gpu.nominal_power_w, u).value() / 1_000.0;
        inf_useful += inference_gpus as f64 * u;
        train_energy +=
            training_gpus as f64 * gpu.power_at(gpu.nominal_power_w, train_util).value() / 1_000.0;
        train_useful += training_gpus as f64 * train_util;
    }
    let inf_per_useful = inf_energy / inf_useful.max(1e-9);
    let train_per_useful = train_energy / train_useful.max(1e-9);
    E13Report {
        inference_energy_share: inf_energy / (inf_energy + train_energy),
        inference_utilization: inf_util_sum / 24.0,
        training_utilization: train_util,
        inference_efficiency_penalty: inf_per_useful / train_per_useful,
    }
}

/// E14 (§IV-B): footprint-estimate variance for the same training job.
pub fn e14_variance(reference_gpu_hours: f64) -> VarianceAnalysis {
    VarianceAnalysis::standard(reference_gpu_hours)
}

/// E15 output: §IV-A redundancy and reproducibility waste.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E15Report {
    /// Naive sweep budget, GPU-hours.
    pub sweep_naive_gpu_hours: f64,
    /// Successive-halving budget, GPU-hours.
    pub sweep_halving_gpu_hours: f64,
    /// Redundancy fraction avoided by early stopping.
    pub sweep_redundancy_fraction: f64,
    /// Community replication compute under good reporting, GPU-hours.
    pub replication_good_gpu_hours: f64,
    /// Community replication compute under poor reporting, GPU-hours.
    pub replication_poor_gpu_hours: f64,
    /// Carbon cost of the poor-reporting regime's extra compute, kg CO₂
    /// (at the representative footprint assumptions).
    pub reporting_waste_carbon_kg: f64,
}

/// E15 (§IV-A): quantify sweep redundancy and reporting-driven
/// replication waste.
pub fn e15_redundancy() -> E15Report {
    use greener_workload::{ReplicationModel, SweepCampaign};
    let sweep = SweepCampaign::representative();
    let good = ReplicationModel {
        attempt_success_prob: 0.9,
        attempt_gpu_hours: 100.0,
        n_labs: 25,
    };
    let poor = ReplicationModel {
        attempt_success_prob: 0.3,
        ..good
    };
    let waste_gpu_hours = poor.waste_vs(&good);
    let carbon = crate::accounting::FootprintAssumptions::representative()
        .estimate_carbon(waste_gpu_hours / 10.0) // estimate includes a 10x search multiplier; undo it
        .value();
    E15Report {
        sweep_naive_gpu_hours: sweep.naive_gpu_hours(),
        sweep_halving_gpu_hours: sweep.halving_gpu_hours(),
        sweep_redundancy_fraction: sweep.redundancy_fraction(),
        replication_good_gpu_hours: good.expected_community_gpu_hours(),
        replication_poor_gpu_hours: poor.expected_community_gpu_hours(),
        reporting_waste_carbon_kg: carbon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, days: usize) -> Scenario {
        Scenario::two_year_small(seed).with_horizon_days(days)
    }

    #[test]
    fn e6_strategies_save_carbon() {
        let rows = e6_purchasing(&small(61, 60));
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].strategy, "baseline");
        // Both interventions improve the green share of purchases.
        assert!(rows[2].green_share > rows[0].green_share);
        // Battery must not change job service at all (purchasing only).
        assert!((rows[2].mean_wait_hours - rows[0].mean_wait_hours).abs() < 1e-9);
    }

    #[test]
    fn e7_energy_curve_has_interior_optimum() {
        let rows = e7_powercaps(&small(62, 30), &[100.0, 150.0, 200.0, 250.0]);
        assert_eq!(rows.len(), 4);
        let opt = e7_optimal_cap(&rows);
        assert!(
            opt > 100.0 - 1e-9 && opt < 250.0,
            "optimal cap {opt} should be below TDP"
        );
        // Stricter caps stretch runtimes.
        assert!(rows[0].runtime_stretch > rows[3].runtime_stretch);
    }

    #[test]
    fn e8_regimes_match_paper_ordering() {
        let cmp = e8_mechanism(63);
        assert!(cmp.two_part.mean_energy_index < cmp.laissez_faire.mean_energy_index);
        assert!(cmp.two_part.mean_utility >= cmp.caps_only.mean_utility);
        assert!(cmp.two_part.participation > 0.0);
    }

    #[test]
    fn e9_shows_adverse_selection() {
        let out = e9_adverse_selection(64);
        assert!(out.strategic.queue_shares[0] > out.truthful.queue_shares[0]);
        assert!(out.strategic.queue_shares[2] < out.truthful.queue_shares[2]);
    }

    #[test]
    fn e13_matches_published_magnitudes() {
        // A fleet shaped like the paper's industry picture: inference
        // dominates installed capacity.
        let r = e13_inference(512, 64);
        assert!(
            (0.7..0.95).contains(&r.inference_energy_share),
            "inference energy share {:.2}",
            r.inference_energy_share
        );
        assert!(
            (0.10..0.30).contains(&r.inference_utilization),
            "inference utilization {:.2}",
            r.inference_utilization
        );
        assert!(r.inference_efficiency_penalty > 1.5);
    }

    #[test]
    fn e14_spread_is_large() {
        let v = e14_variance(1.0e6);
        assert!(v.spread > 1e4);
    }

    #[test]
    fn e15_quantifies_both_wastes() {
        let r = e15_redundancy();
        assert!(r.sweep_redundancy_fraction > 0.6);
        assert!(r.sweep_halving_gpu_hours < r.sweep_naive_gpu_hours);
        assert!(r.replication_poor_gpu_hours > r.replication_good_gpu_hours * 2.5);
        assert!(r.reporting_waste_carbon_kg > 0.0);
    }

    #[test]
    fn e12_rolling_flattens_power() {
        let rows = e12_restructure(&small(65, 365));
        assert_eq!(rows.len(), 4);
        let status_quo = &rows[0];
        let rolling = rows.iter().find(|r| r.policy == "rolling").unwrap();
        assert!(
            rolling.monthly_it_std_kw < status_quo.monthly_it_std_kw,
            "rolling {:.2} vs status quo {:.2}",
            rolling.monthly_it_std_kw,
            status_quo.monthly_it_std_kw
        );
    }
}
