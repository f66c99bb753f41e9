//! Regenerate every figure and table of *“A Green(er) World for A.I.”*.
//!
//! ```sh
//! cargo run --release -p greener-bench --bin repro            # everything
//! cargo run --release -p greener-bench --bin repro fig2 e7    # a subset
//! ```
//!
//! Figures F2–F5 run the flagship full-scale two-year world (640 GPUs,
//! ~300k jobs); the ablations run the 1/10-scale world or shorter windows,
//! set per experiment below. A release build regenerates everything in
//! about 0.6 s (median of 7 runs: 0.59 s) on a 2-vCPU Intel Xeon x86-64
//! host.

use greener_core::ablations::*;
use greener_core::driver::{RunResult, SimDriver};
use greener_core::experiments::*;
use greener_core::scenario::Scenario;
use greener_workload::ConferenceCalendar;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);

    let mut flagship: Option<RunResult> = None;

    if want("fig1") {
        let f = fig1();
        println!("== Fig. 1: Modern AI's computational demands ==");
        println!("{:<30} {:>8} {:>14}", "system", "year", "pfs-days");
        for (name, year, pfs) in &f.rows {
            println!("{name:<30} {year:>8.1} {pfs:>14.3e}");
        }
        println!(
            "doubling time: {:.1} months (pre-2012)  |  {:.1} months (post-2012)  |  modern-era growth {:.1e}x\n",
            f.doubling_before_months, f.doubling_after_months, f.modern_growth
        );
    }

    if want("fig2") || want("fig3") || want("fig4") || want("fig5") {
        eprintln!("[repro] simulating the flagship two-year world …");
        flagship = Some(SimDriver::run(&Scenario::two_year_baseline(
            greener_bench::seeds::WORLD,
        )));
    }

    if let Some(run) = &flagship {
        if want("fig2") {
            let f = fig2(run);
            println!("== Fig. 2: power consumption vs. green fuel mix ==");
            println!("{:<10} {:>12} {:>16}", "month", "avg kW", "% solar/wind");
            for r in &f.rows {
                println!(
                    "{:<10} {:>12.1} {:>16.2}",
                    r.ym.to_string(),
                    r.power_kw,
                    r.green_pct
                );
            }
            println!("pearson(power, green) = {:.3}\n", f.correlation);
        }
        if want("fig3") {
            let f = fig3(run);
            println!("== Fig. 3: energy prices vs. green fuel mix ==");
            println!("{:<10} {:>12} {:>16}", "month", "LMP $/MWh", "% solar/wind");
            for r in &f.rows {
                println!(
                    "{:<10} {:>12.1} {:>16.2}",
                    r.ym.to_string(),
                    r.lmp_usd_mwh,
                    r.green_pct
                );
            }
            println!(
                "pearson(price, green) = {:.3}; spring (Feb–May) mean ${:.1}/MWh\n",
                f.correlation, f.spring_mean_price
            );
        }
        if want("fig4") {
            let f = fig4(run);
            println!("== Fig. 4: power consumption vs. temperature ==");
            println!("{:<10} {:>12} {:>10}", "month", "avg kW", "temp °F");
            for r in &f.rows {
                println!(
                    "{:<10} {:>12.1} {:>10.1}",
                    r.ym.to_string(),
                    r.power_kw,
                    r.temp_f
                );
            }
            println!(
                "spearman(temp, power) = {:.3}; pearson = {:.3}\n",
                f.spearman, f.pearson
            );
        }
        if want("fig5") {
            let f = fig5(run, &ConferenceCalendar::table_i());
            println!("== Fig. 5: energy usage vs. conference deadlines ==");
            println!(
                "{:<10} {:>12} {:>12} {:>11}",
                "month", "avg kW", "IT kW", "deadlines"
            );
            for r in &f.rows {
                println!(
                    "{:<10} {:>12.1} {:>12.1} {:>11}",
                    r.ym.to_string(),
                    r.power_kw,
                    r.it_power_kw,
                    r.deadlines
                );
            }
            println!(
                "IT power leads deadlines by {} month(s), r = {:.2}; early-year pickup {:.2} kW (2021) vs {:.2} kW (2020)\n",
                f.lead_months, f.lead_correlation, f.pickup_2021_kw, f.pickup_2020_kw
            );
        }
    }

    if want("table1") {
        let t = table1();
        println!("== Table I: list of notable conferences ==");
        for (area, confs) in &t.rows {
            println!("{area:<16} {}", confs.join(", "));
        }
        println!("total deadline events 2020–21: {}\n", t.total_deadlines);
    }

    // ---- Ablations on the 1/10-scale world.
    let small = Scenario::two_year_small(greener_bench::seeds::WORLD);
    let quarter = small.clone().with_horizon_days(91);
    let summer_month = {
        let mut s = small.clone().with_horizon_days(31);
        s.start = greener_simkit::calendar::CalDate::new(2020, 7, 1);
        s
    };
    let year = small.clone().with_horizon_days(366);

    if want("e6") {
        println!("== E6 (§II-A): energy-purchasing strategies, Q1-2020 ==");
        println!(
            "{:<18} {:>11} {:>10} {:>9} {:>9} {:>9} {:>9}",
            "strategy", "energy kWh", "carbon kg", "cost $", "green %", "dCO2 %", "wait h"
        );
        for r in e6_purchasing(&quarter) {
            println!(
                "{:<18} {:>11.0} {:>10.0} {:>9.0} {:>9.2} {:>9.2} {:>9.2}",
                r.strategy,
                r.energy_kwh,
                r.carbon_kg,
                r.cost_usd,
                r.green_share * 100.0,
                r.carbon_saved_pct,
                r.mean_wait_hours
            );
        }
        println!();
    }

    if want("e7") {
        println!("== E7 (§II-C / ref [15]): GPU power-cap sweep, 45 days ==");
        let s = small.clone().with_horizon_days(45);
        let rows = e7_powercaps(&s, &[100.0, 125.0, 150.0, 175.0, 200.0, 225.0, 250.0]);
        println!(
            "{:<8} {:>7} {:>13} {:>11} {:>14} {:>9}",
            "cap W", "speed", "IT kWh", "GPU-hours", "kWh/GPU-hr", "stretch"
        );
        for r in &rows {
            println!(
                "{:<8.0} {:>7.2} {:>13.0} {:>11.0} {:>14.3} {:>9.2}",
                r.cap_w,
                r.speed,
                r.it_energy_kwh,
                r.gpu_hours,
                r.kwh_per_gpu_hour,
                r.runtime_stretch
            );
        }
        println!(
            "measured energy-optimal cap: {:.0} W\n",
            e7_optimal_cap(&rows)
        );
    }

    if want("e8") {
        println!("== E8 (§II-C): two-part mechanism ==");
        let cmp = e8_mechanism(greener_bench::seeds::MECHANISM);
        for (name, o) in [
            ("laissez-faire", &cmp.laissez_faire),
            ("caps-only", &cmp.caps_only),
            ("two-part", &cmp.two_part),
        ] {
            println!(
                "{:<14} energy-index {:.3}  time-factor {:.3}  utility {:+.3}  tiers {:?}",
                name, o.mean_energy_index, o.mean_time_factor, o.mean_utility, o.tier_counts
            );
        }
        println!();
    }

    if want("e9") {
        println!("== E9 (§II-C): queue segmentation & adverse selection ==");
        let out = e9_adverse_selection(greener_bench::seeds::MECHANISM);
        for (name, o) in [("truthful", &out.truthful), ("strategic", &out.strategic)] {
            println!(
                "{:<10} shares urgent/std/green {:.2}/{:.2}/{:.2}  waits {:.1}/{:.1}/{:.1} h  imbalance {:.2}",
                name,
                o.queue_shares[0],
                o.queue_shares[1],
                o.queue_shares[2],
                o.queue_waits[0],
                o.queue_waits[1],
                o.queue_waits[2],
                o.imbalance()
            );
        }
        println!();
    }

    if want("e10") {
        println!("== E10 (§II-B): weatherization stress suite, July 2020 ==");
        println!(
            "{:<26} {:>9} {:>9} {:>10} {:>8} {:>6}",
            "scenario", "cool-sat%", "slo-viol%", "energy kWh", "PUE", "pass"
        );
        for r in e10_stress(&summer_month) {
            println!(
                "{:<26} {:>9.2} {:>9.2} {:>10.0} {:>8.3} {:>6}",
                r.scenario,
                r.cooling_saturation * 100.0,
                r.slo_violation * 100.0,
                r.energy_kwh,
                r.mean_pue,
                if r.pass { "PASS" } else { "FAIL" }
            );
        }
        println!();
    }

    if want("e11") {
        println!("== E11 (§II-C): predictive analytics ==");
        let rep = e11_forecast(&quarter);
        println!("green-share forecasters (24 h horizon, rolling backtest):");
        println!(
            "{:<16} {:>10} {:>10} {:>9}",
            "model", "MAE", "RMSE", "sMAPE %"
        );
        for b in &rep.green_share_backtests {
            println!(
                "{:<16} {:>10.5} {:>10.5} {:>9.2}",
                format!("{:?}", b.kind),
                b.mae,
                b.rmse,
                b.smape
            );
        }
        println!("value of forecast (carbon-aware policy, total kg CO2):");
        for (mode, kg) in &rep.value_of_forecast {
            println!("  {:<14} {:>10.0} kg", mode, kg);
        }
        println!();
    }

    if want("e12") {
        println!("== E12 (§III): deadline restructuring, calendar year 2020 ==");
        println!(
            "{:<16} {:>11} {:>10} {:>11} {:>9} {:>8}",
            "policy", "energy kWh", "carbon kg", "IT-sd kW", "summer %", "wait h"
        );
        for r in e12_restructure(&year) {
            println!(
                "{:<16} {:>11.0} {:>10.0} {:>11.2} {:>9.2} {:>8.2}",
                r.policy,
                r.energy_kwh,
                r.carbon_kg,
                r.monthly_it_std_kw,
                r.summer_energy_share * 100.0,
                r.mean_wait_hours
            );
        }
        println!();
    }

    if want("e13") {
        println!("== E13 (§IV-B): training vs. inference fleet ==");
        let r = e13_inference(768, 64);
        println!(
            "inference energy share {:.1}%  inference util {:.1}%  training util {:.0}%  efficiency penalty {:.1}x\n",
            r.inference_energy_share * 100.0,
            r.inference_utilization * 100.0,
            r.training_utilization * 100.0,
            r.inference_efficiency_penalty
        );
    }

    if want("e15") {
        println!("== E15 (§IV-A): redundancy & reproducibility waste ==");
        let r = e15_redundancy();
        println!(
            "sweep (81 configs x 100 GPU-h): naive {:.0} GPU-h vs successive-halving {:.0} GPU-h ({:.0}% redundant)",
            r.sweep_naive_gpu_hours,
            r.sweep_halving_gpu_hours,
            r.sweep_redundancy_fraction * 100.0
        );
        println!(
            "replication (25 labs): good reporting {:.0} GPU-h vs poor reporting {:.0} GPU-h => {:.0} kg CO2 wasted
",
            r.replication_good_gpu_hours,
            r.replication_poor_gpu_hours,
            r.reporting_waste_carbon_kg
        );
    }

    if want("e14") {
        println!("== E14 (§IV-B): footprint-estimate variance (1M reference GPU-hours) ==");
        let v = e14_variance(1.0e6);
        for (label, kg, cars) in &v.estimates {
            println!("{label:<48} {kg:>14.0} kg CO2  ({cars:>10.5} cars)");
        }
        println!("max/min spread: {:.1e}x\n", v.spread);
    }
}
