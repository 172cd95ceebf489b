//! Steadiness report: the workload run `RUNS` times in fresh processes on
//! consecutive seeds, with the spread of every metric beside the per-run
//! work counts, so a wide spread can be traced to varying work or to the
//! host.

use std::process::{Command, ExitCode, Stdio};

use pandora_hdbscan::daemon::json::Json;

use crate::stats::{iqr_over_median, median};
use crate::Args;

/// Work counters printed beside each run (from its information line).
const WORK_KEYS: [&str; 5] = [
    "daemon_researches",
    "daemon_witness_hits",
    "engine_runs",
    "coalesced",
    "session_researches",
];

pub fn report(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut metrics: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut work_rows = Vec::new();
    let mut run_rows = Vec::new();
    let mut failed_runs = 0;
    for i in 0..runs as u64 {
        let seed = args.seed + i;
        let output = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let Ok(output) = output else {
            eprintln!("perfbench: run with seed {seed} did not start");
            failed_runs += 1;
            continue;
        };
        if !output.status.success() {
            failed_runs += 1;
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let parse = |k: usize| {
            lines
                .len()
                .checked_sub(k)
                .and_then(|i| Json::parse(lines[i]).ok())
        };
        let (Some(result), info) = (parse(1), parse(2)) else {
            eprintln!("perfbench: run with seed {seed} printed no result");
            failed_runs += 1;
            continue;
        };
        if let Some(Json::Obj(pairs)) = result.get("metrics") {
            let row: Vec<String> = pairs
                .iter()
                .filter_map(|(name, v)| Some(format!("{name}={}", v.get("value")?.as_f64()?)))
                .collect();
            run_rows.push((seed, row.join(" ")));
            for (name, v) in pairs {
                let value = v.get("value").and_then(Json::as_f64);
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                let Some(value) = value else { continue };
                match metrics.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, values)) => values.push(value),
                    None => metrics.push((name.clone(), unit.to_string(), vec![value])),
                }
            }
        }
        let work = info.as_ref().and_then(|i| i.get("work").cloned());
        work_rows.push((seed, work));
    }

    println!(
        "{:<36} {:>10} {:>14} {:>11} {:>10}",
        "metric", "unit", "median", "IQR/median", "worst dev"
    );
    let mut summary = Vec::new();
    for (name, unit, values) in &metrics {
        let med = median(values).unwrap_or(f64::NAN);
        let iqr = iqr_over_median(values).unwrap_or(f64::NAN);
        let worst = values
            .iter()
            .map(|v| ((v - med) / med).abs())
            .fold(0.0, f64::max);
        println!("{name:<36} {unit:>10} {med:>14.6} {iqr:>11.4} {worst:>10.4}");
        summary.push((
            name.clone(),
            Json::obj(vec![
                ("median", Json::Float(med)),
                ("iqr_over_median", Json::Float(iqr)),
                ("worst_deviation", Json::Float(worst)),
                ("runs", Json::Int(values.len() as i64)),
            ]),
        ));
    }
    println!();
    for (seed, row) in &run_rows {
        println!("seed {seed}: {row}");
    }
    println!();
    print!("{:<8}", "seed");
    for key in WORK_KEYS {
        print!(" {key:>20}");
    }
    println!();
    for (seed, work) in &work_rows {
        print!("{seed:<8}");
        for key in WORK_KEYS {
            let v = work
                .as_ref()
                .and_then(|w| w.get(key))
                .and_then(Json::as_f64);
            match v {
                Some(v) => print!(" {v:>20}"),
                None => print!(" {:>20}", "-"),
            }
        }
        println!();
    }
    println!(
        "{}",
        Json::obj(vec![
            ("workload", Json::Str(args.workload.name().to_string())),
            ("runs", Json::Int(runs as i64)),
            ("failed_runs", Json::Int(failed_runs)),
            ("metrics", Json::Obj(summary)),
        ])
    );
    if failed_runs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
